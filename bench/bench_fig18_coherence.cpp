// Fig. 18 — Channel stable period. The paper measures DCIs of two
// commercial cells (600 MHz FDD, 2.5 GHz TDD) with NR-Scope and counts
// periods where the MCS deviation stays within 5. We generate MCS traces
// from the fading substrate for equivalent low- and high-Doppler cells and
// apply the same statistic. The estimation window (half of 24.9 ms) should
// fall below >90% of stable periods.
//
// `--trace-dir DIR` switches to the paper's actual methodology: the MCS
// stream is replayed from DCI trace files (DIR/nr_scope_*.csv — see
// traces/ and scripts/gen_traces.py) through chan::trace_channel instead
// of being sampled from the fading model. Default output is unchanged.
//
// The two cells trace independently; they run via scenario::grid_runner.
#include <cstdio>
#include <functional>
#include <vector>

#include "scenario/bench_format.h"
#include "chan/fading.h"
#include "chan/mcs.h"
#include "chan/trace_channel.h"
#include "chan/trace_io.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"
#include "stats/sample_set.h"
#include "stats/table.h"

using namespace l4span;

namespace {

// `mcs_at` is the per-millisecond MCS source: a fading channel's link
// adaptation or a replayed DCI trace.
stats::sample_set stable_periods(const std::function<int(sim::tick)>& mcs_at,
                                 sim::tick trace_len)
{
    stats::sample_set periods;
    const sim::tick step = sim::from_ms(1);
    int mcs_min = 99, mcs_max = -1;
    sim::tick period_start = 0;
    for (sim::tick t = 0; t < trace_len; t += step) {
        const int m = mcs_at(t);
        mcs_min = std::min(mcs_min, m);
        mcs_max = std::max(mcs_max, m);
        if (mcs_max - mcs_min > 5) {
            const double period_ms = sim::to_ms(t - period_start);
            if (period_ms <= 1000.0) periods.add(period_ms);  // paper: periods < 1 s
            period_start = t;
            mcs_min = mcs_max = m;
        }
    }
    return periods;
}

struct cell_source {
    std::string name;
    chan::channel_profile profile;                      // fading mode
    std::shared_ptr<const chan::trace_data> trace;      // trace mode
};

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Fig. 18: channel stable period (MCS deviation <= 5)",
                      ">90% of stable periods exceed the estimation window (12.45 ms)");
    // FDD 600 MHz: Doppler ~4x lower than the 2.5 GHz TDD cell at the same
    // speed -> ~4x the coherence time.
    std::vector<cell_source> cells{
        {"fdd-600MHz", {"fdd-600MHz", 13.0, 4.0, sim::from_ms(140)}, nullptr},
        {"tdd-2.5GHz", {"tdd-2.5GHz", 13.0, 4.0, sim::from_ms(34)}, nullptr}};
    if (!args.trace_dir.empty()) {
        cells[0].trace =
            chan::load_trace_file(args.trace_dir + "/nr_scope_fdd600_downtown.csv");
        cells[1].trace =
            chan::load_trace_file(args.trace_dir + "/nr_scope_tdd2500_driving.csv");
        for (auto& c : cells) c.name = c.trace->name;
    }
    const sim::tick trace_len = sim::from_sec(args.quick ? 10 : 120);

    scenario::grid_runner pool(args.jobs);
    const auto results = pool.map(cells.size(), [&](std::size_t i) {
        if (cells[i].trace) {
            chan::trace_config cfg;
            cfg.data = cells[i].trace;  // loops past the trace end
            chan::trace_channel ch(cfg);
            return stable_periods([&ch](sim::tick t) { return ch.mcs(t); }, trace_len);
        }
        chan::fading_channel ch(cells[i].profile, sim::rng(97));
        return stable_periods(
            [&ch](sim::tick t) { return chan::mcs_from_snr(ch.snr_db(t)); }, trace_len);
    });

    stats::table t({"cell", "stable ms p10/p25/p50/p75/p90", "frac > 12.45 ms window"});
    auto summary = stats::json::object();
    summary.set("figure", "fig18").set("quick", args.quick);
    if (!args.trace_dir.empty()) summary.set("source", "trace");
    auto json_points = stats::json::array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& periods = results[i];
        const double frac_above = 1.0 - periods.fraction_below(12.45);
        t.add_row({cells[i].name, benchutil::box(periods),
                   stats::table::num(frac_above, 3)});
        auto jp = stats::json::object();
        jp.set("cell", cells[i].name)
            .set("stable_ms", benchutil::box_json(periods))
            .set("frac_above_window", frac_above);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags | scenario::flag_trace_dir,
                                run_bench);
}
