// Fig. 17 — RLC queue length CDFs under L4Span for Prague and CUBIC in 16-
// and 64-UE cells, static and mobile channels. The paper's point: the
// classic queue never drains to zero (no under-utilization) while the L4S
// queue stays low.
//
// The 8 grid points are independent cells fanned out over
// scenario::grid_runner; stdout stays byte-identical for any worker count.
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct grid_point {
    int ues;
    std::string cca;
    std::string chan;
};

struct cdf_result {
    stats::sample_set queue_sdus;
    double frac_at_zero = 0.0;
};

cdf_result run_cell(const grid_point& p, sim::tick duration)
{
    scenario::cell_spec cell;
    cell.num_ues = p.ues;
    cell.channel = p.chan;
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 83;
    scenario::cell_scenario s(cell);
    for (int u = 0; u < p.ues; ++u) {
        scenario::flow_spec f;
        f.cca = p.cca;
        f.ue = u;
        f.max_cwnd = 1536 * 1024;
        s.add_flow(f);
    }
    s.run(duration);

    cdf_result r;
    double zero = 0.0;
    std::size_t n = 0;
    for (int u = 0; u < p.ues; ++u) {
        for (double v : s.rlc_queue_sdus(u).raw()) {
            r.queue_sdus.add(v);
            if (v < 0.5) zero += 1.0;
            ++n;
        }
    }
    r.frac_at_zero = n ? zero / static_cast<double>(n) : 0.0;
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Fig. 17: RLC queue CDFs under L4Span",
                      "L4S queues stay in the ~10 SDU range; classic queues keep "
                      "a working buffer and rarely reach zero");
    std::vector<int> ue_counts{16, 64};
    std::vector<std::string> ccas{"prague", "cubic"};
    std::vector<std::string> chans{"static", "mobile"};
    if (args.quick) {  // 2-point CI slice: both classes, one small cell
        ue_counts = {16};
        chans = {"static"};
    }
    const sim::tick duration = sim::from_sec(6);

    std::vector<grid_point> points;
    for (const int ues : ue_counts)
        for (const auto& cca : ccas)
            for (const auto& chan : chans) points.push_back({ues, cca, chan});

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "fig17: %zu grid points on %d worker(s)\n", points.size(),
                 pool.jobs());
    const auto results = pool.map(
        points.size(), [&](std::size_t i) { return run_cell(points[i], duration); });

    auto summary = stats::json::object();
    summary.set("figure", "fig17").set("quick", args.quick);
    auto json_points = stats::json::array();

    stats::table t({"UEs", "cca", "chan", "queue SDUs p10/p25/p50/p75/p90",
                    "fraction at 0"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        const auto& r = results[i];
        t.add_row({std::to_string(p.ues), p.cca, p.chan,
                   benchutil::box(r.queue_sdus, 0),
                   stats::table::num(r.frac_at_zero, 3)});
        auto jp = stats::json::object();
        jp.set("ues", p.ues)
            .set("cca", p.cca)
            .set("chan", p.chan)
            .set("queue_sdus", benchutil::box_json(r.queue_sdus))
            .set("frac_at_zero", r.frac_at_zero);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
