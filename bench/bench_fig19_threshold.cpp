// Fig. 19 — Impact of the sojourn-time threshold tau_s on Prague's RTT and
// the cell rate sum, across UE counts. The paper picks 10 ms: the MAC
// scheduler needs an adequately filled buffer, so tighter thresholds cost
// throughput while looser ones only add delay.
//
// The tau_s x UE-count sweep runs in parallel via scenario::grid_runner.
#include <cstdio>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct sweep_point {
    double tau_ms;
    int ues;
};

struct sweep_result {
    double mean_rtt_ms;
    double rate_sum_mbps;
};

sweep_result run_point(const sweep_point& p)
{
    scenario::cell_spec cell;
    cell.num_ues = p.ues;
    cell.channel = "static";
    cell.cu = scenario::cu_mode::l4span;
    cell.l4s.sojourn_threshold = sim::from_ms(p.tau_ms);
    cell.seed = 89;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < p.ues; ++u) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(6));
    double rtt_sum = 0.0, rate_sum = 0.0;
    std::size_t n = 0;
    for (int h : handles) {
        rtt_sum += s.rtt_ms(h).mean() * static_cast<double>(s.rtt_ms(h).count());
        n += s.rtt_ms(h).count();
        rate_sum += s.goodput_mbps(h);
    }
    return {n ? rtt_sum / static_cast<double>(n) : 0.0, rate_sum};
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Fig. 19: sojourn threshold tau_s sweep",
                      "throughput saturates around tau_s = 10 ms while RTT keeps "
                      "growing with the threshold");
    std::vector<double> taus{1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
    std::vector<int> ue_counts{1, 4, 16, 64};
    if (args.quick) {
        taus = {10.0};
        ue_counts = {1, 4};
    }

    std::vector<sweep_point> points;
    for (const double tau_ms : taus)
        for (const int ues : ue_counts) points.push_back({tau_ms, ues});

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "fig19: %zu sweep points on %d worker(s)\n", points.size(),
                 pool.jobs());
    const auto results =
        pool.map(points.size(), [&](std::size_t i) { return run_point(points[i]); });

    stats::table t({"tau_s (ms)", "UEs", "mean RTT (ms)", "rate sum (Mbit/s)"});
    auto summary = stats::json::object();
    summary.set("figure", "fig19").set("quick", args.quick);
    auto json_points = stats::json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        const auto& r = results[i];
        t.add_row({stats::table::num(p.tau_ms, 0), std::to_string(p.ues),
                   stats::table::num(r.mean_rtt_ms, 1),
                   stats::table::num(r.rate_sum_mbps, 1)});
        auto jp = stats::json::object();
        jp.set("tau_ms", p.tau_ms)
            .set("ues", p.ues)
            .set("mean_rtt_ms", r.mean_rtt_ms)
            .set("rate_sum_mbps", r.rate_sum_mbps);
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
