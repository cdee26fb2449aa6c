// Fig. 13 — Interactive-video congestion control (SCReAM and UDP Prague)
// over 8 concurrent UEs under static / pedestrian / vehicular channels,
// with and without L4Span. These UDP flows use the downlink-marking
// fallback (no short-circuiting), as in the paper.
//
// The 12 grid points are independent cells; they fan out over
// scenario::grid_runner and print in fixed grid order, so stdout is
// byte-identical for any worker count.
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
    std::string algo;
    std::string chan;
    bool on;
};

struct point_result {
    stats::sample_set rtt_ms;
    stats::sample_set tput_mbps;
};

point_result run_cell(const grid_point& p, sim::tick duration)
{
    scenario::cell_spec cell;
    cell.num_ues = 8;
    cell.channel = p.chan;
    cell.cu = p.on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = 53;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < 8; ++u) {
        scenario::flow_spec f;
        f.cca = p.algo;
        f.ue = u;
        f.wired_owd_ms = 5.0;  // local media server
        handles.push_back(s.add_flow(f));
    }
    s.run(duration);

    point_result r;
    for (int h : handles) {
        for (double v : s.rtt_ms(h).raw()) r.rtt_ms.add(v);
        r.tput_mbps.add(s.goodput_mbps(h));
    }
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Fig. 13: SCReAM and UDP Prague with L4Span",
                      "RTT reductions: UDP Prague 76/38/45%, SCReAM 13/11/38% "
                      "(static/pedestrian/vehicular) at modest throughput cost");
    std::vector<std::string> algos{"udp-prague", "scream"};
    std::vector<std::string> chans{"static", "pedestrian", "vehicular"};
    if (args.quick) {  // 2-point CI slice: one cell, with and without L4Span
        algos = {"udp-prague"};
        chans = {"static"};
    }
    const sim::tick duration = sim::from_sec(10);

    std::vector<grid_point> points;
    for (const auto& algo : algos)
        for (const auto& chan : chans)
            for (const bool on : {false, true}) points.push_back({algo, chan, on});

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "fig13: %zu grid points on %d worker(s)\n", points.size(),
                 pool.jobs());
    const auto results = pool.map(
        points.size(), [&](std::size_t i) { return run_cell(points[i], duration); });

    auto summary = stats::json::object();
    summary.set("figure", "fig13").set("quick", args.quick);
    auto json_points = stats::json::array();

    stats::table t({"algo", "channel", "L4Span", "RTT ms p10/p25/p50/p75/p90",
                    "per-UE Mbit/s p50", "RTT reduction"});
    std::size_t idx = 0;
    for (const auto& algo : algos) {
        for (const auto& chan : chans) {
            double base_rtt = 0.0;
            for (const bool on : {false, true}) {
                const auto& r = results[idx];
                ++idx;
                std::string reduction = "-";
                double reduction_pct = 0.0;
                if (!on) {
                    base_rtt = r.rtt_ms.median();
                } else if (base_rtt > 0) {
                    reduction_pct = 100.0 * (1.0 - r.rtt_ms.median() / base_rtt);
                    reduction = stats::table::num(reduction_pct, 1) + "%";
                }
                t.add_row({algo, chan, on ? "+" : "-", benchutil::box(r.rtt_ms),
                           stats::table::num(r.tput_mbps.median(), 2), reduction});
                auto jp = stats::json::object();
                jp.set("algo", algo)
                    .set("chan", chan)
                    .set("l4span", on)
                    .set("rtt_ms", benchutil::box_json(r.rtt_ms))
                    .set("tput_mbps_p50", r.tput_mbps.median());
                if (on) jp.set("rtt_reduction_pct", reduction_pct);
                json_points.push(std::move(jp));
            }
        }
    }
    t.print();
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
