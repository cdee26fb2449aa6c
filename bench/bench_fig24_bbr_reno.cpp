// Fig. 24 (appendix B) — BBR (v1) and Reno under the Fig. 9 grid. Reno's
// RTT drops >97% under L4Span; BBR largely ignores ECN, so medians barely
// move while variance grows.
//
// Grid points run in parallel via scenario::grid_runner (--jobs N); the
// table prints in fixed grid order regardless of worker count.
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
    std::size_t queue;
    int ues;
    std::string cca;
    std::string chan;
    bool on;
};

benchutil::tcp_grid_result run_cell(const grid_point& p, sim::tick duration)
{
    // Fig. 24 keeps the default 19 ms one-way wired delay (~38 ms base RTT).
    return benchutil::run_tcp_grid_cell(p.cca, p.ues, p.queue, 19.0, p.chan, p.on,
                                        2000, duration);
}

}  // namespace

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    benchutil::header("Fig. 24: BBR and Reno grid",
                      "Reno OWD -97%; BBR roughly unchanged medians (no ECN react)");
    const sim::tick duration = sim::from_sec(6);
    std::vector<std::size_t> queues{16384, 256};
    std::vector<int> ue_counts{16, 64};
    std::vector<std::string> ccas{"bbr", "reno"};
    std::vector<std::string> chans{"static", "mobile"};
    if (args.quick) {
        queues = {256};
        ue_counts = {16};
        ccas = {"reno"};
        chans = {"static"};
    }

    std::vector<grid_point> points;
    for (const std::size_t queue : queues)
        for (const int ues : ue_counts)
            for (const auto& cca : ccas)
                for (const auto& chan : chans)
                    for (const bool on : {false, true})
                        points.push_back({queue, ues, cca, chan, on});

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "fig24: %zu grid points on %d worker(s)\n", points.size(),
                 pool.jobs());
    const auto results = pool.map(
        points.size(), [&](std::size_t i) { return run_cell(points[i], duration); });

    auto summary = stats::json::object();
    summary.set("figure", "fig24").set("quick", args.quick);
    auto json_points = stats::json::array();

    std::size_t idx = 0;
    for (const std::size_t queue : queues) {
        for (const int ues : ue_counts) {
            std::printf("\n--- %d UEs, RLC queue %zu SDUs, base RTT 38 ms ---\n", ues,
                        queue);
            stats::table t({"cca", "chan", "L4Span", "OWD ms p10/p25/p50/p75/p90",
                            "per-UE Mbit/s p10..p90"});
            for (const auto& cca : ccas) {
                for (const auto& chan : chans) {
                    for (const bool on : {false, true}) {
                        const auto& r = results[idx];
                        const auto& p = points[idx];
                        ++idx;
                        t.add_row({cca, chan, on ? "+" : "-", benchutil::box(r.owd_ms),
                                   benchutil::box(r.tput_mbps, 2)});
                        auto jp = stats::json::object();
                        jp.set("cca", p.cca)
                            .set("chan", p.chan)
                            .set("l4span", p.on)
                            .set("ues", p.ues)
                            .set("rlc_queue_sdus", p.queue)
                            .set("owd_ms", benchutil::box_json(r.owd_ms))
                            .set("tput_mbps", benchutil::box_json(r.tput_mbps));
                        json_points.push(std::move(jp));
                    }
                }
            }
            t.print();
        }
    }
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}
