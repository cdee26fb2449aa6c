// Multi-cell handover grid: cells x UEs-per-cell x handover rate, the
// NextG deployment workload the paper's per-cell design targets — UEs
// moving between L4Span cells under load, marking state migrating with
// them, and cells far beyond 64 UEs.
//
// Unlike the figure benches, --jobs here controls the *sharded* execution
// of each point (one sim::event_loop per cell, synchronized at slot
// boundaries): grid points run one after another, each using up to
// min(jobs, cells) worker threads. The JSON summary is byte-identical for
// any --jobs value; wall-clock per point goes to stderr so serial vs
// sharded runs can be compared without perturbing the artifact.
#include <chrono>
#include <cstdio>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/grid_runner.h"
#include "scenario/topology.h"
#include "stats/json.h"
#include "topo/mobility_model.h"

using namespace l4span;

namespace {

struct grid_point {
    int cells;
    int ues_per_cell;
    double ho_per_ue_per_sec;
};

struct point_result {
    stats::sample_set owd_ms;     // pooled over all flows
    stats::sample_set tput_mbps;  // one sample per flow
    std::uint64_t ho_started = 0;
    std::uint64_t ho_completed = 0;
    std::uint64_t events = 0;
    double wall_sec = 0.0;  // stderr only: not part of the JSON artifact
};

point_result run_point(const grid_point& p, sim::tick duration, int jobs)
{
    const auto wall_start = std::chrono::steady_clock::now();
    scenario::topology_spec spec;
    spec.num_cells = p.cells;
    spec.ues_per_cell = p.ues_per_cell;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "mobile";
    spec.cell.seed = 97;
    spec.jobs = jobs;
    scenario::topology topo(spec);

    std::vector<int> handles;
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = ue;
        f.max_cwnd = 1536 * 1024;
        handles.push_back(topo.add_flow(f));
    }

    topo::mobility_config mob;
    mob.num_cells = p.cells;
    mob.ues_per_cell = p.ues_per_cell;
    mob.handovers_per_ue_per_sec = p.ho_per_ue_per_sec;
    mob.start = sim::from_ms(500);
    mob.end = duration;
    mob.seed = 29;
    topo.apply(topo::mobility_model(mob).schedule());

    topo.run(duration);

    point_result r;
    for (const int h : handles) {
        for (double v : topo.owd_ms(h).raw()) r.owd_ms.add(v);
        r.tput_mbps.add(topo.goodput_mbps(h));
    }
    r.ho_started = topo.handovers_started();
    r.ho_completed = topo.handovers_completed();
    r.events = topo.processed_events();
    r.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               wall_start)
                     .count();
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Multi-cell handover grid (topology layer)",
                      "L4Span marking state survives X2/Xn handover: per-UE "
                      "OWD stays in the ~10 ms regime under mobility; up to "
                      "8 cells / 256-UE cells run sharded across threads");
    std::vector<grid_point> points{
        {2, 16, 0.0},   // no mobility: the multi-cell baseline
        {2, 16, 0.5},
        {4, 16, 0.5},
        {4, 64, 0.2},   // beyond the paper's largest cell
        {4, 256, 0.1},  // the many-UE sharding showcase
        {8, 64, 0.2},   // 8-cell deployment: one more notch up the scale axis
    };
    sim::tick duration = sim::from_sec(6);
    if (args.quick) {
        points = {{2, 4, 1.0}};
        duration = sim::from_sec(3);
    }
    const int jobs = args.jobs > 0 ? args.jobs : scenario::default_jobs();
    std::fprintf(stderr, "mc_handover: %zu points, sharded over up to %d worker(s)\n",
                 points.size(), jobs);

    auto summary = stats::json::object();
    summary.set("figure", "mc_handover").set("quick", args.quick);
    auto json_points = stats::json::array();

    stats::table t({"cells", "UEs/cell", "HO/UE/s", "handovers",
                    "OWD ms p10/p25/p50/p75/p90", "per-UE Mbit/s p50", "sim events"});
    for (const auto& p : points) {
        const auto r = run_point(p, duration, jobs);
        std::fprintf(stderr, "  %d cells x %d UEs (rate %.1f): %.1f s wall, %llu events\n",
                     p.cells, p.ues_per_cell, p.ho_per_ue_per_sec, r.wall_sec,
                     static_cast<unsigned long long>(r.events));
        t.add_row({std::to_string(p.cells), std::to_string(p.ues_per_cell),
                   stats::table::num(p.ho_per_ue_per_sec, 1),
                   std::to_string(r.ho_completed), benchutil::box(r.owd_ms),
                   stats::table::num(r.tput_mbps.median(), 2),
                   std::to_string(r.events)});
        auto jp = stats::json::object();
        jp.set("cells", p.cells)
            .set("ues_per_cell", p.ues_per_cell)
            .set("ho_per_ue_per_sec", p.ho_per_ue_per_sec)
            .set("handovers_started", r.ho_started)
            .set("handovers_completed", r.ho_completed)
            .set("owd_ms", benchutil::box_json(r.owd_ms))
            .set("tput_mbps", benchutil::box_json(r.tput_mbps))
            .set("sim_events", r.events);
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
