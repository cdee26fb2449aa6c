// Trace-driven channel grid: DCI trace x congestion controller x transport,
// each point a 2-cell L4Span topology whose UEs replay NR-Scope-style
// per-slot (MCS, PRB) records instead of the synthetic fading model — the
// paper's Fig. 18 methodology applied to the full end-to-end stack, with an
// X2/Xn handover mid-run to exercise trace-cursor migration.
//
// Like bench_mc_handover, --jobs selects the *sharded* execution of each
// point (one event loop per cell); points run sequentially and stdout/JSON
// are byte-identical for any --jobs value. By default the traces come from
// the deterministic built-in generator (chan::synth_trace); pass
// `--trace-dir traces` to replay the committed NR-Scope-style files (or any
// directory holding the same file names).
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "scenario/bench_format.h"
#include "chan/trace_channel.h"
#include "chan/trace_io.h"
#include "scenario/grid_runner.h"
#include "scenario/topology.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct trace_source {
    std::string label;
    std::shared_ptr<const chan::trace_data> data;
};

std::vector<trace_source> make_traces(const std::string& trace_dir)
{
    std::vector<trace_source> out;
    if (!trace_dir.empty()) {
        for (const char* file : {"nr_scope_fdd600_downtown.csv",
                                 "nr_scope_tdd2500_driving.csv",
                                 "synthetic_squarewave.csv"}) {
            auto t = chan::load_trace_file(trace_dir + "/" + file);
            out.push_back({t->name, std::move(t)});
        }
        return out;
    }
    // Built-in equivalents of the committed files: same cells, same knobs,
    // generated in-process so the bench is self-contained.
    chan::synth_trace_spec fdd;
    fdd.name = "synth-fdd600";
    fdd.seed = 0x600f;
    fdd.slots = 4000;
    fdd.slot = sim::from_ms(1);
    fdd.coherence = sim::from_ms(140);
    chan::synth_trace_spec tdd = fdd;
    tdd.name = "synth-tdd2500";
    tdd.seed = 0x25d0;
    tdd.coherence = sim::from_ms(34);
    chan::synth_trace_spec calm = fdd;
    calm.name = "synth-static";
    calm.seed = 0x57a7;
    calm.sigma_db = 0.8;
    calm.coherence = sim::from_ms(500);
    for (const auto& spec : {fdd, tdd, calm})
        out.push_back({spec.name,
                       std::make_shared<const chan::trace_data>(chan::synth_trace(spec))});
    return out;
}

struct point_result {
    stats::sample_set owd_ms;     // pooled over all flows
    stats::sample_set tput_mbps;  // one sample per flow
    std::uint64_t handovers = 0;
    std::uint64_t marks = 0;
    std::uint64_t events = 0;
    double wall_sec = 0.0;  // stderr only
};

point_result run_point(const trace_source& trace, const std::string& cca,
                       sim::tick duration, int jobs)
{
    const auto wall_start = std::chrono::steady_clock::now();
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 2;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "trace";
    spec.cell.seed = 31;
    spec.jobs = jobs;
    // Both UEs of a cell replay the same trace, offset by 1 s so their
    // capacity dips do not line up (the multi-UE NR-Scope methodology).
    chan::trace_config a;
    a.data = trace.data;
    chan::trace_config b = a;
    b.offset = sim::from_sec(1);
    spec.cell.ue_traces = {a, b};

    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = cca;
        f.ue = ue;
        f.max_cwnd = 1536 * 1024;
        handles.push_back(topo.add_flow(f));
    }
    // One handover each way, mid-run: the trace cursors migrate with them.
    topo.schedule_handover(duration / 3, 0, 1);
    topo.schedule_handover(duration / 2, 2, 0);
    topo.run(duration);

    point_result r;
    for (const int h : handles) {
        for (double v : topo.owd_ms(h).raw()) r.owd_ms.add(v);
        r.tput_mbps.add(topo.goodput_mbps(h));
    }
    r.handovers = topo.handovers_completed();
    for (int c = 0; c < topo.num_cells(); ++c)
        if (const core::l4span* l4s = topo.cell_at(c).l4span_layer())
            r.marks += l4s->marks();
    r.events = topo.processed_events();
    r.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               wall_start)
                     .count();
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Trace-driven channel replay grid (DCI trace x CCA)",
                      "Fig. 18 methodology end-to-end: L4Span marking driven by "
                      "replayed NR-Scope-style DCI traces, OWD staying in the "
                      "~10 ms regime across capacity swings and handover");
    const auto traces = make_traces(args.trace_dir);
    std::vector<std::string> ccas{"prague", "cubic", "quic-prague"};
    sim::tick duration = sim::from_sec(4);

    std::vector<std::pair<std::size_t, std::size_t>> grid;  // (trace, cca)
    for (std::size_t t = 0; t < traces.size(); ++t)
        for (std::size_t c = 0; c < ccas.size(); ++c) grid.emplace_back(t, c);
    if (args.quick) {
        grid = {{0, 0}, {1, 2}};
        duration = sim::from_sec(3);
    }
    const int jobs = args.jobs > 0 ? args.jobs : scenario::default_jobs();
    std::fprintf(stderr, "trace_replay: %zu points, sharded over up to %d worker(s)\n",
                 grid.size(), jobs);

    auto summary = stats::json::object();
    summary.set("figure", "trace_replay").set("quick", args.quick);
    summary.set("source", args.trace_dir.empty() ? "synthetic" : "trace-dir");
    auto json_points = stats::json::array();

    stats::table t({"trace", "cca", "handovers", "OWD ms p10/p25/p50/p75/p90",
                    "per-UE Mbit/s p50", "CU marks", "sim events"});
    for (const auto& [ti, ci] : grid) {
        const auto r = run_point(traces[ti], ccas[ci], duration, jobs);
        std::fprintf(stderr, "  %s x %s: %.1f s wall, %llu events\n",
                     traces[ti].label.c_str(), ccas[ci].c_str(), r.wall_sec,
                     static_cast<unsigned long long>(r.events));
        t.add_row({traces[ti].label, ccas[ci], std::to_string(r.handovers),
                   benchutil::box(r.owd_ms), stats::table::num(r.tput_mbps.median(), 2),
                   std::to_string(r.marks), std::to_string(r.events)});
        auto jp = stats::json::object();
        jp.set("trace", traces[ti].label)
            .set("cca", ccas[ci])
            .set("handovers", r.handovers)
            .set("owd_ms", benchutil::box_json(r.owd_ms))
            .set("tput_mbps", benchutil::box_json(r.tput_mbps))
            .set("cu_marks", r.marks)
            .set("sim_events", r.events);
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
