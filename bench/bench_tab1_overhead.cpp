// Table 1 — L4Span's CPU and memory overhead relative to the RAN it embeds
// in, in idle (no traffic) and busy (64 concurrent downloads) states.
// Substitution: the paper compares srsRAN process CPU%/RSS on an i7-13700K;
// we compare the wall-clock cost of simulating the identical cell and the
// resident state of the DU queues, with and without the L4Span layer.
//
// The simulator's own speed (event loop, tracing overhead, per-layer cost)
// is measured by bench/perf, not here.
#include <chrono>
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct run_cost {
    double wall_seconds;
    std::uint64_t events;
    std::size_t ran_state;
    std::size_t l4span_state;

    double ns_per_event() const
    {
        return events ? wall_seconds * 1e9 / static_cast<double>(events) : 0.0;
    }
};

run_cost measure(bool busy, bool with_l4span, int ues, double sim_seconds)
{
    scenario::cell_spec cell;
    cell.num_ues = ues;
    cell.channel = "static";
    cell.cu = with_l4span ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = 103;
    scenario::cell_scenario s(cell);
    if (busy) {
        for (int u = 0; u < ues; ++u) {
            scenario::flow_spec f;
            f.cca = "prague";
            f.ue = u;
            s.add_flow(f);
        }
    }
    const auto t0 = std::chrono::steady_clock::now();
    s.run(sim::from_sec(sim_seconds));
    const auto t1 = std::chrono::steady_clock::now();
    run_cost c;
    c.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    c.events = s.loop().processed();
    c.ran_state = s.gnb().resident_state_bytes();
    c.l4span_state = s.l4span_layer() ? s.l4span_layer()->resident_state_bytes() : 0;
    return c;
}

// Off/on comparison by one estimator. One discarded warmup per config, then
// `reps` interleaved off,on,off,on,... runs, so slow load drift hits both
// sides alike. The workload is deterministic, so every rep does identical
// work and the fastest rep is the one the machine disturbed least: each
// side keeps its minimum wall time, and the wall column, ns/event and the
// CPU overhead all derive from those two minima. Events and state sizes are
// identical across reps.
struct paired_cost {
    run_cost off;
    run_cost on;
    double cpu_overhead_pct = 0.0;
};

paired_cost measure_paired(bool busy, int ues, double sim_seconds, int reps)
{
    (void)measure(busy, false, ues, sim_seconds);  // warmups, discarded
    (void)measure(busy, true, ues, sim_seconds);
    paired_cost pc;
    for (int i = 0; i < reps; ++i) {
        const run_cost off = measure(busy, false, ues, sim_seconds);
        const run_cost on = measure(busy, true, ues, sim_seconds);
        if (i == 0 || off.wall_seconds < pc.off.wall_seconds) pc.off = off;
        if (i == 0 || on.wall_seconds < pc.on.wall_seconds) pc.on = on;
    }
    const double off_pe = pc.off.ns_per_event();
    pc.cpu_overhead_pct = off_pe > 0.0 ? 100.0 * (pc.on.ns_per_event() / off_pe - 1.0) : 0.0;
    return pc;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    const int ues = args.quick ? 16 : 64;
    const double sim_seconds = args.quick ? 2.0 : 5.0;

    benchutil::header("Table 1: CPU and memory overhead",
                      "paper: +<2% CPU and +<0.02% memory over vanilla srsRAN");

    auto summary = stats::json::object();
    summary.set("figure", "tab1").set("quick", args.quick);

    stats::table t({"state", "L4Span", "wall (s)", "sim events", "ns/event",
                    "RAN state (kB)", "L4Span state (kB)", "CPU overhead", "mem overhead"});
    auto rows_json = stats::json::array();
    for (const bool busy : {false, true}) {
        const auto pc = measure_paired(busy, ues, sim_seconds, args.quick ? 3 : 5);
        for (const bool on : {false, true}) {
            const run_cost& c = on ? pc.on : pc.off;
            std::string cpu = "-", mem = "-";
            double mem_pct = 0.0;
            if (on) {
                // CPU: per-event processing cost ratio (with L4Span the
                // shallow queues also shrink the event count itself, which
                // only helps). Memory: L4Span's state over the RAN's.
                mem_pct = pc.off.ran_state > 0
                              ? 100.0 * static_cast<double>(c.l4span_state) /
                                    static_cast<double>(pc.off.ran_state)
                              : 0.0;
                cpu = stats::table::num(pc.cpu_overhead_pct, 1) + "%";
                mem = stats::table::num(mem_pct, 2) + "%";
            }
            t.add_row({busy ? "busy (" + std::to_string(ues) + " UE DL)" : "idle",
                       on ? "+" : "-",
                       stats::table::num(c.wall_seconds, 3), std::to_string(c.events),
                       stats::table::num(c.ns_per_event(), 0),
                       std::to_string(c.ran_state / 1024),
                       std::to_string(c.l4span_state / 1024), cpu, mem});
            auto jr = stats::json::object();
            jr.set("state", busy ? "busy" : "idle")
                .set("l4span", on)
                .set("wall_seconds", c.wall_seconds)
                .set("sim_events", c.events)
                .set("ns_per_event", c.ns_per_event())
                .set("ran_state_bytes", c.ran_state)
                .set("l4span_state_bytes", c.l4span_state);
            if (on)
                jr.set("cpu_overhead_pct", pc.cpu_overhead_pct)
                    .set("mem_overhead_pct", mem_pct);
            rows_json.push(std::move(jr));
        }
    }
    t.print();
    summary.set("rows", std::move(rows_json));

    std::puts("\nNote: with L4Span the busy RAN holds far less queued state — the");
    std::puts("shallow RLC queues are themselves a memory win for the DU.");
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
