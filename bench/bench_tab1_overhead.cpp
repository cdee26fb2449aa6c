// Table 1 — L4Span's CPU and memory overhead relative to the RAN it embeds
// in, in idle (no traffic) and busy (64 concurrent downloads) states.
// Substitution: the paper compares srsRAN process CPU%/RSS on an i7-13700K;
// we compare the wall-clock cost of simulating the identical cell and the
// resident state of the DU queues, with and without the L4Span layer.
//
// A preliminary section microbenchmarks the event loop itself — the
// per-event scheduling overhead everything else multiplies (the pooled-slab
// rewrite's 2x-improvement criterion is measured here).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "sim/event_loop.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct run_cost {
    double wall_seconds;
    std::uint64_t events;
    std::size_t ran_state;
    std::size_t l4span_state;
};

run_cost measure(bool busy, bool with_l4span, int ues, double sim_seconds,
                 bool traced = false)
{
    scenario::cell_spec cell;
    cell.num_ues = ues;
    cell.channel = "static";
    cell.cu = with_l4span ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = 103;
    // In-memory telemetry only (no out_prefix): the traced row pays the
    // ring writes and metric sampling but no file IO.
    cell.obs.enabled = traced;
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

double median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

// Robust off/on comparison. One discarded warmup per config (page-cache /
// allocator / branch-predictor settling), then `reps` *interleaved*
// off,on,off,on,... runs: a single sample routinely swings tens of percent
// on a shared machine — enough to fabricate CPU "overheads" (or savings)
// on the idle row, where the real difference is near zero — and sequential
// blocks of runs additionally alias slow load drift into the comparison.
// Wall times are the per-config medians; the overhead is the median of the
// per-rep ratios, so both sides of each ratio saw the same machine.
// The simulation itself is deterministic, so events and state sizes are
// taken from the last run of each config.
struct paired_cost {
    run_cost off;
    run_cost on;
    double cpu_overhead_pct = 0.0;
    // Noise-floor wall times: the workload is deterministic, so every rep
    // does identical work and the fastest rep is the one the machine
    // disturbed least — the standard estimator for per-event cost.
    double off_min_wall = 0.0;
    double on_min_wall = 0.0;
};

template <typename OffFn, typename OnFn>
paired_cost measure_paired_fns(OffFn off_fn, OnFn on_fn, int reps)
{
    (void)off_fn();  // warmups, discarded
    (void)on_fn();
    std::vector<double> walls_off, walls_on, ratios;
    paired_cost pc;
    for (int i = 0; i < reps; ++i) {
        pc.off = off_fn();
        pc.on = on_fn();
        walls_off.push_back(pc.off.wall_seconds);
        walls_on.push_back(pc.on.wall_seconds);
        const double off_pe = pc.off.wall_seconds / static_cast<double>(pc.off.events);
        const double on_pe = pc.on.wall_seconds / static_cast<double>(pc.on.events);
        ratios.push_back(on_pe / off_pe);
    }
    pc.off_min_wall = *std::min_element(walls_off.begin(), walls_off.end());
    pc.on_min_wall = *std::min_element(walls_on.begin(), walls_on.end());
    pc.off.wall_seconds = median(walls_off);
    pc.on.wall_seconds = median(walls_on);
    pc.cpu_overhead_pct = 100.0 * (median(ratios) - 1.0);
    return pc;
}

paired_cost measure_paired(bool busy, int ues, double sim_seconds, int reps)
{
    return measure_paired_fns(
        [=] { return measure(busy, false, ues, sim_seconds); },
        [=] { return measure(busy, true, ues, sim_seconds); }, reps);
}

// obs:: tracing cost on the busy L4Span cell: the disabled side still pays
// the null-tracer branch at every trace site, the enabled side also writes
// the 32-byte ring events and samples the metric registry.
paired_cost measure_obs_paired(int ues, double sim_seconds, int reps)
{
    return measure_paired_fns(
        [=] { return measure(true, true, ues, sim_seconds, false); },
        [=] { return measure(true, true, ues, sim_seconds, true); }, reps);
}

// --- event-loop scheduling overhead (pure hot path, no RAN work) ------------

double ns_per_event(void (*body)(sim::event_loop&, int), int n)
{
    sim::event_loop loop;
    const auto t0 = std::chrono::steady_clock::now();
    body(loop, n);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
}

// Handler work is a single add through a captured pointer, so the numbers
// below are scheduling overhead, not handler cost.
std::uint64_t g_acc = 0;

void schedule_fire(sim::event_loop& loop, int n)
{
    std::uint64_t* p = &g_acc;
    for (int i = 0; i < n; ++i) {
        loop.schedule_at(i, [p, i] { *p += static_cast<std::uint64_t>(i); });
        loop.run_one();
    }
}

void schedule_cancel(sim::event_loop& loop, int n)
{
    std::uint64_t* p = &g_acc;
    for (int i = 0; i < n; ++i) {
        const auto id = loop.schedule_at(i + 1000, [p] { *p += 1; });
        loop.cancel(id);
    }
    loop.run();
}

void churn_deep(sim::event_loop& loop, int n)
{
    std::uint64_t* p = &g_acc;
    for (int i = 0; i < 1024; ++i) loop.schedule_at(i, [p] { *p += 1; });
    for (int i = 0; i < n; ++i) {
        loop.schedule_at(loop.now() + 1024, [p] { *p += 1; });
        loop.run_one();
    }
}

}  // namespace

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const int ues = args.quick ? 16 : 64;
    const double sim_seconds = args.quick ? 2.0 : 5.0;
    const int micro_n = args.quick ? 200'000 : 2'000'000;

    benchutil::header("Table 1: CPU and memory overhead",
                      "paper: +<2% CPU and +<0.02% memory over vanilla srsRAN");

    auto summary = stats::json::object();
    summary.set("figure", "tab1").set("quick", args.quick);

    std::printf("\nEvent-loop scheduling overhead (pooled slab + SBO callbacks;"
                " baseline\nshared_ptr/std::function design: 84/510/88 ns):\n");
    stats::table micro({"micro", "ns/event"});
    auto micro_json = stats::json::object();
    const struct {
        const char* name;
        void (*body)(sim::event_loop&, int);
    } micros[] = {{"schedule+fire", schedule_fire},
                  {"schedule+cancel", schedule_cancel},
                  {"churn @1024 pending", churn_deep}};
    for (const auto& m : micros) {
        (void)ns_per_event(m.body, micro_n / 10);  // warmup, discarded
        std::vector<double> samples;
        for (int i = 0; i < 3; ++i) samples.push_back(ns_per_event(m.body, micro_n));
        std::sort(samples.begin(), samples.end());
        const double ns = samples[1];
        micro.add_row({m.name, stats::table::num(ns, 1)});
        micro_json.set(m.name, ns);
    }
    micro.print();
    summary.set("event_loop_ns", std::move(micro_json));

    stats::table t({"state", "L4Span", "wall (s)", "sim events", "ns/event",
                    "RAN state (kB)", "L4Span state (kB)", "CPU overhead", "mem overhead"});
    auto rows_json = stats::json::array();
    for (const bool busy : {false, true}) {
        const auto pc = measure_paired(busy, ues, sim_seconds, args.quick ? 3 : 5);
        for (const bool on : {false, true}) {
            const run_cost& c = on ? pc.on : pc.off;
            // ns/event from the min wall (see paired_cost); the wall column
            // stays the median, which is what a rerun will typically see.
            const double min_wall = on ? pc.on_min_wall : pc.off_min_wall;
            const double per_event =
                c.events ? min_wall * 1e9 / static_cast<double>(c.events) : 0.0;
            std::string cpu = "-", mem = "-";
            double cpu_pct = 0.0, mem_pct = 0.0;
            if (on) {
                // CPU: per-event processing cost ratio over the interleaved
                // pairs (with L4Span the shallow queues also shrink the
                // event count itself, which only helps). Memory: L4Span's
                // state over the RAN's.
                cpu_pct = pc.cpu_overhead_pct;
                mem_pct = pc.off.ran_state > 0
                              ? 100.0 * static_cast<double>(c.l4span_state) /
                                    static_cast<double>(pc.off.ran_state)
                              : 0.0;
                cpu = stats::table::num(cpu_pct, 1) + "%";
                mem = stats::table::num(mem_pct, 2) + "%";
            }
            t.add_row({busy ? "busy (" + std::to_string(ues) + " UE DL)" : "idle",
                       on ? "+" : "-",
                       stats::table::num(c.wall_seconds, 3), std::to_string(c.events),
                       stats::table::num(per_event, 0),
                       std::to_string(c.ran_state / 1024),
                       std::to_string(c.l4span_state / 1024), cpu, mem});
            auto jr = stats::json::object();
            jr.set("state", busy ? "busy" : "idle")
                .set("l4span", on)
                .set("wall_seconds", c.wall_seconds)
                .set("sim_events", c.events)
                .set("ns_per_event", per_event)
                .set("ran_state_bytes", c.ran_state)
                .set("l4span_state_bytes", c.l4span_state);
            if (on) jr.set("cpu_overhead_pct", cpu_pct).set("mem_overhead_pct", mem_pct);
            rows_json.push(std::move(jr));
        }
    }
    t.print();
    summary.set("rows", std::move(rows_json));

    // obs:: telemetry overhead on the same busy cell: tracing off (every
    // trace site pays one null-pointer branch) vs tracing on (ring writes
    // + periodic metric snapshots, in memory only).
    const auto oc = measure_obs_paired(ues, sim_seconds, args.quick ? 3 : 5);
    const double obs_off_pe = oc.off.events
        ? oc.off_min_wall * 1e9 / static_cast<double>(oc.off.events) : 0.0;
    const double obs_on_pe = oc.on.events
        ? oc.on_min_wall * 1e9 / static_cast<double>(oc.on.events) : 0.0;
    std::printf("\nobs:: tracing overhead (busy L4Span cell, %d UE DL):\n", ues);
    stats::table ot({"tracing", "wall (s)", "sim events", "ns/event", "overhead"});
    ot.add_row({"-", stats::table::num(oc.off.wall_seconds, 3),
                std::to_string(oc.off.events), stats::table::num(obs_off_pe, 0), "-"});
    ot.add_row({"+", stats::table::num(oc.on.wall_seconds, 3),
                std::to_string(oc.on.events), stats::table::num(obs_on_pe, 0),
                stats::table::num(oc.cpu_overhead_pct, 1) + "%"});
    ot.print();
    auto obs_json = stats::json::object();
    obs_json.set("ns_per_event_off", obs_off_pe)
        .set("ns_per_event_on", obs_on_pe)
        .set("overhead_pct", oc.cpu_overhead_pct);
    summary.set("obs_overhead", std::move(obs_json));

    std::puts("\nNote: with L4Span the busy RAN holds far less queued state — the");
    std::puts("shallow RLC queues are themselves a memory win for the DU.");
    return benchutil::finish(args, summary);
}
