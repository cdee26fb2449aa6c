// The benchmark's workloads and the runs l4span_perf times.
//
// busy_cell, mixed_trace_cell and handover_shards are built here from
// scenario specs; fig09_grid is bench/perf/workloads/fig09_grid.json, an
// l4span-scenario-v1 tcp_grid document. File paths (that document, the
// traces/ replayed by mixed_trace_cell) resolve against the working
// directory, which must be the repository root. Every workload runs as a
// list of independent *points* fanned out over scenario::grid_runner: one
// cell, one sharded topology, or one cell per Fig. 9 grid coordinate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "probes.h"
#include "scenario/scenario_spec.h"
#include "scenario/topology.h"
#include "stats/sample_set.h"
#include "topo/mobility_model.h"

namespace perf {

// Fan-out threads of fig09_grid and shard workers of handover_shards.
inline constexpr int k_jobs = 4;

// `count` replicas of `spec` on UEs spec.ue, spec.ue + 1, ...
struct flow_group {
    l4span::scenario::flow_spec spec;
    int count = 1;
};

struct cell_point {
    l4span::scenario::cell_spec cell;
    std::vector<flow_group> flows;
};

struct topology_point {
    l4span::scenario::topology_spec topo;
    std::vector<flow_group> flows;
    l4span::topo::mobility_config mobility;
};

enum class harness { cell, topology, grid };

struct workload {
    harness kind = harness::cell;
    l4span::sim::tick duration = 0;
    std::vector<cell_point> cells;  // cell: one point; grid: one per coordinate
    std::optional<topology_point> topology;
    l4span::scenario::scenario_spec grid;  // grid: the document run_scenario takes
    // Simulated seeds one untraced pass cycles through. Their sim_* metrics
    // are averaged, so the seed-to-seed spread of one cell shrinks.
    int seeds_per_run = 1;
};

// A workload by name with every seed offset by `seed` (0 keeps the
// documented seeds).
struct workload_source {
    std::string name;
    std::uint64_t seed = 0;
};

// busy_cell, mixed_trace_cell, fig09_grid or handover_shards. Throws
// std::runtime_error (or scenario_error) on an unknown name or an
// unreadable file.
workload make_workload(const workload_source& src);

struct run_options {
    bool traced = false;    // timed_hook on every L4Span cell + link probes
    bool flip_obs = false;  // obs::hub toggled relative to the workload
    int jobs = k_jobs;      // topology shard workers
    std::size_t link_cap = 0;  // per-cell link_probe sample cap when traced
};

// Everything one point measured. Counters are deterministic for a seed.
// The digest covers the simulated outcome — handovers and every flow's
// delivered bytes and OWD samples — but not the event count, which
// telemetry snapshots raise without changing any outcome.
struct point_result {
    // Seconds since the rep started building its workload.
    double start_s = 0.0;      // point entered
    double sim_start_s = 0.0;  // first simulated event about to run
    double end_s = 0.0;        // point finished, results collected
    int threads = 1;           // threads simulating the point (topology: shard workers)
    bool l4span = false;       // every cell of the point runs L4Span
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::vector<std::uint64_t> shard_events;
    std::uint64_t peak_pending = 0;
    std::uint64_t slots = 0;
    std::uint64_t handovers = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t cross_packets = 0;
    std::uint64_t bottleneck_marks = 0;
    std::uint64_t marks = 0;
    std::uint64_t flows = 0;
    std::uint64_t flows_delivering = 0;  // flows with delivered bytes > 0
    // Flows with zero delivered bytes whose bearer shows the RLC AM stall
    // (see bearer_stalled in workload.cpp): a known simulator defect, not a
    // benchmark failure. Counted on single-cell points only.
    std::uint64_t flows_rlc_stalled = 0;
    std::uint64_t l4span_cells = 0;
    std::uint64_t l4span_cells_marking = 0;  // L4Span cells with marks > 0
    l4span::stats::sample_set owd_ms;     // pooled over flows
    l4span::stats::sample_set tput_mbps;  // one sample per flow
    std::vector<double> stall_frac;       // one per interactive flow
    // Traced runs only: hook accumulators summed over cells, and one link
    // probe per cell with the spec it was built from (for replay).
    hook_stats hooks;
    std::vector<std::pair<link_probe, l4span::scenario::cell_spec>> links;
};

struct rep_result {
    double wall_s = 0.0;    // first simulated event -> all points done
    double parse_s = 0.0;   // make_workload alone
    double fanout_s = 0.0;  // the points' fan-out alone
    int workers = 1;        // fan-out threads used
    std::vector<point_result> points;

    std::uint64_t digest() const;
    std::uint64_t events() const;
    // Host thread-seconds spent simulating: each point's first simulated
    // event to its end, times its threads. Per-layer self times are thread
    // time too, so on a multi-threaded workload they add up to this, not to
    // wall_s.
    double thread_seconds() const;
};

// One rep through the benchmark's own fan-out (every harness).
rep_result run_rep(const workload_source& src, const run_options& opt);

// Set-up time: building the workload (and reading its files) plus building
// every point ready to run, serially. For a one-point workload that is spec
// load to the first simulated event; for a grid it is all the set-up work
// its fan-out spreads over the workers. Points are discarded unrun;
// teardown is not timed.
double setup_trial(const workload_source& src);

// One fig09_grid rep the way a user runs it: load_scenario_file +
// scenario::run_scenario (tables on stdout). Returns the seconds the
// run_scenario call took; `summary` receives its JSON summary.
double run_scenario_rep(const workload_source& src, l4span::stats::json& summary);

// FNV-1a over a byte range, chained from `h`.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 1469598103934665603ull);

}  // namespace perf
