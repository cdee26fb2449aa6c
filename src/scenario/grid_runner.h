// Parallel experiment runner for scenario grids.
//
// The paper's figure grids (Fig. 9/24/19/...) are hundreds of fully
// independent cell_scenario runs: each grid point owns its own event_loop
// and RNG, so there is no shared mutable state and points can execute on any
// thread. grid_runner fans the points out over a std::thread pool and
// returns results indexed by grid coordinate, so downstream table/JSON
// output is byte-identical regardless of completion order or thread count.
//
// Thread-safety contract: the job callable runs on a pool thread and must
// only touch state it owns (build the scenario inside the job). `jobs == 1`
// runs everything inline on the calling thread — exactly the historical
// serial behavior.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace l4span::scenario {

// Worker count resolution: explicit value if > 0, else the
// L4SPAN_BENCH_JOBS environment variable, else hardware concurrency.
int default_jobs();

class grid_runner {
public:
    // jobs == 0 resolves through default_jobs().
    explicit grid_runner(int jobs = 0);

    int jobs() const { return jobs_; }

    // Runs fn(i) for every i in [0, n). Results come back in index order.
    // The first exception thrown by any job is rethrown on the caller's
    // thread after all workers drain.
    template <typename Fn>
    auto map(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{}))>
    {
        using result = decltype(fn(std::size_t{}));
        std::vector<std::optional<result>> slots(n);
        run_indexed(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<result> out;
        out.reserve(n);
        for (auto& s : slots) out.push_back(std::move(*s));
        return out;
    }

    // Index fan-out without result collection (jobs write their own slots).
    void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

private:
    int jobs_;
};

// --- shared CLI plumbing for the figure benches -----------------------------

struct bench_args {
    int jobs = 0;            // --jobs N (0 → default_jobs())
    bool quick = false;      // --quick: tiny grid slice for CI perf-smoke
    std::string json_path;   // --json PATH: write the per-figure summary
    std::string trace_dir;   // --trace-dir DIR: replay DCI traces from DIR
                             // (bench_trace_replay, bench_fig18_coherence)
    bool impair_noop = false;  // --impair-noop: mount all-off impairment
                               // stages (pass-through fast-path check; the
                               // output must be byte-identical)
    std::string obs_out;     // --obs-out PREFIX: enable the obs:: telemetry
                             // hub and write PREFIX.metrics.jsonl /
                             // PREFIX.trace.jsonl (+ incident dumps). The
                             // simulated results must be byte-identical
                             // with or without it.
    std::string export_scenario;  // --export-scenario PATH: benches with a
                                  // scenario_spec-backed grid dump their
                                  // compiled-in scenario (after --quick
                                  // slicing) to PATH as JSON and exit
                                  // instead of running. Other benches
                                  // accept and ignore the flag.
};

// Parses --jobs N / --quick / --json PATH / --trace-dir DIR /
// --impair-noop / --obs-out PREFIX (and -jN).
// Unknown arguments are rejected with a usage message on stderr and
// exit(2) so a typo can't silently run the full multi-minute grid.
bench_args parse_bench_args(int argc, char** argv);

// Throws std::invalid_argument naming --obs-out when it was given to `run`,
// which starts no obs:: hub and so would silently write nothing.
void reject_obs_out(const bench_args& args, const std::string& run);

// Runs `body` and returns its exit status; a std::exception escaping it
// prints "error: <what>" on stderr and returns 1 instead of aborting.
int run_guarded(const std::function<int()>& body);

// Whether a bench hands --obs-out on to the obs:: hub of what it runs.
enum class obs_wiring { none, wired };

// The whole of a bench main: parses the bench flags, rejects --obs-out
// when `obs` is obs_wiring::none, and runs `body` under run_guarded.
int bench_main(int argc, char** argv, obs_wiring obs,
               const std::function<int(const bench_args&)>& body);

}  // namespace l4span::scenario
