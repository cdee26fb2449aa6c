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

// Worker count: hardware concurrency, or 1 when it is unknown.
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

// --- one command line for every driver -------------------------------------

struct bench_args {
    int jobs = 0;            // --jobs N (0 → default_jobs())
    bool quick = false;      // --quick: tiny grid slice for CI perf-smoke
    std::string json_path;   // --json PATH: write the per-figure summary
    std::string trace_dir;   // --trace-dir DIR: replay DCI traces from DIR
    std::string obs_out;     // --obs-out PREFIX: enable the obs:: telemetry
                             // hub and write PREFIX.metrics.jsonl /
                             // PREFIX.trace.jsonl (+ incident dumps). The
                             // simulated results must be byte-identical
                             // with or without it.
    std::string export_scenario;  // --export-scenario PATH: write the
                                  // scenario document (after --quick
                                  // slicing) to PATH as JSON and exit
                                  // instead of running.
};

// The flags a driver reads, as a mask of bench_flag bits (0: none). --jobs
// is not one: it is an upper bound on worker threads, so every driver
// accepts it and a serial one honours it.
enum bench_flag : unsigned {
    flag_quick = 1u << 0,
    flag_json = 1u << 1,
    flag_trace_dir = 1u << 2,
    flag_obs_out = 1u << 3,
    flag_export_scenario = 1u << 4,
};
using flag_set = unsigned;
constexpr flag_set grid_flags = flag_quick | flag_json;  // what a grid bench reads

// Parses --jobs N (or --jobs=N, -jN) and the flags in `reads`, given as
// --flag VALUE or --flag=VALUE. Any other flag above throws
// std::invalid_argument "--<flag>: <driver> does not read it", the driver
// named after argv[0]. A malformed --jobs, an unknown argument or a missing
// value prints the usage line on stderr and exit(2)s, so a typo can't
// silently run the full multi-minute grid. With `positional` set the driver
// takes exactly one SCENARIO.json argument, stored there.
bench_args parse_bench_args(int argc, char** argv, flag_set reads,
                            std::string* positional = nullptr);

// Throws as parse_bench_args does for the first flag with a value that
// `args` carries and `reads` lacks. (--quick is not checked: a scenario
// document carries its own slice.)
void refuse_unread(const bench_args& args, flag_set reads, const std::string& driver);

// Runs `body` and returns its exit status; a std::exception escaping it
// prints "error: <what>" on stderr and returns 1 instead of aborting.
int run_guarded(const std::function<int()>& body);

// The whole of a bench main: parses the flags in `reads` and runs `body`
// on them under run_guarded.
int bench_main(int argc, char** argv, flag_set reads,
               const std::function<int(const bench_args&)>& body);

}  // namespace l4span::scenario
