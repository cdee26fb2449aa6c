#include "scenario/grid_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace l4span::scenario {

int default_jobs()
{
    if (const char* env = std::getenv("L4SPAN_BENCH_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

grid_runner::grid_runner(int jobs) : jobs_(jobs > 0 ? jobs : default_jobs()) {}

void grid_runner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn)
{
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        while (true) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

bench_args parse_bench_args(int argc, char** argv)
{
    bench_args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs" && i + 1 < argc) {
            args.jobs = std::atoi(argv[++i]);
        } else if (a.rfind("--jobs=", 0) == 0) {
            args.jobs = std::atoi(a.c_str() + 7);
        } else if (a.rfind("-j", 0) == 0 && a.size() > 2) {
            args.jobs = std::atoi(a.c_str() + 2);
        } else if (a == "--quick") {
            args.quick = true;
        } else if (a == "--json" && i + 1 < argc) {
            args.json_path = argv[++i];
        } else if (a.rfind("--json=", 0) == 0) {
            args.json_path = a.substr(7);
        } else if (a == "--trace-dir" && i + 1 < argc) {
            args.trace_dir = argv[++i];
        } else if (a.rfind("--trace-dir=", 0) == 0) {
            args.trace_dir = a.substr(12);
        } else if (a == "--impair-noop") {
            args.impair_noop = true;
        } else if (a == "--obs-out" && i + 1 < argc) {
            args.obs_out = argv[++i];
        } else if (a.rfind("--obs-out=", 0) == 0) {
            args.obs_out = a.substr(10);
        } else if (a == "--export-scenario" && i + 1 < argc) {
            args.export_scenario = argv[++i];
        } else if (a.rfind("--export-scenario=", 0) == 0) {
            args.export_scenario = a.substr(18);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--quick] [--json PATH] "
                         "[--trace-dir DIR] [--impair-noop] "
                         "[--obs-out PREFIX] [--export-scenario PATH]\n"
                         "unknown argument: %s\n",
                         argv[0], a.c_str());
            std::exit(2);
        }
    }
    if (args.jobs < 0) args.jobs = 1;
    return args;
}

void reject_obs_out(const bench_args& args, const std::string& run)
{
    if (!args.obs_out.empty())
        throw std::invalid_argument("--obs-out: " + run +
                                    " runs no obs:: telemetry hub, so it would write "
                                    "nothing (drop the flag)");
}

int run_guarded(const std::function<int()>& body)
{
    try {
        return body();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

int bench_main(int argc, char** argv, obs_wiring obs,
               const std::function<int(const bench_args&)>& body)
{
    const bench_args args = parse_bench_args(argc, argv);
    return run_guarded([&] {
        if (obs == obs_wiring::none) {
            const std::string exe = argv[0];
            reject_obs_out(args, exe.substr(exe.find_last_of('/') + 1));
        }
        return body(args);
    });
}

}  // namespace l4span::scenario
