#include "scenario/grid_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>

namespace l4span::scenario {

int default_jobs()
{
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

namespace {

struct flag_info {
    bench_flag flag;
    std::string_view name;
    const char* value;              // in the usage line
    std::string bench_args::*dest;  // nullptr for the --quick switch
};

constexpr flag_info k_flags[] = {
    {flag_quick, "--quick", "", nullptr},
    {flag_json, "--json", " PATH", &bench_args::json_path},
    {flag_trace_dir, "--trace-dir", " DIR", &bench_args::trace_dir},
    {flag_obs_out, "--obs-out", " PREFIX", &bench_args::obs_out},
    {flag_export_scenario, "--export-scenario", " PATH", &bench_args::export_scenario},
};

[[noreturn]] void refuse(const flag_info& f, const std::string& driver)
{
    throw std::invalid_argument(std::string(f.name) + ": " + driver + " does not read it");
}

// Whether `a` is the flag `name`, alone or as "name=VALUE".
bool spells(std::string_view a, std::string_view name)
{
    return a.starts_with(name) && (a.size() == name.size() || a[name.size()] == '=');
}

}  // namespace

bench_args parse_bench_args(int argc, char** argv, flag_set reads,
                            std::string* positional)
{
    const std::string exe = argv[0];
    const std::string driver = exe.substr(exe.find_last_of('/') + 1);
    const auto bad = [&](const std::string& why) {
        std::string line = "usage: " + driver + (positional ? " SCENARIO.json" : "");
        line += " [--jobs N]";
        for (const flag_info& f : k_flags)
            if (reads & f.flag) line += " [" + std::string(f.name) + f.value + "]";
        std::fprintf(stderr, "%s\n%s\n", line.c_str(), why.c_str());
        std::exit(2);
    };
    bench_args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        // The value of the flag `a` spells: after its '=', else the next
        // argument.
        const auto value = [&]() -> std::string {
            if (const auto eq = a.find('='); eq != std::string_view::npos)
                return std::string(a.substr(eq + 1));
            if (i + 1 >= argc) bad("missing value for " + std::string(a));
            return argv[++i];
        };
        const auto known = std::find_if(std::begin(k_flags), std::end(k_flags),
                                        [&](const flag_info& f) {
                                            return f.dest ? spells(a, f.name) : a == f.name;
                                        });
        if (spells(a, "--jobs") || (a.starts_with("-j") && a.size() > 2)) {
            const std::string n = a.starts_with("--") ? value() : std::string(a.substr(2));
            const auto [end, ec] = std::from_chars(n.data(), n.data() + n.size(), args.jobs);
            if (ec != std::errc{} || end != n.data() + n.size() || args.jobs < 0)
                bad("--jobs takes a whole number >= 0, not \"" + n + "\"");
        } else if (known != std::end(k_flags)) {
            if (!(reads & known->flag)) refuse(*known, driver);
            if (known->dest)
                args.*known->dest = value();
            else
                args.quick = true;
        } else if (positional && !a.starts_with("-")) {
            if (!positional->empty()) bad("more than one scenario file: " + std::string(a));
            *positional = a;
        } else {
            bad("unknown argument: " + std::string(a));
        }
    }
    if (positional && positional->empty()) bad("missing scenario file");
    return args;
}

void refuse_unread(const bench_args& args, flag_set reads, const std::string& driver)
{
    for (const flag_info& f : k_flags)
        if (f.dest && !(args.*f.dest).empty() && !(reads & f.flag)) refuse(f, driver);
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

int bench_main(int argc, char** argv, flag_set reads,
               const std::function<int(const bench_args&)>& body)
{
    return run_guarded([&] { return body(parse_bench_args(argc, argv, reads)); });
}

}  // namespace l4span::scenario
