// l4span_run — the generic scenario driver: loads a JSON scenario file
// (schema "l4span-scenario-v1", see docs/SCENARIOS.md), fans its grid out
// through scenario::grid_runner and prints the same banner/table/JSON
// output as the bench binary the family grew out of. Running a bench's
// --export-scenario dump through this driver reproduces the bench's stdout
// and JSON summary byte-for-byte, for any --jobs value (pinned by
// tests/test_scenario_spec.cpp and the CI perf-smoke slice).
//
//   l4span_run SCENARIO.json [--jobs N] [--json PATH] [--obs-out PREFIX]
//              [--impair-noop] [--export PATH]
//
// There is deliberately no --quick: quickness is a property of the
// scenario document (the grid axes it lists), not of the run. --export
// re-exports the parsed document (normalized key order/format) and exits.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"

using namespace l4span;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& bad)
{
    std::fprintf(stderr,
                 "usage: %s SCENARIO.json [--jobs N] [--json PATH] "
                 "[--obs-out PREFIX] [--impair-noop] [--export PATH]\n",
                 argv0);
    if (!bad.empty()) std::fprintf(stderr, "%s\n", bad.c_str());
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv)
{
    scenario::bench_args args;
    std::string scenario_path;
    std::string export_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs" && i + 1 < argc) {
            args.jobs = std::atoi(argv[++i]);
        } else if (a.rfind("--jobs=", 0) == 0) {
            args.jobs = std::atoi(a.c_str() + 7);
        } else if (a.rfind("-j", 0) == 0 && a.size() > 2) {
            args.jobs = std::atoi(a.c_str() + 2);
        } else if (a == "--json" && i + 1 < argc) {
            args.json_path = argv[++i];
        } else if (a.rfind("--json=", 0) == 0) {
            args.json_path = a.substr(7);
        } else if (a == "--obs-out" && i + 1 < argc) {
            args.obs_out = argv[++i];
        } else if (a.rfind("--obs-out=", 0) == 0) {
            args.obs_out = a.substr(10);
        } else if (a == "--impair-noop") {
            args.impair_noop = true;
        } else if (a == "--export" && i + 1 < argc) {
            export_path = argv[++i];
        } else if (a.rfind("--export=", 0) == 0) {
            export_path = a.substr(9);
        } else if (a == "--quick") {
            usage(argv[0],
                  "--quick is not a driver flag: a scenario file already names "
                  "its grid slice (export one with bench_* --quick "
                  "--export-scenario PATH)");
        } else if (!a.empty() && a[0] == '-') {
            usage(argv[0], "unknown argument: " + a);
        } else if (scenario_path.empty()) {
            scenario_path = a;
        } else {
            usage(argv[0], "more than one scenario file: " + a);
        }
    }
    if (args.jobs < 0) args.jobs = 1;
    if (scenario_path.empty()) usage(argv[0], "missing scenario file");

    // A scenario_error, or a run-time failure such as an unwritable --obs-out
    // artifact, ends in one "error:" line and exit status 1.
    return scenario::run_guarded([&] {
        const auto spec = scenario::load_scenario_file(scenario_path);
        args.quick = spec.quick;  // summary "quick" tag follows the document
        if (!export_path.empty())
            return scenario::write_scenario_file(export_path, spec);
        return scenario::run_scenario(spec, args);
    });
}
