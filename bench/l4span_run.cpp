// l4span_run — the generic scenario driver: loads a JSON scenario file
// (schema "l4span-scenario-v1", see docs/SCENARIOS.md), fans its grid out
// through scenario::grid_runner and prints the same banner/table/JSON
// output as the bench binary the family grew out of. Running a bench's
// --export-scenario dump through this driver reproduces the bench's stdout
// and JSON summary byte-for-byte, for any --jobs value (pinned by
// tests/test_scenario_spec.cpp and the CI perf-smoke slice).
//
//   l4span_run SCENARIO.json [--jobs N] [--json PATH] [--obs-out PREFIX]
//              [--export-scenario PATH]
//
// There is deliberately no --quick: quickness is a property of the
// scenario document (the grid axes it lists), not of the run.
// --export-scenario re-exports the parsed document (normalized key
// order/format) and exits.
#include <string>

#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"

using namespace l4span;

int main(int argc, char** argv)
{
    // A refused flag (run_scenario refuses those the document's family does
    // not read), a scenario_error, or a run-time failure such as an
    // unwritable --obs-out artifact, ends in one "error:" line and exit
    // status 1.
    return scenario::run_guarded([&] {
        std::string path;
        const auto args = scenario::parse_bench_args(
            argc, argv,
            scenario::flag_json | scenario::flag_obs_out | scenario::flag_export_scenario,
            &path);
        const auto spec = scenario::load_scenario_file(path);
        if (!args.export_scenario.empty())
            return scenario::write_scenario_file(args.export_scenario, spec);
        return scenario::run_scenario(spec, args);
    });
}
