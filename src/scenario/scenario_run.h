// Executes a scenario_spec: one family runner per experiment family, each
// printing the exact banner/table/stderr output of the bench binary the
// family grew out of and emitting the same stats::json summary. The five
// representative benches (fig09, fig24, fig16, ecn_impairment,
// fault_chaos) are one-line mains over builtin_bench_main(),
// so a bench, the same scenario exported to JSON and re-run through
// `l4span_run`, and the conformance tests all print through ONE code path —
// byte-identity for any --jobs value holds by construction and is pinned
// in tests/test_scenario_spec.cpp.
#pragma once

#include <string>

#include "scenario/grid_runner.h"
#include "scenario/scenario_spec.h"
#include "stats/json.h"

namespace l4span::scenario {

// The compiled-in scenario of a representative bench: "fig09" and "fig24"
// (tcp_grid), "fig16" (shared_drb), "ecn_impairment", "fault_chaos".
// `quick` bakes the bench's --quick slice into the returned document (grid
// axes and duration), exactly as the bench would run it. Throws
// scenario_error on an unknown name.
scenario_spec builtin_scenario(const std::string& name, bool quick);

// Runs the scenario: banner, grid fan-out (grid_runner with args.jobs),
// fixed-order tables on stdout, JSON summary behind args.json_path.
// args.quick is ignored — quickness is part of the document. A flag in
// `args` the family does not read (--json: all; --obs-out: tcp_grid,
// fault_chaos, cell_flows) throws before anything runs. When
// `summary_out` is non-null it receives the summary (tests capture it
// without temp files). Returns the process exit status (0, or 1 when
// --json was requested but could not be written).
int run_scenario(const scenario_spec& spec, const bench_args& args,
                 stats::json* summary_out = nullptr);

// The main of a bench that is the builtin scenario `name`: runs it, or
// writes it to --export-scenario's PATH, through bench_main. It reads
// --quick, --export-scenario and the flags its family reads.
int builtin_bench_main(int argc, char** argv, const std::string& name);

}  // namespace l4span::scenario
