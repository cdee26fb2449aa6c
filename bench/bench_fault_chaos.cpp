// Fault-injection chaos grid: fault class x transport under a multi-cell
// topology, measuring how far L4Span degrades when the RAN fails underneath
// it — RLF re-establishment latency, handover-failure recovery, cell
// outages, wired-link flaps, and the full chaos mix.
//
// The deployability claim this quantifies: faults invalidate hook state and
// stall transports, but nothing wedges — recovery is bounded (re-establish
// backoff + signalling), interactive media resumes, and the no-fault
// baseline rows show the fault machinery costs nothing when armed but idle.
//
// The grid lives in the scenario engine as the "fault_chaos" builtin
// (family fault_chaos). Schedules come from topo::fault_plan, so every row
// is byte-identical for any --jobs value. --export-scenario PATH dumps the
// (possibly --quick) grid as JSON.
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    return scenario::builtin_bench_main(argc, argv, "fault_chaos");
}
