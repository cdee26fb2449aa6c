// Fig. 16 — One DRB shared by an L4S (Prague) and a classic (CUBIC) flow:
// the four marking strategies of §6.2.6. The y-axis metric is the L4S
// flow's share: r_l4s/(r_l4s+r_classic) and RTT_l4s/(RTT_l4s+RTT_classic);
// 50% on both axes is the fair outcome.
//
// The grid lives in the scenario engine as the "fig16" builtin (family
// shared_drb); the four strategies are independent cells fanned out over
// scenario::grid_runner, byte-identical for any worker count.
// --export-scenario PATH dumps the (possibly --quick) grid as JSON.
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    return scenario::builtin_bench_main(argc, argv, "fig16");
}
