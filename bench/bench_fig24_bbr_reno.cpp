// Fig. 24 (appendix B) — BBR (v1) and Reno under the Fig. 9 grid at the
// 38 ms base RTT. Reno's RTT drops >97% under L4Span; BBR largely ignores
// ECN, so medians barely move while variance grows.
//
// The grid is the "fig24" builtin of the scenario engine (family tcp_grid),
// run exactly as bench_fig09_tcp_grid runs "fig09": stdout is
// byte-identical for any --jobs value and to `l4span_run` on the exported
// file (--export-scenario PATH).
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    return scenario::builtin_bench_main(argc, argv, "fig24");
}
