// Fig. 9 — One-way delay vs per-UE throughput for Prague, BBRv2 and CUBIC
// under a severely congested RAN: {16, 64} UEs x RLC queue {16384, 256
// SDUs} x base RTT {38, 106} ms x channel {static, mobile} x {vanilla,
// +L4Span}. Box statistics match the paper's plots (p10/p25/p50/p75/p90).
//
// The grid lives in the scenario engine as the "fig09" builtin (family
// tcp_grid): this binary is parse-args + run_scenario, so `l4span_run` on
// the exported JSON prints the exact same bytes. The 96 grid points fan out
// over scenario::grid_runner (--jobs N, default all cores) and print in
// fixed grid order, so stdout is byte-identical for any worker count.
// --export-scenario PATH dumps the (possibly --quick) grid as JSON.
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    return scenario::builtin_bench_main(argc, argv, "fig09");
}
