// Adversarial-path grid: does L4S signaling survive a wired path that lies?
//
// "A Fresh Look at ECN Traversal in the Wild" (PAPERS.md) measured real
// Internet paths bleaching CE, stripping ECT and re-marking ECT(1) — failure
// modes the L4Span paper never evaluates. This bench grids CCA
// {tcp-prague, quic-prague, tcp-cubic, tcp-bbr2} x impairment profile
// {clean, bleach, remark, strip, loss, reorder, liar} x wired cross-traffic
// {off, poisson} through a DualPi2 core bottleneck + L4Span RAN, reporting
// per-profile OWD percentiles, goodput, retransmits, the CE-delivery ratio
// and how many senders' ECN validation fell back to Not-ECT.
//
// Placement matters: the impairment stage sits between the core bottleneck
// and the RAN, so bleaching erases the AQM's CE marks but can never touch
// L4Span's own CU marks (which are applied after the wired path) — the
// mechanism behind L4Span's graceful degradation under bleaching, while
// ECT-stripping demotes Prague flows to non-ECN treatment end-to-end.
//
// The grid lives in the scenario engine as the "ecn_impairment" builtin
// (family ecn_impairment): points fan out over scenario::grid_runner and
// print in fixed grid order, byte-identical for any --jobs value.
// --export-scenario PATH dumps the (possibly --quick) grid as JSON.
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    return scenario::builtin_bench_main(argc, argv, "ecn_impairment");
}
