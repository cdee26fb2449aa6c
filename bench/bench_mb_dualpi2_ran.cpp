// §6.3.1 microbenchmark — the wired DualPi2 marking rule transplanted into
// the RAN (1 ms and 10 ms step thresholds) vs L4Span. The paper reports 73%
// and 28% throughput loss respectively: a fixed sojourn threshold cannot
// track a volatile wireless egress rate.
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"

using namespace l4span;

int run_bench(const scenario::bench_args&)
{
    benchutil::header("§6.3.1: DualPi2-in-the-RAN vs L4Span",
                      "DualPi2@1ms loses ~73% throughput, @10ms ~28%; L4Span holds "
                      "near line rate at comparable delay");
    stats::table t({"marker", "channel", "cca", "tput (Mbit/s)", "OWD p50 (ms)",
                    "vs L4Span tput"});
    for (const std::string chan : {"static", "vehicular"}) {
        for (const std::string cca : {"prague", "bbr2"}) {
            double l4span_tput = 0.0;
            struct mode {
                const char* label;
                scenario::cu_mode cu;
                double step_ms;
            };
            for (const mode m : {mode{"L4Span", scenario::cu_mode::l4span, 0.0},
                                 mode{"DualPi2@1ms", scenario::cu_mode::dualpi2_ran, 1.0},
                                 mode{"DualPi2@10ms", scenario::cu_mode::dualpi2_ran, 10.0}}) {
                scenario::cell_spec cell;
                cell.num_ues = 1;
                cell.channel = chan;
                cell.cu = m.cu;
                cell.dualpi2.l4s_step = sim::from_ms(m.step_ms);
                cell.seed = 107;
                scenario::cell_scenario s(cell);
                scenario::flow_spec f;
                f.cca = cca;
                const int h = s.add_flow(f);
                s.run(sim::from_sec(10));
                const double tput = s.goodput_mbps(h);
                if (m.cu == scenario::cu_mode::l4span) l4span_tput = tput;
                t.add_row({m.label, chan, cca, stats::table::num(tput, 2),
                           stats::table::num(s.owd_ms(h).median(), 1),
                           l4span_tput > 0
                               ? stats::table::num(100.0 * tput / l4span_tput, 1) + "%"
                               : "-"});
            }
        }
    }
    t.print();
    return 0;
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, 0, run_bench);
}
