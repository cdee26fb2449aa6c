// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out:
//  (1) error-aware marking (Eq. 1's Gaussian edge) vs error-blind (e_hat=0,
//      i.e., a DualPi2-style step at the same threshold);
//  (2) the estimation-window choice around tau_c = 12.45 ms;
//  (3) short-circuiting's interaction with the base RTT.
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"

using namespace l4span;

namespace {

struct outcome {
    double tput;
    double owd_p50;
    double owd_p90;
};

outcome run(const std::string& chan, sim::tick coherence, bool short_circuit,
            double wired_owd_ms, bool error_aware = true)
{
    scenario::cell_spec cell;
    cell.num_ues = 1;
    cell.channel = chan;
    cell.cu = scenario::cu_mode::l4span;
    cell.l4s.coherence_time = coherence;
    cell.l4s.short_circuit = short_circuit;
    cell.l4s.error_aware = error_aware;
    cell.seed = 109;
    scenario::cell_scenario s(cell);
    scenario::flow_spec f;
    f.cca = "prague";
    f.wired_owd_ms = wired_owd_ms;
    const int h = s.add_flow(f);
    s.run(sim::from_sec(10));
    return {s.goodput_mbps(h), s.owd_ms(h).median(), s.owd_ms(h).percentile(90)};
}

}  // namespace

int run_bench(const scenario::bench_args&)
{
    benchutil::header("Ablation 1: estimation window (tau_c) sweep",
                      "too-short windows are noisy, too-long windows straddle "
                      "coherence changes; 12.45 ms balances both");
    {
        stats::table t({"window (ms)", "channel", "tput (Mbit/s)", "OWD p50", "OWD p90"});
        for (const double win_ms : {3.0, 6.0, 12.45, 25.0, 50.0, 100.0}) {
            for (const std::string chan : {"static", "vehicular"}) {
                const auto o = run(chan, sim::from_ms(2 * win_ms), true, 19.0);
                t.add_row({stats::table::num(win_ms, 2), chan,
                           stats::table::num(o.tput, 2), stats::table::num(o.owd_p50, 1),
                           stats::table::num(o.owd_p90, 1)});
            }
        }
        t.print();
    }

    benchutil::header("Ablation 2: error-aware (Eq. 1) vs error-blind marking",
                      "with e_hat forced to 0 the marker becomes a step; on "
                      "volatile channels the Gaussian edge preserves throughput");
    {
        stats::table t({"marking", "channel", "tput (Mbit/s)", "OWD p50", "OWD p90"});
        for (const std::string chan : {"static", "pedestrian", "vehicular"}) {
            for (const bool aware : {true, false}) {
                const auto o = run(chan, sim::from_ms(24.9), true, 19.0, aware);
                t.add_row({aware ? "error-aware" : "error-blind (step)", chan,
                           stats::table::num(o.tput, 2), stats::table::num(o.owd_p50, 1),
                           stats::table::num(o.owd_p90, 1)});
            }
        }
        t.print();
    }

    benchutil::header("Ablation 3: short-circuiting x base RTT",
                      "SC's benefit grows as the RAN's share of the control loop "
                      "grows (short base RTTs)");
    {
        stats::table t({"base RTT (ms)", "SC", "tput (Mbit/s)", "OWD p50", "OWD p90"});
        for (const double owd : {2.0, 19.0, 53.0}) {
            for (const bool sc : {true, false}) {
                const auto o = run("static", sim::from_ms(24.9), sc, owd);
                t.add_row({stats::table::num(2 * owd, 0), sc ? "on" : "off",
                           stats::table::num(o.tput, 2), stats::table::num(o.owd_p50, 1),
                           stats::table::num(o.owd_p90, 1)});
            }
        }
        t.print();
    }
    return 0;
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, 0, run_bench);
}
