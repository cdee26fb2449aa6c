// Fig. 15 — Feedback short-circuiting: RTT and throughput CDFs for Prague
// and CUBIC with the signal injected into uplink ACKs at the CU (SC) versus
// marked on downlink packets that must traverse the RLC queue first.
// Local server (minimal wired delay), as in the paper.
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"

using namespace l4span;

int run_bench(const scenario::bench_args&)
{
    benchutil::header("Fig. 15: feedback short-circuiting",
                      "SC lowers mean RTT (28.5 vs 33.9 ms Prague; 75 vs 85 ms CUBIC) "
                      "and slashes the p99.9 tail; throughput unchanged");
    stats::table t({"cca", "SC", "mean RTT (ms)", "p50", "p90", "p99.9", "tput (Mbit/s)"});
    for (const std::string cca : {"prague", "cubic"}) {
        for (const bool sc : {true, false}) {
            scenario::cell_spec cell;
            cell.num_ues = 1;
            cell.channel = "static";
            cell.cu = scenario::cu_mode::l4span;
            cell.l4s.short_circuit = sc;
            cell.seed = 67;
            scenario::cell_scenario s(cell);
            scenario::flow_spec f;
            f.cca = cca;
            f.wired_owd_ms = 2.0;  // local server
            const int h = s.add_flow(f);
            s.run(sim::from_sec(20));
            const auto& rtt = s.rtt_ms(h);
            t.add_row({cca, sc ? "on" : "off", stats::table::num(rtt.mean(), 2),
                       stats::table::num(rtt.median(), 2),
                       stats::table::num(rtt.percentile(90), 2),
                       stats::table::num(rtt.percentile(99.9), 2),
                       stats::table::num(s.goodput_mbps(h), 2)});
        }
    }
    t.print();
    return 0;
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, 0, run_bench);
}
