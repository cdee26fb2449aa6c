// Fig. 12 — L4Span vs TC-RAN (CoDel / ECN-CoDel between SDAP and PDCP) for
// Prague and CUBIC, static and mobile channels, east (38 ms) and west
// (106 ms) servers.
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"

using namespace l4span;

int run_bench(const scenario::bench_args&)
{
    benchutil::header("Fig. 12: L4Span vs TC-RAN",
                      "similar delay, but L4Span utilizes more of the cell "
                      "(paper: +148% static / +6% mobile for Prague)");
    stats::table t({"cca", "chan", "server", "system", "OWD p50 (ms)", "OWD p90 (ms)",
                    "tput (Mbit/s)"});
    for (const std::string cca : {"prague", "cubic"}) {
        for (const std::string chan : {"static", "mobile"}) {
            for (const double owd : {19.0, 53.0}) {
                for (const bool tcran : {false, true}) {
                    scenario::cell_spec cell;
                    cell.num_ues = 1;
                    cell.channel = chan;
                    cell.cu = tcran ? scenario::cu_mode::tcran : scenario::cu_mode::l4span;
                    // TC-RAN deploys ECN-CoDel for L4S traffic and plain
                    // (dropping) CoDel for classic traffic.
                    cell.tcran.codel.ecn_mode = (cca == "prague");
                    cell.seed = 47;
                    scenario::cell_scenario s(cell);
                    scenario::flow_spec f;
                    f.cca = cca;
                    f.wired_owd_ms = owd;
                    const int h = s.add_flow(f);
                    s.run(sim::from_sec(10));
                    t.add_row({cca, chan, owd < 30 ? "east" : "west",
                               tcran ? "TC-RAN" : "L4Span",
                               stats::table::num(s.owd_ms(h).median(), 1),
                               stats::table::num(s.owd_ms(h).percentile(90), 1),
                               stats::table::num(s.goodput_mbps(h), 2)});
                }
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
