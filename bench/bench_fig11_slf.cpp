// Fig. 11 — Short-lived flow (14 kB) finish time while a long-lived flow
// occupies the same UE, for Prague / BBRv2 / CUBIC, with and without
// L4Span. The paper reports ~4x (up to 94%) SLF finish-time reduction at
// ~10% LLF throughput cost.
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"

using namespace l4span;

int run_bench(const scenario::bench_args&)
{
    benchutil::header("Fig. 11: short-flow finish time vs long-flow rate",
                      "SLF finish time drops ~4x under L4Span; LLF keeps its rate");
    stats::table t({"cca", "L4Span", "LLF rate (Mbit/s)", "SLF FCT ms p10/p25/p50/p75/p90"});
    for (const std::string cca : {"prague", "bbr2", "cubic"}) {
        for (const bool on : {false, true}) {
            scenario::cell_spec cell;
            cell.num_ues = 1;
            cell.channel = "static";
            cell.cu = on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
            cell.seed = 31;
            scenario::cell_scenario s(cell);

            scenario::flow_spec llf;
            llf.cca = cca;
            const int hl = s.add_flow(llf);

            // A train of 14 kB short flows (web interactions) once the LLF
            // has filled the queue.
            std::vector<int> slfs;
            for (int k = 0; k < 8; ++k) {
                scenario::flow_spec slf;
                slf.cca = cca;
                slf.flow_bytes = 14 * 1024;
                slf.start_time = sim::from_sec(3) + k * sim::from_ms(1500);
                slfs.push_back(s.add_flow(slf));
            }
            s.run(sim::from_sec(16));

            stats::sample_set fct;
            for (int h : slfs) {
                const double v = s.fct_ms(h);
                if (v >= 0) fct.add(v);
            }
            t.add_row({cca, on ? "+" : "-", stats::table::num(s.goodput_mbps(hl), 2),
                       fct.empty() ? "unfinished" : benchutil::box(fct, 0)});
        }
    }
    t.print();
    return 0;
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, 0, run_bench);
}
