// Fig. 10 — Average one-way delay breakdown (propagation / queuing /
// scheduling / other) for round-robin vs proportional-fair scheduling with
// 16 and 64 UEs, with and without L4Span.
#include <algorithm>
#include <cstdio>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"

using namespace l4span;

int main()
{
    benchutil::header("Fig. 10: delay breakdown by scheduler",
                      "queuing dominates without L4Span; with L4Span the total "
                      "falls to ~tens of ms under both RR and PF");
    stats::table t({"sched", "UEs", "L4Span", "propagation", "queuing", "scheduling",
                    "other", "total OWD (ms)"});
    const double wired_owd = 19.0;
    for (const auto sched :
         {ran::sched_policy::round_robin, ran::sched_policy::proportional_fair}) {
        for (const int ues : {16, 64}) {
            for (const bool on : {false, true}) {
                scenario::cell_spec cell;
                cell.num_ues = ues;
                cell.channel = "static";
                cell.sched = sched;
                cell.cu = on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
                cell.seed = 77;
                scenario::cell_scenario s(cell);
                // Per-SDU queuing and scheduling delay, reported by the RLC
                // as each SDU leaves its queue.
                double queuing_sum = 0.0, sched_sum = 0.0;
                std::uint64_t reports = 0;
                s.gnb().set_delay_handler([&](const ran::sdu_delay_report& r) {
                    queuing_sum += sim::to_ms(r.queuing);
                    sched_sum += sim::to_ms(r.scheduling);
                    ++reports;
                });
                std::vector<int> handles;
                for (int u = 0; u < ues; ++u) {
                    scenario::flow_spec f;
                    f.cca = "prague";
                    f.ue = u;
                    f.wired_owd_ms = wired_owd;
                    f.max_cwnd = 1536 * 1024;
                    handles.push_back(s.add_flow(f));
                }
                s.run(sim::from_sec(6));

                double owd_sum = 0.0;
                std::size_t n = 0;
                for (int h : handles) {
                    owd_sum += s.owd_ms(h).mean() * static_cast<double>(s.owd_ms(h).count());
                    n += s.owd_ms(h).count();
                }
                const double owd = n ? owd_sum / static_cast<double>(n) : 0.0;
                const double prop = wired_owd + 1.0;  // wired + 5G core hop
                const double n_reports = static_cast<double>(reports);
                const double queuing = reports ? queuing_sum / n_reports : 0.0;
                const double sched_ms = reports ? sched_sum / n_reports : 0.0;
                const double other = std::max(0.0, owd - prop - queuing - sched_ms);
                t.add_row({sched == ran::sched_policy::round_robin ? "RR" : "PF",
                           std::to_string(ues), on ? "+" : "-",
                           stats::table::num(prop, 1), stats::table::num(queuing, 1),
                           stats::table::num(sched_ms, 1), stats::table::num(other, 1),
                           stats::table::num(owd, 1)});
            }
        }
    }
    t.print();
    return 0;
}
