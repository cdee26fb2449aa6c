// Fig. 20 — Egress-rate estimation error: L4Span's estimate vs the ground-
// truth RLC dequeue rate (from the MAC transmission log), 16 UEs, three
// channel conditions. The paper reports errors centered near 0%.
#include <cstdio>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"

using namespace l4span;

int main()
{
    benchutil::header("Fig. 20: egress-rate estimation error",
                      "error distribution centered near 0% in all channels");
    stats::table t({"channel", "error %% p10/p25/p50/p75/p90", "|error| p50 %%"});
    for (const std::string chan : {"static", "pedestrian", "vehicular"}) {
        scenario::cell_spec cell;
        cell.num_ues = 16;
        cell.channel = chan;
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = 101;
        cell.record_tx_log = true;  // ground truth for the error distribution
        scenario::cell_scenario s(cell);
        for (int u = 0; u < 16; ++u) {
            scenario::flow_spec f;
            // Classic senders keep the working buffer the paper's Fig. 17
            // shows: the queue is continuously backlogged, so the RLC log
            // rate and the estimate measure the same quantity.
            f.cca = "cubic";
            f.ue = u;
            s.add_flow(f);
        }

        // Sample the estimate every 10 ms during the run and compare with
        // the ground-truth rate over the same trailing window.
        struct probe {
            sim::tick t;
            int ue;
            double est_Bps;
        };
        std::vector<probe> probes;
        const sim::tick window = cell.l4s.coherence_time / 2;
        std::function<void()> sample = [&] {
            for (int u = 0; u < 16; ++u) {
                const auto v = s.l4span_layer()->view(static_cast<ran::rnti_t>(u + 1), 1);
                // Probe while the queue is genuinely backlogged: the
                // estimate and the RLC service log then measure the same
                // quantity (an idle bearer has no meaningful dequeue rate).
                if (v.rate_hat_Bps > 0 && v.standing_bytes >= 8000)
                    probes.push_back({s.loop().now(), u, v.rate_hat_Bps});
            }
            s.loop().schedule_after(sim::from_ms(10), sample);
        };
        s.loop().schedule_after(sim::from_sec(1), sample);
        s.run(sim::from_sec(6));

        stats::sample_set err, abs_err;
        for (const auto& p : probes) {
            // Ground truth: the RLC's service rate over the same window,
            // from the MAC transmission log. Gaps longer than one TDD
            // period mean the queue stood empty (application-limited), so
            // they are excluded from the denominator — the same busy-period
            // semantics the estimator uses.
            // Anchor the window at the last service instant (the estimator
            // anchors Eq. (3) at the last transmit feedback, not wall time).
            sim::tick end = -1;
            for (const auto& [ts, b] : s.tx_log(p.ue))
                if (ts <= p.t && ts > end) end = ts;
            if (end < 0) continue;
            std::uint64_t bytes = 0;
            sim::tick idle = 0, prev = end - window;
            const sim::tick max_gap = sim::from_ms(3);
            for (const auto& [ts, b] : s.tx_log(p.ue)) {
                if (ts <= end - window || ts > end) continue;
                if (ts - prev > max_gap) idle += (ts - prev) - max_gap;
                prev = ts;
                bytes += b;
            }
            if (bytes == 0) continue;  // no service in the window
            const sim::tick busy = std::max<sim::tick>(window - idle, window / 16);
            const double truth = static_cast<double>(bytes) / sim::to_sec(busy);
            const double e = 100.0 * (p.est_Bps - truth) / truth;
            err.add(e);
            abs_err.add(std::abs(e));
        }
        t.add_row({chan, benchutil::box(err), stats::table::num(abs_err.median(), 1)});
    }
    t.print();
    return 0;
}
