#include "scenario/baselines.h"

namespace l4span::scenario {

// ----------------------------------------------------------------- TC-RAN --

namespace {
constexpr std::size_t k_rlc_drain_sdus = 16;  // keep the RLC queue at most this long
constexpr sim::tick k_poll = sim::from_ms(1);
}  // namespace

tc_ran::tc_ran(sim::event_loop& loop, ran::gnb& gnb, config cfg)
    : loop_(loop), gnb_(gnb), cfg_(cfg)
{
}

void tc_ran::deliver_downlink(net::packet pkt, ran::rnti_t ue, ran::qfi_t qfi)
{
    auto it = queues_.find(ue);
    if (it == queues_.end()) {
        ue_queue q;
        q.q = std::make_unique<aqm::codel_queue>(cfg_.codel);
        q.qfi = qfi;
        it = queues_.emplace(ue, std::move(q)).first;
    }
    it->second.q->enqueue(std::move(pkt), loop_.now());
    // Opportunistic immediate drain so short queues add no latency.
    poll();
}

void tc_ran::poll()
{
    bool any_left = false;
    for (auto& [ue, q] : queues_) {
        // Flow control: only feed the RLC while its SDU queue is short, so
        // the standing queue (and CoDel's authority) stays at the CU.
        while (!q.q->empty() && gnb_.rlc(ue, 1).queued_sdus() < k_rlc_drain_sdus) {
            auto pkt = q.q->dequeue(loop_.now());
            if (!pkt) break;  // CoDel dropped the tail of the queue
            gnb_.deliver_downlink(std::move(*pkt), ue, q.qfi);
        }
        if (!q.q->empty()) any_left = true;
    }
    if (any_left) {
        loop_.schedule_after(k_poll, [this] { poll(); });
        polling_ = true;
    } else {
        polling_ = false;
    }
}

// ------------------------------------------------------- DualPi2 in the RAN --

bool dualpi2_ran_hook::on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb_id,
                                    ran::pdcp_sn_t sn, sim::tick now)
{
    drb_state& d = drb(ue, drb_id);
    d.table.on_ingress(sn, pkt.size_bytes(), now);
    if (pkt.payload_bytes == 0) return true;

    const sim::tick sojourn = d.table.head_age(now);
    if (pkt.ecn_field == net::ecn::ect1) {
        // L4S: step threshold OR coupled probability, as in RFC 9332.
        if (sojourn > cfg_.l4s_step || rng_.bernoulli(d.pi2.p_cl()))
            pkt.ecn_field = net::ecn::ce;
    } else if (pkt.ecn_field == net::ecn::ect0) {
        if (rng_.bernoulli(d.pi2.p_c())) pkt.ecn_field = net::ecn::ce;
    }
    return true;
}

void dualpi2_ran_hook::on_delivery_status(const ran::dl_delivery_status& st, sim::tick now)
{
    drb_state& d = drb(st.ue, st.drb);
    if (st.has_transmitted) d.table.on_transmitted(st.highest_transmitted_sn, st.timestamp, {});
    d.table.prune(now, sim::from_sec(1));
    d.pi2.update(now, [&d](sim::tick t) { return d.table.head_age(t); });
}

}  // namespace l4span::scenario
