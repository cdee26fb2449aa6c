// Baseline in-RAN AQMs the paper compares against.
//
//  * tc_ran (§6.2.2, Irazabal et al.): a CoDel / ECN-CoDel queuing
//    discipline between the SDAP and PDCP layers. The qdisc holds the
//    standing queue at the CU and trickles packets into the RLC only while
//    the RLC SDU queue is short, so the fixed-threshold CoDel logic governs
//    the sojourn time.
//  * dualpi2_ran_hook (§6.3.1): the wired DualPi2 marking rule transplanted
//    into the CU — step-marks L4S packets on the measured head sojourn and
//    PI-marks classic packets — to show a fixed-threshold marker cannot
//    track a volatile wireless egress rate.
#pragma once

#include <memory>
#include <unordered_map>

#include "aqm/codel.h"
#include "aqm/dualpi2.h"
#include "core/profile_table.h"
#include "ran/cu_hook.h"
#include "ran/gnb.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace l4span::scenario {

class tc_ran {
public:
    struct config {
        aqm::codel_config codel;
    };

    tc_ran(sim::event_loop& loop, ran::gnb& gnb, config cfg);

    // Use instead of gnb.deliver_downlink(): packets pass the CoDel queue
    // first and drain into the RLC under flow control.
    void deliver_downlink(net::packet pkt, ran::rnti_t ue, ran::qfi_t qfi);

private:
    struct ue_queue {
        std::unique_ptr<aqm::codel_queue> q;
        ran::qfi_t qfi = 0;
    };

    void poll();

    sim::event_loop& loop_;
    ran::gnb& gnb_;
    config cfg_;
    std::unordered_map<ran::rnti_t, ue_queue> queues_;
    bool polling_ = false;
};

class dualpi2_ran_hook : public ran::cu_hook {
public:
    struct config {
        sim::tick l4s_step = aqm::k_l4s_step;  // also evaluated at 10 ms
        std::uint64_t seed = 11;
    };

    explicit dualpi2_ran_hook(config cfg) : cfg_(cfg), rng_(cfg.seed) {}

    bool on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb,
                      ran::pdcp_sn_t sn, sim::tick now) override;
    bool on_ul_packet(net::packet&, ran::rnti_t, sim::tick) override { return true; }
    void on_delivery_status(const ran::dl_delivery_status& st, sim::tick now) override;

private:
    struct drb_state {
        core::profile_table table;
        double p_prime = 0.0;
        sim::tick last_update = 0;
        sim::tick prev_sojourn = 0;
    };

    drb_state& drb(ran::rnti_t ue, ran::drb_id_t id)
    {
        return drbs_[(static_cast<std::uint32_t>(ue) << 8) | id];
    }

    config cfg_;
    sim::rng rng_;
    std::unordered_map<std::uint32_t, drb_state> drbs_;
};

}  // namespace l4span::scenario
