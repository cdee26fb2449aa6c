// CoDel (Controlling Queue Delay, Nichols & Jacobson) and its ECN-marking
// variant. This is the TC-RAN baseline the paper compares against (§6.2.2):
// TC-RAN installs CoDel / ECN-CoDel between the SDAP and PDCP layers with a
// fixed sojourn target.
#pragma once

#include <cstdint>
#include <deque>

#include "aqm/queue_discipline.h"

namespace l4span::aqm {

inline constexpr sim::tick k_codel_target = sim::from_ms(5);
inline constexpr sim::tick k_codel_interval = sim::from_ms(100);
inline constexpr std::size_t k_codel_max_bytes = 1 << 24;

struct codel_config {
    bool ecn_mode = false;  // true: mark ECT packets instead of dropping
};

class codel_queue : public queue_discipline {
public:
    explicit codel_queue(codel_config cfg = {}) : cfg_(cfg) {}

    bool enqueue(net::packet p, sim::tick now) override;
    std::optional<net::packet> dequeue(sim::tick now) override;

    std::size_t byte_count() const override { return bytes_; }
    std::size_t packet_count() const override { return q_.size(); }

private:
    struct item {
        net::packet pkt;
        sim::tick enq_time;
    };

    bool should_act(sim::tick sojourn, sim::tick now);
    sim::tick control_law(sim::tick t) const;
    // Applies CoDel's action to the head packet: returns true when the
    // packet was consumed (dropped); false when it was marked (or ECN-incapable
    // in drop mode resolves to drop).
    bool act_on(net::packet& p, sim::tick now);

    codel_config cfg_;
    std::deque<item> q_;
    std::size_t bytes_ = 0;

    sim::tick first_above_time_ = 0;
    sim::tick drop_next_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t last_count_ = 0;
    bool dropping_ = false;
};

}  // namespace l4span::aqm
