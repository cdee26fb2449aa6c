#include "aqm/codel.h"

#include <cmath>

namespace l4span::aqm {

bool codel_queue::enqueue(net::packet p, sim::tick now)
{
    if (bytes_ + p.size_bytes() > k_codel_max_bytes) {
        ++drops_;
        trace(now, obs::point::aqm_drop, obs::reason::queue_overflow, p);
        return false;
    }
    bytes_ += p.size_bytes();
    q_.push_back({std::move(p), now});
    return true;
}

sim::tick codel_queue::control_law(sim::tick t) const
{
    return t + static_cast<sim::tick>(static_cast<double>(k_codel_interval) /
                                      std::sqrt(static_cast<double>(count_)));
}

bool codel_queue::act_on(net::packet& p, sim::tick now)
{
    if (cfg_.ecn_mode && net::is_ect(p.ecn_field)) {
        p.ecn_field = net::ecn::ce;
        ++marks_;
        trace(now, obs::point::aqm_mark, obs::reason::codel_mark, p);
        return false;
    }
    ++drops_;
    trace(now, obs::point::aqm_drop, obs::reason::codel_drop, p);
    return true;
}

bool codel_queue::should_act(sim::tick sojourn, sim::tick now)
{
    if (sojourn < k_codel_target || bytes_ <= 5 * 1500) {
        first_above_time_ = 0;
        return false;
    }
    if (first_above_time_ == 0) {
        first_above_time_ = now + k_codel_interval;
        return false;
    }
    return now >= first_above_time_;
}

std::optional<net::packet> codel_queue::dequeue(sim::tick now)
{
    while (!q_.empty()) {
        item it = std::move(q_.front());
        q_.pop_front();
        bytes_ -= it.pkt.size_bytes();
        const sim::tick sojourn = now - it.enq_time;

        if (cfg_.ecn_mode) {
            // ECN-CoDel as TC-RAN deploys it: a fixed sojourn threshold —
            // every packet above target is marked. On a bursty RLC drain the
            // sojourn crosses the fixed threshold constantly, which is the
            // under-utilization the L4Span paper measures (§6.2.2).
            if (sojourn >= k_codel_target && net::is_ect(it.pkt.ecn_field)) {
                it.pkt.ecn_field = net::ecn::ce;
                ++marks_;
                trace(now, obs::point::aqm_mark, obs::reason::codel_mark, it.pkt);
            }
            return it.pkt;
        }

        if (dropping_) {
            if (sojourn < k_codel_target) {
                dropping_ = false;
                return it.pkt;
            }
            if (now >= drop_next_) {
                ++count_;
                drop_next_ = control_law(drop_next_);
                if (act_on(it.pkt, now)) continue;  // dropped: take the next packet
            }
            return it.pkt;
        }

        if (should_act(sojourn, now)) {
            dropping_ = true;
            // Resume at a higher rate if we were recently dropping.
            count_ =
                (count_ > 2 && now - drop_next_ < 8 * k_codel_interval) ? count_ - 2 : 1;
            last_count_ = count_;
            drop_next_ = control_law(now);
            if (act_on(it.pkt, now)) continue;
        }
        return it.pkt;
    }
    first_above_time_ = 0;
    return std::nullopt;
}

}  // namespace l4span::aqm
