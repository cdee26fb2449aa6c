#include "aqm/dualpi2.h"

#include <algorithm>

namespace l4span::aqm {

bool dualpi2_queue::enqueue(net::packet p, sim::tick now)
{
    maybe_update(now);
    if (bytes_l_ + bytes_c_ + p.size_bytes() > cfg_.max_bytes) {
        ++drops_;
        trace(now, obs::point::aqm_drop, obs::reason::queue_overflow, p);
        return false;
    }
    // RFC 9331 classifier: ECT(1) and CE go to the L queue.
    const bool l4s = p.ecn_field == net::ecn::ect1 || p.ecn_field == net::ecn::ce;
    if (l4s) {
        bytes_l_ += p.size_bytes();
        lq_.push_back({std::move(p), now});
    } else {
        bytes_c_ += p.size_bytes();
        cq_.push_back({std::move(p), now});
    }
    return true;
}

void dualpi2_queue::maybe_update(sim::tick now)
{
    while (now - last_update_ >= k_pi2_t_update) {
        last_update_ += k_pi2_t_update;
        // PI control on the classic queue sojourn (estimated from head age).
        // Gains follow RFC 9332: applied once per t_update against the
        // sojourn error in seconds.
        const sim::tick sojourn = cq_.empty() ? 0 : (last_update_ - cq_.front().enq_time);
        const double err_s = sim::to_sec(sojourn - k_pi2_target);
        const double delta_s = sim::to_sec(sojourn - prev_sojourn_);
        p_prime_ += k_pi2_alpha * err_s + k_pi2_beta * delta_s;
        p_prime_ = std::clamp(p_prime_, 0.0, 1.0);
        prev_sojourn_ = sojourn;
    }
}

std::optional<net::packet> dualpi2_queue::dequeue(sim::tick now)
{
    maybe_update(now);
    // Weighted round-robin with L-queue priority: serve L while it has
    // packets, but let C through every few packets to avoid starvation.
    for (;;) {
        const bool serve_l = !lq_.empty() && (cq_.empty() || wrr_credit_ < 4);
        if (!serve_l && cq_.empty() && lq_.empty()) return std::nullopt;

        if (serve_l) {
            ++wrr_credit_;
            item it = std::move(lq_.front());
            lq_.pop_front();
            bytes_l_ -= it.pkt.size_bytes();
            const sim::tick sojourn = now - it.enq_time;
            // Native L4S marking: step threshold OR coupled probability.
            const double p_cl = std::min(1.0, k_coupling * p_prime_);
            if (sojourn > k_l4s_step || rng_.bernoulli(p_cl)) {
                if (net::is_ect(it.pkt.ecn_field) || net::is_ce(it.pkt.ecn_field)) {
                    it.pkt.ecn_field = net::ecn::ce;
                    ++marks_;
                    trace(now, obs::point::aqm_mark, obs::reason::l4s_mark, it.pkt);
                }
            }
            return it.pkt;
        }

        wrr_credit_ = 0;
        if (cq_.empty()) continue;
        item it = std::move(cq_.front());
        cq_.pop_front();
        bytes_c_ -= it.pkt.size_bytes();
        // Classic: squared probability (matches 1/sqrt(p) senders).
        const double p_c = p_prime_ * p_prime_;
        if (rng_.bernoulli(p_c)) {
            if (net::is_ect(it.pkt.ecn_field)) {
                it.pkt.ecn_field = net::ecn::ce;
                ++marks_;
                trace(now, obs::point::aqm_mark, obs::reason::classic_mark, it.pkt);
            } else {
                ++drops_;
                trace(now, obs::point::aqm_drop, obs::reason::classic_drop, it.pkt);
                continue;  // non-ECN classic traffic is dropped
            }
        }
        return it.pkt;
    }
}

}  // namespace l4span::aqm
