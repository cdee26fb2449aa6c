// DualPi2 coupled dual-queue AQM (RFC 9332).
//
// Used for (a) the wired L4S router in the Fig. 2(a) motivation experiment
// and (b) the §6.3.1 microbenchmark where DualPi2 replaces L4Span inside the
// RAN to show that a fixed sojourn-time marker under-utilizes a volatile
// wireless link.
#pragma once

#include <algorithm>
#include <deque>

#include "aqm/queue_discipline.h"
#include "sim/rng.h"

namespace l4span::aqm {

// RFC 9332 DualPI2 constants, shared by the wired queue below and the
// CU-side transplant (scenario::dualpi2_ran_hook).
inline constexpr sim::tick k_pi2_target = sim::from_ms(15);  // classic queue delay target
inline constexpr sim::tick k_pi2_t_update = sim::from_ms(16);  // PI update period
inline constexpr double k_pi2_alpha = 0.16;  // PI integral gain (per update, /s units)
inline constexpr double k_pi2_beta = 3.2;    // PI proportional gain
inline constexpr double k_coupling = 2.0;    // k: p_CL = k * p'
inline constexpr sim::tick k_l4s_step = sim::from_ms(1);  // L4S step-marking threshold

// RFC 9332's PI2 controller: the base probability p' and the two marking
// probabilities coupled to it, for the wired queue below and the CU-side
// transplant (scenario::dualpi2_ran_hook).
class pi2_controller {
public:
    // Runs one PI update per t_update period elapsed up to `now`, each on
    // the classic queue's sojourn `sojourn_at(t)` at that period's end.
    // Gains follow RFC 9332: applied once per t_update against the sojourn
    // error in seconds.
    template <typename SojournAt>
    void update(sim::tick now, SojournAt&& sojourn_at)
    {
        while (now - last_update_ >= k_pi2_t_update) {
            last_update_ += k_pi2_t_update;
            const sim::tick sojourn = sojourn_at(last_update_);
            p_prime_ += k_pi2_alpha * sim::to_sec(sojourn - k_pi2_target) +
                        k_pi2_beta * sim::to_sec(sojourn - prev_sojourn_);
            p_prime_ = std::clamp(p_prime_, 0.0, 1.0);
            prev_sojourn_ = sojourn;
        }
    }

    double base_probability() const { return p_prime_; }
    double p_cl() const { return std::min(1.0, k_coupling * p_prime_); }  // L4S
    double p_c() const { return p_prime_ * p_prime_; }  // classic (1/sqrt(p) senders)

private:
    double p_prime_ = 0.0;
    sim::tick last_update_ = 0;
    sim::tick prev_sojourn_ = 0;
};

struct dualpi2_config {
    std::size_t max_bytes = 1 << 24;
    std::uint64_t seed = 42;
};

class dualpi2_queue : public queue_discipline {
public:
    explicit dualpi2_queue(dualpi2_config cfg = {}) : cfg_(cfg), rng_(cfg.seed) {}

    bool enqueue(net::packet p, sim::tick now) override;
    std::optional<net::packet> dequeue(sim::tick now) override;

    std::size_t byte_count() const override { return bytes_l_ + bytes_c_; }
    std::size_t packet_count() const override { return lq_.size() + cq_.size(); }

    double base_probability() const { return pi2_.base_probability(); }

private:
    struct item {
        net::packet pkt;
        sim::tick enq_time;
    };

    void maybe_update(sim::tick now);

    dualpi2_config cfg_;
    sim::rng rng_;
    std::deque<item> lq_, cq_;
    std::size_t bytes_l_ = 0, bytes_c_ = 0;
    pi2_controller pi2_;
    int wrr_credit_ = 0;  // weighted scheduling between L and C queues
};

}  // namespace l4span::aqm
