// DualPi2 coupled dual-queue AQM (RFC 9332).
//
// Used for (a) the wired L4S router in the Fig. 2(a) motivation experiment
// and (b) the §6.3.1 microbenchmark where DualPi2 replaces L4Span inside the
// RAN to show that a fixed sojourn-time marker under-utilizes a volatile
// wireless link.
#pragma once

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

    double base_probability() const { return p_prime_; }

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
    double p_prime_ = 0.0;
    sim::tick last_update_ = 0;
    sim::tick prev_sojourn_ = 0;
    int wrr_credit_ = 0;  // weighted scheduling between L and C queues
};

}  // namespace l4span::aqm
