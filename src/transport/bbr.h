// BBR v1 and v2 (Cardwell et al.), model-based controllers.
//
// v1 probes bandwidth/RTT and largely ignores loss and ECN (appendix B of
// the paper). v2 adds inflight bounds and a DCTCP-like response to AccECN
// CE feedback, which is why the paper groups it with L4S senders.
#pragma once

#include <algorithm>
#include <deque>

#include "transport/cc.h"

namespace l4span::transport {

class bbr : public congestion_controller {
public:
    explicit bbr(std::uint32_t mss, bool v2) : mss_(mss), v2_(v2), cwnd_(10ull * mss) {}

    void on_ack(const ack_sample& s) override;
    void on_loss(sim::tick now) override;
    void on_ecn(sim::tick now) override;
    void on_rto(sim::tick now) override;

    std::uint64_t cwnd() const override;
    double pacing_bps() const override;

    net::ecn data_ecn() const override { return v2_ ? net::ecn::ect1 : net::ecn::ect0; }
    bool uses_accecn() const override { return v2_; }
    std::string name() const override { return v2_ ? "bbr2" : "bbr"; }

    double bandwidth_bps() const { return max_bw_bps(); }

private:
    enum class mode { startup, drain, probe_bw, probe_rtt };

    double max_bw_bps() const;
    std::uint64_t bdp_bytes(double gain) const;
    void advance_cycle(sim::tick now);

    std::uint32_t mss_;
    bool v2_;
    std::uint64_t cwnd_;

    mode mode_ = mode::startup;
    double pacing_gain_ = 2.885;
    double cwnd_gain_ = 2.885;

    // Windowed-max bandwidth filter (per-"round" max over ~10 rounds).
    std::deque<std::pair<std::uint64_t, double>> bw_samples_;  // (round, bps)
    std::uint64_t round_ = 0;
    sim::tick round_start_ = 0;

    sim::tick min_rtt_ = -1;
    sim::tick min_rtt_stamp_ = 0;
    sim::tick probe_rtt_done_ = 0;

    double full_bw_ = 0.0;
    int full_bw_count_ = 0;

    int cycle_index_ = 0;
    sim::tick cycle_stamp_ = 0;

    // v2 inflight bound and ECN accounting.
    std::uint64_t inflight_hi_ = ~0ull;
    std::uint64_t ce_bytes_rtt_ = 0;
    std::uint64_t acked_bytes_rtt_ = 0;
    sim::tick last_ecn_round_ = 0;
};

}  // namespace l4span::transport
