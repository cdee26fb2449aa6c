// Congestion-controller interface for the TCP and QUIC engines.
//
// Controllers see per-ACK samples (with the AccECN / ACK-ECN CE fraction),
// classic-ECN, loss and RTO events, and expose a congestion window plus an
// optional pacing rate. The marking strategies in L4Span are derived from
// these controllers' response functions, so their control laws follow the
// published algorithms.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/ecn.h"
#include "sim/time.h"

namespace l4span::transport {

struct ack_sample {
    std::uint32_t newly_acked = 0;    // bytes newly cumulatively acked
    sim::tick rtt = -1;               // RTT of the newest acked segment (-1: none)
    sim::tick srtt = 0;               // smoothed RTT maintained by the engine
    double ce_fraction = 0.0;         // AccECN: CE bytes / newly acked bytes
    std::uint64_t in_flight = 0;      // bytes outstanding after this ACK
    double delivery_rate_bps = 0.0;   // rate sample for BBR-style controllers
    bool app_limited = false;
    sim::tick now = 0;
};

class congestion_controller {
public:
    virtual ~congestion_controller() = default;

    virtual void on_ack(const ack_sample& s) = 0;
    // Fast-retransmit-level loss (at most once per recovery episode).
    virtual void on_loss(sim::tick now) = 0;
    // Classic ECN congestion signal (engine rate-limits to once per RTT).
    virtual void on_ecn(sim::tick now) { on_loss(now); }
    virtual void on_rto(sim::tick now) = 0;

    virtual std::uint64_t cwnd() const = 0;
    // 0 disables pacing (pure ACK clocking).
    virtual double pacing_bps() const { return 0.0; }

    // ECN codepoint this sender stamps on data packets.
    virtual net::ecn data_ecn() const = 0;
    // Whether the flow negotiates AccECN feedback (L4S senders).
    virtual bool uses_accecn() const { return false; }

    virtual std::string name() const = 0;
};

using cc_ptr = std::unique_ptr<congestion_controller>;

// Factory by algorithm name ("reno", "cubic", "prague", "bbr", "bbr2").
cc_ptr make_cc(const std::string& algorithm, std::uint32_t mss);

}  // namespace l4span::transport
