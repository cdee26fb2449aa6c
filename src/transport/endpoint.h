// The two endpoints of one flow, as the scenario layer sees them: a
// server-side sender and a UE-side receiver. The TCP engine (tcp.h), the
// QUIC engine (quic_engine.h) and the UDP media transports (media/media.h)
// implement them, so a harness delivers packets and reads per-flow results
// without knowing which transport a flow runs.
//
// The defaults are what a flow without that notion reports: a media sender
// has no congestion window, never re-sends and never finishes.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/time.h"
#include "stats/sample_set.h"
#include "stats/timeseries.h"

namespace l4span::transport {

// Endpoints are handed to the event loop and to each other by address, so
// neither interface can be copied or moved.
class sender {
public:
    sender() = default;
    sender(const sender&) = delete;
    sender& operator=(const sender&) = delete;
    virtual ~sender() = default;

    virtual void start() = 0;
    // Stops generating new data (long-lived flow shutdown).
    virtual void stop() = 0;
    // Receiver-to-sender path: handshake response, ACK or feedback report.
    virtual void on_packet(const net::packet& pkt) = 0;
    // Handover path switch; only connection-ID transports act on it.
    virtual void on_path_switch() {}

    virtual const stats::sample_set& rtt_samples() const = 0;
    virtual std::uint64_t cwnd_bytes() const { return 0; }
    virtual std::uint64_t retransmits() const { return 0; }  // data re-sends
    // True once ECN validation gave up on the path (sticky).
    virtual bool ecn_fallback() const { return false; }
    // A short flow (flow_bytes > 0) finishes when its last byte is acked.
    virtual bool finished() const { return false; }
    virtual sim::tick finish_time() const { return -1; }
};

class receiver {
public:
    receiver() = default;
    receiver(const receiver&) = delete;
    receiver& operator=(const receiver&) = delete;
    virtual ~receiver() = default;

    // Sender-to-receiver path: data (or handshake) arriving at the UE.
    virtual void on_packet(const net::packet& pkt) = 0;
    virtual void on_path_switch() {}

    virtual std::uint64_t received_bytes() const = 0;
    // CE-marked data packets seen (the numerator of the CE-delivery ratio).
    virtual std::uint64_t ce_packets() const { return 0; }
    const stats::sample_set& owd_samples() const { return owd_samples_; }
    const stats::rate_series& goodput() const { return goodput_; }

protected:
    // Accounts one delivered data packet carrying `bytes` of payload.
    void record(const net::packet& pkt, std::int64_t bytes, sim::tick now)
    {
        if (pkt.sent_time >= 0) owd_samples_.add(sim::to_ms(now - pkt.sent_time));
        goodput_.add(now, bytes);
    }

private:
    stats::sample_set owd_samples_;
    stats::rate_series goodput_;
};

}  // namespace l4span::transport
