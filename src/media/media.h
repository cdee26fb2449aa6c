// Interactive-application transport over UDP: a paced media sender, a
// receiver that returns periodic RTP-style feedback reports, and pluggable
// rate controllers (SCReAM and UDP Prague, §6.2.3 of the paper).
//
// These flows exercise L4Span's downlink-marking fallback: feedback lives in
// the UDP payload, so the RAN cannot rewrite it (no short-circuiting) and
// the receiver reads CE from the outer IP header.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "transport/endpoint.h"

namespace l4span::media {

// Receiver-to-sender report (rides inside a UDP payload).
struct feedback_report {
    std::uint64_t highest_pkt_id = 0;
    std::uint64_t received_bytes = 0;
    std::uint64_t ce_bytes = 0;
    std::uint64_t ce_packets = 0;
    std::uint64_t total_packets = 0;
    sim::tick newest_owd = 0;  // one-way delay of the newest data packet
    sim::tick report_time = 0;
};

class rate_controller {
public:
    virtual ~rate_controller() = default;
    virtual void on_feedback(const feedback_report& fb, sim::tick rtt, sim::tick now) = 0;
    virtual double target_bps() const = 0;
    virtual std::string name() const = 0;
};

inline constexpr std::uint32_t k_packet_bytes = 1200;  // typical RTP video packet
inline constexpr double k_min_rate_bps = 150e3;        // rate controller floor
inline constexpr sim::tick k_feedback_interval = sim::from_ms(30);  // report cadence
// Both SCReAM and UDP Prague are L4S flows: every media packet carries ECT(1).
inline constexpr net::ecn k_data_ecn = net::ecn::ect1;

struct media_config {
    net::five_tuple ft;  // downlink direction
    std::uint64_t flow_id = 0;
    double max_rate_bps = 30e6;
    double start_rate_bps = 1e6;
};

class media_sender final : public transport::sender {
public:
    using send_fn = std::function<void(net::packet)>;

    media_sender(sim::event_loop& loop, media_config cfg,
                 std::unique_ptr<rate_controller> rc, send_fn send);

    void start() override;
    void stop() override { running_ = false; }

    // Feedback packet arriving from the receiver.
    void on_packet(const net::packet& pkt) override;

    double current_rate_bps() const { return rc_->target_bps(); }
    const stats::sample_set& rtt_samples() const override { return rtt_samples_; }
    const rate_controller& controller() const { return *rc_; }

private:
    void emit();

    sim::event_loop& loop_;
    media_config cfg_;
    std::unique_ptr<rate_controller> rc_;
    send_fn send_;
    bool running_ = false;
    std::uint64_t pkt_counter_ = 0;
    std::uint64_t sent_bytes_ = 0;
    stats::sample_set rtt_samples_;
};

class media_receiver final : public transport::receiver {
public:
    using send_fn = std::function<void(net::packet)>;

    media_receiver(sim::event_loop& loop, media_config cfg, send_fn send_feedback);

    void on_packet(const net::packet& pkt) override;

    std::uint64_t received_bytes() const override
    {
        return static_cast<std::uint64_t>(goodput().total_bytes());
    }

private:
    void emit_feedback();

    sim::event_loop& loop_;
    media_config cfg_;
    send_fn send_;
    feedback_report acc_;
    std::uint64_t fb_counter_ = 0;
    bool timer_running_ = false;
};

std::unique_ptr<rate_controller> make_scream(const media_config& cfg);
std::unique_ptr<rate_controller> make_udp_prague(const media_config& cfg);

}  // namespace l4span::media
