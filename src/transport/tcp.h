// Event-driven TCP engine: sender and receiver endpoints.
//
// Faithful where it matters for the paper's dynamics, this engine owns the
// handshake (L4Span's RTT* estimate keys off the SYN->ACK interval),
// byte-sequence cumulative ACKs, dupack fast retransmit with NewReno-style
// recovery, classic ECN (ECE latched until CWR, CWR echo) and AccECN (ACE
// counter + option byte counters) feedback. RTT estimation, the RTO with
// backoff, pacing, ECN validation and the CE reaction live in
// sender_control.h, shared with the QUIC engine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "net/packet.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "stats/sample_set.h"
#include "stats/timeseries.h"
#include "transport/cc.h"
#include "transport/ecn_feedback.h"
#include "transport/sender_control.h"

namespace l4span::transport {

struct tcp_config {
    std::uint32_t mss = 1400;                    // payload bytes per segment
    std::uint64_t max_cwnd = 4ull << 20;         // receive-window clamp
    std::uint64_t flow_bytes = 0;                // 0 = unbounded (long-lived flow)
    // Application-limited stream: data arrives only through app_write()
    // (interactive frame sources); the flow never "finishes".
    bool app_limited = false;
    net::five_tuple ft;                          // downlink direction (server->UE)
    std::uint64_t flow_id = 0;
};

class tcp_sender {
public:
    using send_fn = std::function<void(net::packet)>;

    tcp_sender(sim::event_loop& loop, tcp_config cfg, cc_ptr cc, send_fn send);

    // Sends the SYN.
    void start();
    // Stops transmitting new data (long-lived flow shutdown at scenario end).
    void stop() { stopped_ = true; }

    // Appends `bytes` to the application stream (app_limited mode only).
    void app_write(std::uint64_t bytes);

    // Receiver-to-sender path: SYNACK or ACK arrives.
    void on_packet(const net::packet& pkt);

    // --- stats ---
    std::uint64_t delivered_bytes() const { return snd_una_ > 0 ? snd_una_ - 1 : 0; }
    const stats::sample_set& rtt_samples() const { return ctl_.rtt_samples(); }
    bool finished() const { return finished_; }
    sim::tick finish_time() const { return finish_time_; }
    sim::tick handshake_rtt() const { return handshake_rtt_; }
    std::uint64_t cwnd_bytes() const { return ctl_.cc().cwnd(); }
    const congestion_controller& cc() const { return ctl_.cc(); }
    std::uint32_t retransmits() const { return retransmit_count_; }
    // True once the sender concluded the path does not deliver ECN (every
    // AccECN feedback counter still zero after enough delivered data — an
    // ECT-stripping middlebox) and reverted to Not-ECT sending with pure
    // loss-based control. Sticky for the connection's lifetime.
    bool ecn_fallback() const { return ctl_.ecn_fallback(); }

    // Congestion-reaction trace points (CE response, loss recovery, RTO,
    // ECN fallback), with the post-reaction cwnd in the payload.
    void set_tracer(obs::tracer* t) { ctl_.set_tracer(t); }

private:
    struct segment {
        std::uint64_t seq;   // first byte (1-based stream offset)
        std::uint32_t len;
        sim::tick sent_time;
        std::uint64_t delivered_at_send;
        bool retransmitted = false;
    };

    void try_send();
    void send_segment(std::uint64_t seq, std::uint32_t len, bool is_retx);
    void process_ack(const net::packet& pkt);
    void enter_recovery(sim::tick now);
    void arm_rto() { ctl_.arm_timer([this] { on_rto_fire(); }); }
    void on_rto_fire();
    std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
    std::uint64_t window() const;
    bool more_app_data() const;

    sim::event_loop& loop_;
    tcp_config cfg_;
    sender_control ctl_;
    send_fn send_;

    bool established_ = false;
    bool stopped_ = false;
    bool finished_ = false;
    sim::tick finish_time_ = -1;
    sim::tick syn_time_ = -1;
    sim::tick handshake_rtt_ = -1;

    std::uint64_t snd_una_ = 1;
    std::uint64_t snd_nxt_ = 1;
    std::deque<segment> segments_;

    // Recovery state.
    int dupacks_ = 0;
    bool in_recovery_ = false;
    std::uint64_t recovery_point_ = 0;

    // ECN state. The cumulative AccECN counters (24-bit byte option, 3-bit
    // ACE packet field) are differentiated by the wrap-aware trackers shared
    // with the QUIC engine (ecn_feedback.h).
    bool send_cwr_ = false;          // classic: echo CWR on next data segment
    ecn_counter_tracker eceb_tracker_{24};
    ecn_counter_tracker ace_tracker_{3};

    // App-limited stream bound (cumulative bytes written via app_write).
    std::uint64_t app_limit_ = 0;

    // Delivery-rate estimation for BBR.
    std::uint64_t delivered_ = 0;

    std::uint64_t pkt_counter_ = 0;
    std::uint32_t retransmit_count_ = 0;
};

class tcp_receiver {
public:
    using send_fn = std::function<void(net::packet)>;
    // In-order delivered byte count after each advance (frame sources key
    // per-frame completion off this).
    using deliver_fn = std::function<void(std::uint64_t inorder_bytes, sim::tick)>;

    tcp_receiver(sim::event_loop& loop, tcp_config cfg, bool accecn, send_fn send_ack);

    // Data (or SYN) arriving at the client.
    void on_packet(const net::packet& pkt);

    void set_deliver_handler(deliver_fn f) { on_deliver_ = std::move(f); }

    // --- stats ---
    std::uint64_t received_bytes() const { return rcv_nxt_ - 1; }
    stats::sample_set& owd_samples() { return owd_samples_; }
    stats::rate_series& goodput() { return goodput_; }
    std::uint64_t ce_packets() const { return ce_packets_; }

private:
    void send_ack(const net::packet& data, sim::tick now);

    sim::event_loop& loop_;
    tcp_config cfg_;
    bool accecn_;
    send_fn send_;
    deliver_fn on_deliver_;

    std::uint64_t rcv_nxt_ = 1;
    std::map<std::uint64_t, std::uint32_t> ooo_;  // seq -> len of out-of-order data

    // Classic ECN echo state: ECE latched until CWR observed.
    bool ece_latched_ = false;
    // AccECN receiver counters.
    std::uint32_t ce_packet_count_ = 5;  // ACE starts at 5 per the draft
    std::uint32_t ect0_bytes_ = 0;
    std::uint32_t ect1_bytes_ = 0;
    std::uint32_t ce_bytes_ = 0;

    std::uint64_t ce_packets_ = 0;
    std::uint64_t pkt_counter_ = 0;
    stats::sample_set owd_samples_;
    stats::rate_series goodput_;
};

}  // namespace l4span::transport
