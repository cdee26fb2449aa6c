// Event-driven QUIC-style transport engine: packet-number sender and
// receiver endpoints, parallel to the byte-sequence TCP engine in tcp.h.
//
// What it models (and why, for the paper's dynamics):
// - Monotonic packet numbers with ACK-range (SACK-style) feedback: a lost
//   packet never blocks acknowledgment of later ones, so loss recovery is
//   RACK-style (packet-number + time threshold, RFC 9002) and retransmission
//   always uses a *new* packet number — "retransmits" are data re-sends,
//   never ambiguous wire-level duplicates.
// - QUIC-native ECN: receivers echo cumulative ECT(0)/ECT(1)/CE packet
//   counts in every ACK frame (RFC 9000 §13.4), the AccECN analogue that
//   scalable senders like Prague need. Controllers plug in through the same
//   congestion_controller interface as TCP — reno/cubic/prague/bbr unchanged.
// - Stream multiplexing with per-stream and connection flow control; an
//   interactive source can put each video frame on its own stream.
// - Connection-ID addressing: packets are matched by CID, not five-tuple, so
//   a connection survives a path switch (X2/Xn handover) with no transport
//   state migration — on_path_switch() just rotates to the next issued CID.
//
// ACK frames are round-tripped through net::quic_wire so ACK packets carry
// their true wire size (ranges + ECN counts change the bytes the RAN sees).
// All of the above is this engine's own, as is the Initial exchange. RTT
// estimation, the PTO with backoff, pacing, ECN validation and the CE
// reaction live in sender_control.h, shared with the TCP engine.
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
#include "transport/quic_types.h"
#include "transport/sender_control.h"

namespace l4span::transport {

class quic_sender {
public:
    using send_fn = std::function<void(net::packet)>;

    quic_sender(sim::event_loop& loop, quic::quic_config cfg, cc_ptr cc, send_fn send);

    // Sends the Initial (padded to 1200 bytes per RFC 9000 §8.1).
    void start();
    // Stops generating fresh bulk data (long-lived flow shutdown).
    void stop() { stopped_ = true; }

    // Appends `bytes` to `stream`'s send buffer (opened on first use); `fin`
    // closes it at the resulting offset. App-limited interactive sources
    // (media::frame_source) drive the engine exclusively through this.
    void write(quic::stream_id_t stream, std::uint64_t bytes, bool fin);

    // Receiver-to-sender path: handshake response or ACK packet arrives.
    void on_packet(const net::packet& pkt);

    // Path switch (handover): rotate to the next pre-issued connection ID.
    // No transport state is touched — that is the point of CID addressing.
    void on_path_switch();

    // --- stats ---
    std::uint64_t delivered_bytes() const { return delivered_; }  // acked stream bytes
    const stats::sample_set& rtt_samples() const { return ctl_.rtt_samples(); }
    bool finished() const { return finished_; }
    sim::tick finish_time() const { return finish_time_; }
    sim::tick handshake_rtt() const { return handshake_rtt_; }
    std::uint64_t cwnd_bytes() const { return ctl_.cc().cwnd(); }
    const congestion_controller& cc() const { return ctl_.cc(); }
    // Data re-sends (RACK-declared losses and PTO probes carrying old data).
    std::uint32_t retransmits() const { return retransmit_count_; }
    std::uint32_t lost_packets() const { return lost_packets_; }
    // True once ECN validation (RFC 9000 §13.4.2) concluded the path does
    // not deliver ECN-marked packets — every ACK_ECN count still zero after
    // enough delivered data — and the sender reverted to Not-ECT sending.
    // Sticky for the connection's lifetime.
    bool ecn_fallback() const { return ctl_.ecn_fallback(); }
    std::uint32_t path_migrations() const { return path_migrations_; }
    quic::cid_t active_cid() const { return quic::k_cid_base + active_cid_index_; }
    std::uint64_t packets_sent() const { return next_pn_; }

    // Congestion-reaction trace points (CE response, RACK loss, PTO
    // collapse, ECN fallback), with the post-reaction cwnd in the payload.
    void set_tracer(obs::tracer* t) { ctl_.set_tracer(t); }

private:
    struct stream_tx {
        std::uint64_t write_offset = 0;  // bytes the app has appended
        std::uint64_t next_offset = 0;   // next fresh byte to put on the wire
        bool unbounded = false;          // long-lived bulk: data never runs out
        bool fin_pending = false;        // FIN scheduled at write_offset
        bool fin_sent = false;
        std::uint64_t max_data = 0;      // peer-granted MAX_STREAM_DATA
    };
    struct sent_packet {
        sim::tick sent_time = 0;
        quic::stream_frame stream;       // len == 0: no stream payload
        std::uint64_t delivered_at_send = 0;
        bool handshake = false;
    };

    using stream_map = std::map<quic::stream_id_t, stream_tx>;

    void try_send();
    void send_packet(const quic::stream_frame& frame, bool handshake);
    void process_ack(const net::quic::ack_frame& af, sim::tick now);
    void detect_losses(quic::pn_t largest, sim::tick now);
    void maybe_finish(sim::tick now);
    void arm_pto() { ctl_.arm_timer([this] { on_pto_fire(); }); }
    void on_pto_fire();
    std::uint64_t window() const;
    stream_map::iterator next_sendable_stream();

    sim::event_loop& loop_;
    quic::quic_config cfg_;
    sender_control ctl_;
    send_fn send_;

    bool established_ = false;
    bool stopped_ = false;
    bool finished_ = false;
    sim::tick finish_time_ = -1;
    sim::tick initial_time_ = -1;
    sim::tick handshake_rtt_ = -1;

    quic::pn_t next_pn_ = 0;
    std::map<quic::pn_t, sent_packet> unacked_;
    std::uint64_t bytes_in_flight_ = 0;        // stream bytes outstanding
    stream_map streams_;
    std::deque<quic::stream_frame> retx_q_;    // lost chunks awaiting re-send

    // Connection-level flow control (fresh data only; re-sends are free).
    std::uint64_t conn_data_sent_ = 0;
    std::uint64_t conn_credit_ = 0;

    sim::tick latest_rtt_ = 0;  // RACK's time threshold reads it (RFC 9002 §6.1.2)

    // Loss-episode tracking: one cc->on_loss per flight, like TCP recovery.
    quic::pn_t recovery_until_pn_ = 0;
    bool in_recovery_ = false;

    // ECN feedback: cumulative packet counters from ACK_ECN frames.
    ecn_counter_tracker ce_tracker_{64};

    // Delivery-rate estimation for BBR.
    std::uint64_t delivered_ = 0;

    int active_cid_index_ = 0;
    std::uint32_t path_migrations_ = 0;
    std::uint64_t pkt_counter_ = 0;
    std::uint32_t retransmit_count_ = 0;
    std::uint32_t lost_packets_ = 0;
};

class quic_receiver {
public:
    using send_fn = std::function<void(net::packet)>;
    // In-order connection bytes after each advance (frame sources in
    // byte-stream mode key off this).
    using deliver_fn = std::function<void(std::uint64_t inorder_bytes, sim::tick)>;
    // A stream closed by FIN became fully delivered.
    using stream_complete_fn = std::function<void(quic::stream_id_t, sim::tick)>;

    quic_receiver(sim::event_loop& loop, quic::quic_config cfg, send_fn send_ack);

    // Data (or Initial) arriving at the client.
    void on_packet(const net::packet& pkt);

    // Path switch: the peer rotates its CID; all issued CIDs stay valid.
    void on_path_switch() { ++path_migrations_; }

    void set_deliver_handler(deliver_fn f) { on_deliver_ = std::move(f); }
    void set_stream_complete_handler(stream_complete_fn f) { on_stream_ = std::move(f); }

    // --- stats ---
    std::uint64_t received_bytes() const { return delivered_total_; }
    stats::sample_set& owd_samples() { return owd_samples_; }
    stats::rate_series& goodput() { return goodput_; }
    std::uint64_t ce_packets() const { return ecn_.ce; }
    const net::quic::ecn_counts& ecn() const { return ecn_; }
    std::uint64_t cid_drops() const { return cid_drops_; }
    std::uint32_t path_migrations() const { return path_migrations_; }
    std::size_t ack_range_count() const { return ranges_.size(); }

private:
    struct stream_rx {
        std::uint64_t next = 0;                        // in-order point
        std::map<std::uint64_t, std::uint32_t> ooo;    // offset -> len
        std::int64_t fin_total = -1;                   // final size once known
        bool complete = false;
    };

    void record_pn(quic::pn_t pn);
    void on_stream_frame(const quic::stream_frame& f, sim::tick now);
    void send_ack(quic::stream_id_t stream, bool had_stream, sim::tick now);

    sim::event_loop& loop_;
    quic::quic_config cfg_;
    send_fn send_;
    deliver_fn on_deliver_;
    stream_complete_fn on_stream_;

    std::vector<net::quic::ack_range> ranges_;  // ascending; capped at 32
    net::quic::ecn_counts ecn_;
    std::map<quic::stream_id_t, stream_rx> streams_;
    std::uint64_t delivered_total_ = 0;

    quic::pn_t tx_pn_ = 0;
    std::uint64_t cid_drops_ = 0;
    std::uint32_t path_migrations_ = 0;
    std::uint64_t pkt_counter_ = 0;
    stats::sample_set owd_samples_;
    stats::rate_series goodput_;
};

}  // namespace l4span::transport
