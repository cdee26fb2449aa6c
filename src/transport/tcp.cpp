#include "transport/tcp.h"

#include <algorithm>

namespace l4span::transport {

// RFC 6298's initial RTO: it times the SYN until the SYN-ACK yields an RTT.
constexpr sim::tick k_initial_rto = sim::from_sec(1);

// ---------------------------------------------------------------- sender --

tcp_sender::tcp_sender(sim::event_loop& loop, tcp_config cfg, cc_ptr cc, send_fn send)
    : loop_(loop), cfg_(cfg),
      ctl_(loop, std::move(cc), cfg.flow_id, cfg.mss, k_initial_rto),
      send_(std::move(send))
{
}

void tcp_sender::start()
{
    net::packet syn;
    syn.ft = cfg_.ft;
    syn.flow_id = cfg_.flow_id;
    syn.pkt_id = ++pkt_counter_;
    syn.sent_time = loop_.now();
    syn.tcp = net::tcp_header{};
    syn.tcp->flags.syn = true;
    if (ctl_.cc().uses_accecn()) {
        syn.tcp->flags.ae = syn.tcp->flags.cwr = syn.tcp->flags.ece = true;  // AccECN offer
    } else {
        syn.tcp->flags.cwr = syn.tcp->flags.ece = true;  // classic ECN offer
    }
    syn_time_ = loop_.now();
    send_(std::move(syn));
    arm_rto();
}

std::uint64_t tcp_sender::window() const
{
    return std::min<std::uint64_t>(ctl_.cc().cwnd(), cfg_.max_cwnd);
}

bool tcp_sender::more_app_data() const
{
    if (stopped_) return false;
    if (cfg_.app_limited) return snd_nxt_ - 1 < app_limit_;
    if (cfg_.flow_bytes == 0) return true;
    return snd_nxt_ - 1 < cfg_.flow_bytes;
}

void tcp_sender::app_write(std::uint64_t bytes)
{
    app_limit_ += bytes;
    if (established_) try_send();
}

void tcp_sender::try_send()
{
    if (!established_ || finished_) return;
    const sim::tick now = loop_.now();
    const double pace = ctl_.cc().pacing_bps();

    while (more_app_data() && bytes_in_flight() + cfg_.mss <= window()) {
        if (ctl_.pacing_defers(now, pace, [this] { try_send(); })) return;
        std::uint32_t len = cfg_.mss;
        if (cfg_.app_limited)
            len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(len, app_limit_ - (snd_nxt_ - 1)));
        else if (cfg_.flow_bytes > 0)
            len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(len, cfg_.flow_bytes - (snd_nxt_ - 1)));
        if (len == 0) break;
        send_segment(snd_nxt_, len, false);
        snd_nxt_ += len;
        ctl_.on_paced_send(now, pace, len);
    }
}

void tcp_sender::send_segment(std::uint64_t seq, std::uint32_t len, bool is_retx)
{
    net::packet p;
    p.ft = cfg_.ft;
    p.flow_id = cfg_.flow_id;
    p.pkt_id = ++pkt_counter_;
    p.sent_time = loop_.now();
    p.payload_bytes = len;
    p.ecn_field = ctl_.data_ecn();
    p.tcp = net::tcp_header{};
    p.tcp->seq = static_cast<std::uint32_t>(seq);
    if (send_cwr_ && !is_retx) {
        p.tcp->flags.cwr = true;
        send_cwr_ = false;
    }

    segment seg;
    seg.seq = seq;
    seg.len = len;
    seg.sent_time = loop_.now();
    seg.delivered_at_send = delivered_;
    seg.retransmitted = is_retx;
    if (is_retx) {
        ++retransmit_count_;
        for (auto& s : segments_) {
            if (s.seq == seq) {
                s.sent_time = seg.sent_time;
                s.retransmitted = true;
                break;
            }
        }
    } else {
        segments_.push_back(seg);
    }
    send_(std::move(p));
    arm_rto();
}

void tcp_sender::on_packet(const net::packet& pkt)
{
    if (!pkt.is_tcp()) return;
    const auto& h = *pkt.tcp;

    if (h.flags.syn && h.flags.ack && !established_) {
        established_ = true;
        handshake_rtt_ = loop_.now() - syn_time_;
        ctl_.seed_rtt(handshake_rtt_);
        // Handshake-completing ACK: this is the "subsequent forward packet"
        // L4Span's RTT* estimator observes.
        net::packet ack;
        ack.ft = cfg_.ft;
        ack.flow_id = cfg_.flow_id;
        ack.pkt_id = ++pkt_counter_;
        ack.sent_time = loop_.now();
        ack.tcp = net::tcp_header{};
        ack.tcp->flags.ack = true;
        ack.tcp->ack_seq = 1;
        send_(std::move(ack));
        try_send();
        return;
    }
    if (h.flags.ack && established_) process_ack(pkt);
}

void tcp_sender::process_ack(const net::packet& pkt)
{
    const sim::tick now = loop_.now();
    const auto& h = *pkt.tcp;
    const std::uint64_t ack = h.ack_seq;

    ack_sample s;
    s.now = now;

    // --- AccECN / classic ECN feedback extraction ---
    bool classic_ece = false;
    const bool accecn = ctl_.cc().uses_accecn();
    if (accecn) {
        std::uint64_t ce_delta_bytes = 0;
        if (h.accecn.present) {
            ce_delta_bytes = eceb_tracker_.update(h.accecn.eceb);
        } else {
            // Fall back to the 3-bit ACE packet counter.
            ce_delta_bytes = ace_tracker_.update(h.ace()) * cfg_.mss;
        }
        s.ce_fraction = ce_fraction(ce_delta_bytes, ack > snd_una_ ? ack - snd_una_ : 0);
    } else {
        classic_ece = h.flags.ece;
    }

    if (ack > snd_una_) {
        const std::uint64_t newly = ack - snd_una_;
        s.newly_acked = static_cast<std::uint32_t>(newly);
        delivered_ += newly;
        dupacks_ = 0;

        // RTT + delivery rate from the newest fully-acked, never-retransmitted segment.
        while (!segments_.empty() && segments_.front().seq + segments_.front().len <= ack) {
            const segment& seg = segments_.front();
            if (!seg.retransmitted) {
                const sim::tick rtt = now - seg.sent_time;
                s.rtt = rtt;
                ctl_.on_rtt_sample(rtt);
                if (rtt > 0)
                    s.delivery_rate_bps = static_cast<double>(delivered_ - seg.delivered_at_send) *
                                          8.0 / sim::to_sec(rtt);
            }
            segments_.pop_front();
        }
        snd_una_ = ack;
        ctl_.reset_backoff();

        if (in_recovery_) {
            if (ack >= recovery_point_) {
                in_recovery_ = false;
            } else if (!segments_.empty()) {
                // NewReno partial ACK: retransmit the next hole.
                send_segment(snd_una_, segments_.front().len, true);
            }
        }
    } else if (ack == snd_una_ && established_ && bytes_in_flight() > 0) {
        // Exact duplicate of the highest cumulative ACK; older (reordered)
        // ACKs are ignored rather than treated as loss hints.
        ++dupacks_;
        if (dupacks_ == 3 && !in_recovery_) {
            enter_recovery(now);
        }
    }

    // ECN path validation, AccECN senders only: the receiver's cumulative
    // byte counters move iff data arrives with ECT(0)/ECT(1)/CE intact.
    if (accecn)
        ctl_.validate_ecn(h.accecn.present &&
                              (h.accecn.ee0b | h.accecn.ee1b | h.accecn.eceb) != 0,
                          delivered_, now);

    s.in_flight = bytes_in_flight();
    s.app_limited = (cfg_.flow_bytes > 0 || cfg_.app_limited) && !more_app_data();
    if (classic_ece) send_cwr_ = true;
    ctl_.on_ack(s, classic_ece);

    // App-limited streams never "finish" — flow_bytes is a bulk-mode knob.
    if (!cfg_.app_limited && cfg_.flow_bytes > 0 && snd_una_ - 1 >= cfg_.flow_bytes &&
        !finished_) {
        finished_ = true;
        finish_time_ = now;
        ctl_.disarm_timer();
        return;
    }

    if (segments_.empty()) ctl_.disarm_timer();
    try_send();
}

void tcp_sender::enter_recovery(sim::tick now)
{
    in_recovery_ = true;
    recovery_point_ = snd_nxt_;
    ctl_.on_loss(now, obs::reason::dupack_loss);
    if (!segments_.empty()) send_segment(segments_.front().seq, segments_.front().len, true);
}

void tcp_sender::on_rto_fire()
{
    if (finished_) return;
    if (!established_) {
        // SYN retransmission.
        ctl_.back_off();
        start();
        return;
    }
    if (segments_.empty()) return;
    ctl_.back_off();
    in_recovery_ = false;
    dupacks_ = 0;
    ctl_.on_rto(loop_.now());
    send_segment(segments_.front().seq, segments_.front().len, true);
}

// -------------------------------------------------------------- receiver --

tcp_receiver::tcp_receiver(sim::event_loop& loop, tcp_config cfg, bool accecn, send_fn send_ack)
    : loop_(loop), cfg_(cfg), accecn_(accecn), send_(std::move(send_ack))
{
}

void tcp_receiver::on_packet(const net::packet& pkt)
{
    if (!pkt.is_tcp()) return;
    const sim::tick now = loop_.now();
    const auto& h = *pkt.tcp;

    if (h.flags.syn && !h.flags.ack) {
        net::packet synack;
        synack.ft = cfg_.ft.reversed();
        synack.flow_id = cfg_.flow_id;
        synack.pkt_id = ++pkt_counter_;
        synack.sent_time = now;
        synack.tcp = net::tcp_header{};
        synack.tcp->flags.syn = true;
        synack.tcp->flags.ack = true;
        synack.tcp->ack_seq = 1;
        if (accecn_) synack.tcp->flags.ae = true;  // AccECN accepted
        else synack.tcp->flags.ece = true;         // classic ECN accepted
        send_(std::move(synack));
        return;
    }
    if (h.flags.ack && pkt.payload_bytes == 0) return;  // bare ACK (handshake completion)
    if (pkt.payload_bytes == 0) return;

    // --- ECN accounting ---
    switch (pkt.ecn_field) {
    case net::ecn::ce:
        ++ce_packets_;
        ++ce_packet_count_;
        ce_bytes_ += pkt.payload_bytes;
        if (!accecn_) ece_latched_ = true;
        break;
    case net::ecn::ect0: ect0_bytes_ += pkt.payload_bytes; break;
    case net::ecn::ect1: ect1_bytes_ += pkt.payload_bytes; break;
    case net::ecn::not_ect: break;
    }
    if (!accecn_ && h.flags.cwr) ece_latched_ = false;

    // --- in-order reassembly ---
    const std::uint64_t seq = h.seq;
    if (seq == rcv_nxt_) {
        rcv_nxt_ += pkt.payload_bytes;
        // Pull any queued out-of-order data that is now contiguous.
        auto it = ooo_.begin();
        while (it != ooo_.end() && it->first <= rcv_nxt_) {
            const std::uint64_t end = it->first + it->second;
            if (end > rcv_nxt_) rcv_nxt_ = end;
            it = ooo_.erase(it);
        }
        if (on_deliver_) on_deliver_(rcv_nxt_ - 1, now);
    } else if (seq > rcv_nxt_) {
        ooo_[seq] = std::max(ooo_[seq], pkt.payload_bytes);
    }
    // duplicates (seq < rcv_nxt_) still generate an ACK

    record(pkt, pkt.payload_bytes, now);

    send_ack(pkt, now);
}

void tcp_receiver::send_ack(const net::packet& /*data*/, sim::tick now)
{
    net::packet ack;
    ack.ft = cfg_.ft.reversed();
    ack.flow_id = cfg_.flow_id;
    ack.pkt_id = ++pkt_counter_;
    ack.sent_time = now;
    ack.tcp = net::tcp_header{};
    ack.tcp->flags.ack = true;
    ack.tcp->ack_seq = static_cast<std::uint32_t>(rcv_nxt_);
    if (accecn_) {
        ack.tcp->set_ace(static_cast<std::uint8_t>(ce_packet_count_ & 0x7));
        ack.tcp->accecn.present = true;
        ack.tcp->accecn.ee0b = ect0_bytes_ & 0xffffff;
        ack.tcp->accecn.eceb = ce_bytes_ & 0xffffff;
        ack.tcp->accecn.ee1b = ect1_bytes_ & 0xffffff;
    } else {
        ack.tcp->flags.ece = ece_latched_;
    }
    send_(std::move(ack));
}

}  // namespace l4span::transport
