#include "transport/quic_engine.h"

#include <algorithm>

namespace l4span::transport {

namespace {

constexpr std::uint32_t k_initial_bytes = 1200;  // RFC 9000 §8.1 padding
constexpr std::uint64_t k_conn_flow_window = 16ull << 20;
constexpr sim::tick k_initial_pto = sim::from_ms(200);  // the PTO floor, until an RTT
constexpr quic::pn_t k_pn_loss_threshold = 3;  // RACK packet-reordering threshold

const quic::packet_payload* payload_of(const net::packet& pkt)
{
    if (!pkt.is_udp() || !pkt.app_data) return nullptr;
    return static_cast<const quic::packet_payload*>(pkt.app_data.get());
}

}  // namespace

// ---------------------------------------------------------------- sender --

quic_sender::quic_sender(sim::event_loop& loop, quic::quic_config cfg, cc_ptr cc,
                         send_fn send)
    : loop_(loop), cfg_(cfg),
      ctl_(loop, std::move(cc), cfg.flow_id, cfg.mtu_payload, k_initial_pto),
      send_(std::move(send))
{
    conn_credit_ = k_conn_flow_window;
    // QUIC ECN counters start at 0 (RFC 9000 §13.4), unlike TCP's ACE field:
    // prime the tracker so a CE mark in the very first ACK is not absorbed
    // as baseline.
    ce_tracker_.update(0);
}

void quic_sender::start()
{
    if (!cfg_.app_limited) {
        // Bulk mode: stream 0 carries the whole flow, like the TCP engine's
        // byte stream. flow_bytes == 0 means a long-lived flow.
        stream_tx& s = streams_[0];
        s.max_data = cfg_.stream_flow_window;
        if (cfg_.flow_bytes > 0) {
            s.write_offset = cfg_.flow_bytes;
            s.fin_pending = true;
        } else {
            s.unbounded = true;
        }
    }
    initial_time_ = loop_.now();
    send_packet(quic::stream_frame{}, /*handshake=*/true);
}

void quic_sender::write(quic::stream_id_t stream, std::uint64_t bytes, bool fin)
{
    stream_tx& s = streams_[stream];
    if (s.max_data == 0) s.max_data = cfg_.stream_flow_window;
    s.write_offset += bytes;
    if (fin) s.fin_pending = true;
    if (established_) try_send();
}

void quic_sender::on_path_switch()
{
    if (active_cid_index_ + 1 < quic::k_issued_cids) ++active_cid_index_;
    ++path_migrations_;
}

std::uint64_t quic_sender::window() const
{
    return std::min<std::uint64_t>(ctl_.cc().cwnd(), cfg_.max_cwnd);
}

quic_sender::stream_map::iterator quic_sender::next_sendable_stream()
{
    auto it = streams_.begin();
    while (it != streams_.end()) {
        stream_tx& s = it->second;
        // Drained frame streams (everything sent, FIN on the wire) are done:
        // re-sends come from retx_q_ copies, so the entry can go. Bulk
        // stream 0 stays for maybe_finish's completion check.
        if (cfg_.app_limited && s.fin_sent && s.next_offset == s.write_offset) {
            it = streams_.erase(it);
            continue;
        }
        const bool has_fresh =
            (s.unbounded && !stopped_) || s.next_offset < s.write_offset;
        if (has_fresh && s.next_offset < s.max_data && conn_data_sent_ < conn_credit_)
            return it;
        ++it;
    }
    return streams_.end();
}

void quic_sender::try_send()
{
    if (!established_ || finished_) return;
    const sim::tick now = loop_.now();
    const double pace = ctl_.cc().pacing_bps();

    while (true) {
        // Pick the next chunk: lost data first, then fresh stream data in
        // stream-id order (frame streams are opened in frame order, so this
        // is oldest-frame-first).
        quic::stream_frame frame;
        bool is_retx = false;
        if (!retx_q_.empty()) {
            frame = retx_q_.front();
            is_retx = true;
        } else {
            const auto sit = next_sendable_stream();
            if (sit == streams_.end()) return;  // app- or flow-control-limited
            const stream_tx& s = sit->second;
            std::uint64_t avail =
                s.unbounded ? cfg_.mtu_payload : s.write_offset - s.next_offset;
            avail = std::min(avail, s.max_data - s.next_offset);
            avail = std::min(avail, conn_credit_ - conn_data_sent_);
            const std::uint32_t len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(avail, cfg_.mtu_payload));
            if (len == 0) return;
            frame.id = sit->first;
            frame.offset = s.next_offset;
            frame.len = len;
            frame.fin = s.fin_pending && !s.unbounded &&
                        s.next_offset + len == s.write_offset;
        }
        if (bytes_in_flight_ + frame.len > window()) return;
        if (ctl_.pacing_defers(now, pace, [this] { try_send(); })) return;

        if (is_retx) {
            retx_q_.pop_front();
            ++retransmit_count_;
        } else {
            stream_tx& s = streams_[frame.id];
            s.next_offset += frame.len;
            s.fin_sent = s.fin_sent || frame.fin;
            conn_data_sent_ += frame.len;
        }
        send_packet(frame, /*handshake=*/false);
        ctl_.on_paced_send(now, pace, frame.len);
    }
}

void quic_sender::send_packet(const quic::stream_frame& frame, bool handshake)
{
    net::packet p;
    p.ft = cfg_.ft;
    p.flow_id = cfg_.flow_id;
    p.pkt_id = ++pkt_counter_;
    p.sent_time = loop_.now();
    p.ecn_field = handshake ? net::ecn::not_ect : ctl_.data_ecn();
    p.payload_bytes = handshake ? k_initial_bytes
                                : frame.len + quic::k_stream_frame_overhead +
                                      quic::k_short_header_bytes;

    auto payload = std::make_shared<quic::packet_payload>();
    payload->dcid = active_cid();
    payload->pn = next_pn_;
    payload->handshake = handshake;
    if (frame.len > 0) payload->stream = frame;
    p.app_data = std::move(payload);

    sent_packet rec;
    rec.sent_time = loop_.now();
    rec.stream = frame;
    rec.delivered_at_send = delivered_;
    rec.handshake = handshake;
    unacked_.emplace(next_pn_, rec);
    ++next_pn_;
    bytes_in_flight_ += frame.len;

    send_(std::move(p));
    arm_pto();
}

void quic_sender::on_packet(const net::packet& pkt)
{
    const quic::packet_payload* payload = payload_of(pkt);
    if (!payload) return;
    const sim::tick now = loop_.now();

    if (payload->handshake && !established_) {
        established_ = true;
        handshake_rtt_ = now - initial_time_;
        ctl_.seed_rtt(handshake_rtt_);
        ctl_.reset_backoff();
        // The Initial (and any PTO re-sends of it) is implicitly confirmed.
        for (auto it = unacked_.begin(); it != unacked_.end();) {
            if (it->second.handshake) it = unacked_.erase(it);
            else ++it;
        }
        if (unacked_.empty()) ctl_.disarm_timer();
        try_send();
        return;
    }
    if (!established_) return;

    // Flow-control credit rides the ACK path and only ever extends.
    if (payload->credit) {
        conn_credit_ = std::max(conn_credit_, payload->credit->conn_max_data);
        if (payload->credit->stream) {
            auto it = streams_.find(*payload->credit->stream);
            if (it != streams_.end())
                it->second.max_data =
                    std::max(it->second.max_data, payload->credit->stream_max_data);
        }
    }
    if (payload->ack) process_ack(*payload->ack, now);
}

void quic_sender::process_ack(const net::quic::ack_frame& af, sim::tick now)
{
    ack_sample s;
    s.now = now;
    std::uint64_t newly_bytes = 0;
    std::uint64_t newly_pkts = 0;
    bool largest_newly_acked = false;
    sim::tick largest_sent_time = -1;
    std::uint64_t rate_delivered_at_send = 0;
    sim::tick rate_sent_time = -1;

    for (const auto& range : af.ranges) {
        auto it = unacked_.lower_bound(range.first);
        while (it != unacked_.end() && it->first <= range.last) {
            const sent_packet& sp = it->second;
            newly_bytes += sp.stream.len;
            ++newly_pkts;
            bytes_in_flight_ -= sp.stream.len;
            if (it->first == af.largest) {
                largest_newly_acked = true;
                largest_sent_time = sp.sent_time;
            }
            // Rate sample from the newest acked packet (packet numbers are
            // never reused, so every sample is unambiguous).
            if (sp.sent_time > rate_sent_time) {
                rate_sent_time = sp.sent_time;
                rate_delivered_at_send = sp.delivered_at_send;
            }
            if (sp.stream.len > 0 && !retx_q_.empty()) {
                // A chunk declared lost but now acked late: drop the pending
                // re-send instead of sending spurious duplicate data.
                for (auto rit = retx_q_.begin(); rit != retx_q_.end(); ++rit) {
                    if (rit->id == sp.stream.id && rit->offset == sp.stream.offset) {
                        retx_q_.erase(rit);
                        break;
                    }
                }
            }
            it = unacked_.erase(it);
        }
    }

    if (largest_newly_acked) {
        latest_rtt_ = std::max<sim::tick>(
            now - largest_sent_time - sim::from_us(static_cast<double>(af.ack_delay_us)),
            1);
        ctl_.on_rtt_sample(latest_rtt_);
    }
    if (newly_pkts > 0) {
        delivered_ += newly_bytes;
        ctl_.reset_backoff();
        if (rate_sent_time >= 0 && now > rate_sent_time)
            s.delivery_rate_bps = static_cast<double>(delivered_ - rate_delivered_at_send) *
                                  8.0 / sim::to_sec(now - rate_sent_time);
    }

    // ECN feedback: cumulative CE packet counts, wrap-aware via the tracker
    // shared with the TCP AccECN path.
    bool classic_ce = false;
    if (af.ecn_present) {
        const std::uint64_t ce_delta = ce_tracker_.update(af.ecn.ce);
        // Non-scalable senders treat any CE increment like a classic ECE echo.
        if (ctl_.cc().uses_accecn()) {
            s.ce_fraction = ce_fraction(ce_delta, newly_pkts);
        } else {
            classic_ce = ce_delta > 0;
        }
        // ECN validation: the receiver's counts move iff packets arrive
        // with their ECT/CE codepoint intact.
        ctl_.validate_ecn((af.ecn.ect0 | af.ecn.ect1 | af.ecn.ce) != 0, delivered_, now);
    }

    s.newly_acked = static_cast<std::uint32_t>(newly_bytes);
    s.rtt = largest_newly_acked ? latest_rtt_ : -1;
    s.in_flight = bytes_in_flight_;
    s.app_limited = retx_q_.empty() && next_sendable_stream() == streams_.end();
    ctl_.on_ack(s, classic_ce);

    detect_losses(af.largest, now);
    maybe_finish(now);
    if (finished_) return;

    if (unacked_.empty()) ctl_.disarm_timer();
    try_send();
}

void quic_sender::detect_losses(quic::pn_t largest, sim::tick now)
{
    const sim::tick loss_delay = std::max<sim::tick>(
        9 * std::max(ctl_.srtt(), latest_rtt_) / 8, sim::from_ms(1));
    auto it = unacked_.begin();
    while (it != unacked_.end() && it->first < largest) {
        const bool pn_lost = largest - it->first >= k_pn_loss_threshold;
        const bool time_lost = it->second.sent_time <= now - loss_delay;
        if (!pn_lost && !time_lost) break;  // later packets are younger still
        ++lost_packets_;
        bytes_in_flight_ -= it->second.stream.len;
        if (it->second.stream.len > 0) {
            // A PTO probe may have duplicated this chunk under another PN:
            // queue it for re-send only if no copy is already pending or
            // still in flight, or the receiver would see duplicate data
            // (and retransmit_count_ would overstate the repair work).
            const quic::stream_frame& chunk = it->second.stream;
            bool outstanding = false;
            for (const auto& q : retx_q_)
                if (q.id == chunk.id && q.offset == chunk.offset) {
                    outstanding = true;
                    break;
                }
            if (!outstanding)
                for (const auto& [pn, sp] : unacked_)
                    if (pn != it->first && sp.stream.len > 0 &&
                        sp.stream.id == chunk.id && sp.stream.offset == chunk.offset) {
                        outstanding = true;
                        break;
                    }
            if (!outstanding) retx_q_.push_back(chunk);
        }
        if (it->first >= recovery_until_pn_) {
            // One congestion response per flight, like TCP's recovery episode.
            recovery_until_pn_ = next_pn_;
            ctl_.on_loss(now, obs::reason::rack_loss);
        }
        it = unacked_.erase(it);
    }
}

void quic_sender::maybe_finish(sim::tick now)
{
    // App-limited connections never "finish" (flow_bytes is bulk-mode only,
    // mirroring the TCP engine).
    if (finished_ || cfg_.app_limited || cfg_.flow_bytes == 0) return;
    const auto it = streams_.find(0);
    if (it == streams_.end()) return;
    const stream_tx& s = it->second;
    if (s.fin_sent && s.next_offset == s.write_offset && bytes_in_flight_ == 0 &&
        retx_q_.empty()) {
        finished_ = true;
        finish_time_ = now;
        ctl_.disarm_timer();
    }
}

void quic_sender::on_pto_fire()
{
    if (finished_) return;
    if (!established_) {
        ctl_.back_off();
        send_packet(quic::stream_frame{}, /*handshake=*/true);
        return;
    }
    if (unacked_.empty()) return;
    // Persistent congestion: repeated PTOs collapse the window like an RTO.
    if (ctl_.back_off() >= 2) ctl_.on_rto(loop_.now());
    // Probe with the oldest outstanding data under a new packet number.
    for (const auto& [pn, sp] : unacked_) {
        if (sp.stream.len > 0) {
            ++retransmit_count_;
            send_packet(sp.stream, /*handshake=*/false);
            return;
        }
    }
    arm_pto();  // nothing probeable: keep the timer alive
}

// -------------------------------------------------------------- receiver --

quic_receiver::quic_receiver(sim::event_loop& loop, quic::quic_config cfg,
                             send_fn send_ack)
    : loop_(loop), cfg_(cfg), send_(std::move(send_ack))
{
}

void quic_receiver::record_pn(quic::pn_t pn)
{
    // Ranges are kept ascending; arrivals are near-monotonic so scanning
    // from the back touches one or two entries.
    for (std::size_t i = ranges_.size(); i-- > 0;) {
        auto& r = ranges_[i];
        if (pn >= r.first && pn <= r.last) return;  // duplicate
        if (pn == r.last + 1) {
            r.last = pn;
            // Coalesce with the next range if the gap closed.
            if (i + 1 < ranges_.size() && ranges_[i + 1].first == pn + 1) {
                r.last = ranges_[i + 1].last;
                ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
            }
            return;
        }
        if (pn + 1 == r.first) {
            r.first = pn;
            if (i > 0 && ranges_[i - 1].last + 1 == pn) {
                ranges_[i - 1].last = r.last;
                ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i));
            }
            return;
        }
        if (pn > r.last) {
            ranges_.insert(ranges_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                           {pn, pn});
            return;
        }
    }
    ranges_.insert(ranges_.begin(), {pn, pn});
    // Bound the ACK frame: drop the oldest run once past 32 ranges (the
    // sender has long since declared anything that old acked or lost).
    if (ranges_.size() > 32) ranges_.erase(ranges_.begin());
}

void quic_receiver::on_packet(const net::packet& pkt)
{
    const quic::packet_payload* payload = payload_of(pkt);
    if (!payload) return;
    // CID addressing: anything outside the issued set is not this connection.
    if (payload->dcid < quic::k_cid_base ||
        payload->dcid >= quic::k_cid_base + quic::k_issued_cids) {
        ++cid_drops_;
        return;
    }
    const sim::tick now = loop_.now();
    record_pn(payload->pn);

    if (payload->handshake) {
        // Respond so the peer gets its handshake RTT; carries the ACK too.
        net::packet resp;
        resp.ft = cfg_.ft.reversed();
        resp.flow_id = cfg_.flow_id;
        resp.pkt_id = ++pkt_counter_;
        resp.sent_time = now;
        auto rp = std::make_shared<quic::packet_payload>();
        rp->dcid = payload->dcid;
        rp->pn = tx_pn_++;
        rp->handshake = true;
        net::quic::ack_frame af;
        af.largest = ranges_.back().last;
        af.ranges.assign(ranges_.rbegin(), ranges_.rend());
        rp->ack = af;
        resp.payload_bytes = static_cast<std::uint32_t>(
            net::quic::encoded_ack_size(af) + quic::k_short_header_bytes);
        resp.app_data = std::move(rp);
        send_(std::move(resp));
        return;
    }

    // ECN accounting: QUIC counts *packets* per codepoint (RFC 9000 §13.4).
    switch (pkt.ecn_field) {
    case net::ecn::ce: ++ecn_.ce; break;
    case net::ecn::ect0: ++ecn_.ect0; break;
    case net::ecn::ect1: ++ecn_.ect1; break;
    case net::ecn::not_ect: break;
    }

    bool had_stream = false;
    quic::stream_id_t stream = 0;
    if (payload->stream) {
        had_stream = true;
        stream = payload->stream->id;
        on_stream_frame(*payload->stream, now);
        if (pkt.sent_time >= 0) owd_samples_.add(sim::to_ms(now - pkt.sent_time));
        goodput_.add(now, payload->stream->len);
    }
    send_ack(stream, had_stream, now);
}

void quic_receiver::on_stream_frame(const quic::stream_frame& f, sim::tick now)
{
    stream_rx& s = streams_[f.id];
    if (s.complete) return;
    if (f.fin) s.fin_total = static_cast<std::int64_t>(f.offset + f.len);
    const std::uint64_t end = f.offset + f.len;
    if (end <= s.next) return;  // pure duplicate
    if (f.offset > s.next) {
        auto& len = s.ooo[f.offset];
        len = std::max(len, f.len);
        return;
    }
    // In-order (or overlapping) advance, then drain newly contiguous data.
    std::uint64_t advanced = end - s.next;
    s.next = end;
    auto it = s.ooo.begin();
    while (it != s.ooo.end() && it->first <= s.next) {
        const std::uint64_t e2 = it->first + it->second;
        if (e2 > s.next) {
            advanced += e2 - s.next;
            s.next = e2;
        }
        it = s.ooo.erase(it);
    }
    delivered_total_ += advanced;
    if (on_deliver_) on_deliver_(delivered_total_, now);
    if (s.fin_total >= 0 && s.next == static_cast<std::uint64_t>(s.fin_total)) {
        s.complete = true;
        if (on_stream_) on_stream_(f.id, now);
    }
}

void quic_receiver::send_ack(quic::stream_id_t stream, bool had_stream, sim::tick now)
{
    net::quic::ack_frame af;
    af.largest = ranges_.back().last;
    af.ranges.assign(ranges_.rbegin(), ranges_.rend());
    af.ecn_present = true;
    af.ecn = ecn_;

    net::packet ack;
    ack.ft = cfg_.ft.reversed();
    ack.flow_id = cfg_.flow_id;
    ack.pkt_id = ++pkt_counter_;
    ack.sent_time = now;
    // Charge the ACK its genuine encoded size: more ranges and bigger ECN
    // counters mean more bytes on the uplink the RAN has to carry.
    ack.payload_bytes = static_cast<std::uint32_t>(
        net::quic::encoded_ack_size(af) + quic::k_short_header_bytes);

    auto payload = std::make_shared<quic::packet_payload>();
    payload->dcid = quic::k_cid_base;
    payload->pn = tx_pn_++;
    payload->ack = std::move(af);
    quic::flow_credit credit;
    credit.conn_max_data = delivered_total_ + k_conn_flow_window;
    if (had_stream) {
        credit.stream = stream;
        credit.stream_max_data = streams_[stream].next + cfg_.stream_flow_window;
    }
    payload->credit = credit;
    ack.app_data = std::move(payload);
    send_(std::move(ack));
}

}  // namespace l4span::transport
