// Sender-side congestion control shared by the TCP and QUIC engines: the
// RFC 6298 / RFC 9002 RTT estimator and timeout, the one backed-off
// retransmission timer, the pacing gate, ECN path validation, and the one
// ACK -> controller call (scalable senders get the per-ACK CE fraction,
// classic ones react to CE at most once per smoothed RTT). Each engine owns
// one by value and keeps what differs on the wire: sequence space, loss
// detection, handshake packets, streams and flow control.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/ecn.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "stats/sample_set.h"
#include "transport/cc.h"

namespace l4span::transport {

class sender_control {
public:
    // ECN validation horizon: if the receiver's ECT/CE counters never moved
    // over this many segments of delivered data, no data packet kept its
    // ECT codepoint and the path strips ECN (RFC 9000 §13.4.2).
    static constexpr std::uint64_t k_ecn_validate_segments = 16;

    // `segment_bytes` (the engine's data payload per packet) sizes the ECN
    // validation horizon; `initial_timeout` is the retransmission timeout
    // until the handshake yields an RTT.
    sender_control(sim::event_loop& loop, cc_ptr cc, std::uint64_t flow_id,
                   std::uint32_t segment_bytes, sim::tick initial_timeout)
        : loop_(loop), cc_(std::move(cc)), flow_id_(flow_id),
          ecn_validate_bytes_(k_ecn_validate_segments * segment_bytes),
          initial_timeout_(initial_timeout)
    {
    }
    // Scheduled timer and pacing events hold `this`.
    sender_control(const sender_control&) = delete;
    sender_control& operator=(const sender_control&) = delete;

    const congestion_controller& cc() const { return *cc_; }
    const stats::sample_set& rtt_samples() const { return rtt_samples_; }
    sim::tick srtt() const { return srtt_; }
    bool ecn_fallback() const { return ecn_fallback_; }
    void set_tracer(obs::tracer* t) { tracer_ = t; }
    // The controller's codepoint, or Not-ECT once the path failed validation.
    net::ecn data_ecn() const
    {
        return ecn_fallback_ ? net::ecn::not_ect : cc_->data_ecn();
    }

    // --- RTT estimation. seed_rtt() starts srtt/rttvar from one measurement
    // (the handshake's is not recorded as a sample).
    void seed_rtt(sim::tick rtt)
    {
        rtt_known_ = true;
        srtt_ = rtt;
        rttvar_ = rtt / 2;
    }
    void on_rtt_sample(sim::tick rtt)
    {
        rtt_samples_.add(sim::to_ms(rtt));
        if (srtt_ == 0) return seed_rtt(rtt);
        const sim::tick err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + rtt) / 8;
    }

    // --- The retransmission timer: (re)armed at the current timeout shifted
    // by the backoff. Its stored id is cleared on fire and on disarm, so it
    // never outlives its event.
    template <typename F>
    void arm_timer(F on_fire)
    {
        disarm_timer();
        sim::tick base = initial_timeout_;
        if (rtt_known_)
            base = std::clamp(srtt_ + std::max<sim::tick>(4 * rttvar_, sim::from_ms(1)),
                              k_min_timeout, k_max_timeout);
        const sim::tick t = base << std::min(backoff_, 6);
        timer_ = loop_.schedule_after(std::min(t, k_max_timeout), [this, on_fire] {
            timer_ = 0;
            on_fire();
        });
    }
    void disarm_timer()
    {
        if (timer_) loop_.cancel(timer_);
        timer_ = 0;
    }
    int back_off() { return ++backoff_; }
    void reset_backoff() { backoff_ = 0; }

    // --- Pacing at rate `pace` (0: none). pacing_defers() is true while the
    // pacing clock holds sends back, and schedules `retry` once for when it
    // opens; on_paced_send() advances the clock past a `len`-byte send.
    template <typename F>
    bool pacing_defers(sim::tick now, double pace, F retry)
    {
        if (pace <= 0.0 || now >= next_send_allowed_) return false;
        if (!send_pending_) {
            send_pending_ = true;
            loop_.schedule_at(next_send_allowed_, [this, retry] {
                send_pending_ = false;
                retry();
            });
        }
        return true;
    }
    void on_paced_send(sim::tick now, double pace, std::uint32_t len)
    {
        if (pace > 0.0)
            next_send_allowed_ =
                std::max(next_send_allowed_, now) + sim::tx_time(len, pace);
    }

    // --- ECN validation. `counters_moved`: the receiver echoed a nonzero
    // ECT/CE count, so marked packets reach it intact. Fallback changes only
    // the codepoint; loss-based control is untouched.
    void validate_ecn(bool counters_moved, std::uint64_t delivered, sim::tick now)
    {
        if (counters_moved) ecn_confirmed_ = true;
        if (ecn_confirmed_ || ecn_fallback_ || cc_->data_ecn() == net::ecn::not_ect ||
            delivered < ecn_validate_bytes_)
            return;
        ecn_fallback_ = true;
        if (tracer_)
            tracer_->emit(now, obs::point::ecn_fallback, obs::reason::strip, 0, flow_id_,
                          delivered);
    }

    // --- Controller calls. on_ack() is the one per-ACK call: `s` carries the
    // engine's acked bytes, RTT/rate samples and CE fraction; `classic_ce`
    // is a CE echo for a classic sender, answered once per max(srtt, 1 ms).
    void on_ack(ack_sample s, bool classic_ce)
    {
        s.srtt = srtt_;
        if (s.newly_acked > 0 || s.ce_fraction > 0.0) {
            cc_->on_ack(s);
            if (s.ce_fraction > 0.0)
                trace(s.now, obs::point::transport_ce, obs::reason::ce_accecn);
        }
        const sim::tick gap = std::max(srtt_, sim::from_ms(1));
        if (classic_ce && (last_ecn_reaction_ < 0 || s.now - last_ecn_reaction_ >= gap)) {
            last_ecn_reaction_ = s.now;
            cc_->on_ecn(s.now);
            trace(s.now, obs::point::transport_ce, obs::reason::ce_classic);
        }
    }
    void on_loss(sim::tick now, obs::reason why)
    {
        cc_->on_loss(now);
        trace(now, obs::point::transport_loss, why);
    }
    void on_rto(sim::tick now)
    {
        cc_->on_rto(now);
        trace(now, obs::point::transport_rto, obs::reason::rto_fire);
    }

private:
    // Timeout bounds: the Linux 200 ms floor and the RFC 6298 60 s ceiling.
    static constexpr sim::tick k_min_timeout = sim::from_ms(200);
    static constexpr sim::tick k_max_timeout = sim::from_sec(60);

    void trace(sim::tick now, obs::point p, obs::reason why) const
    {
        if (tracer_) tracer_->emit(now, p, why, 0, flow_id_, cc_->cwnd());
    }

    sim::event_loop& loop_;
    cc_ptr cc_;
    std::uint64_t flow_id_;
    std::uint64_t ecn_validate_bytes_;
    sim::tick initial_timeout_;

    bool rtt_known_ = false;
    sim::tick srtt_ = 0;
    sim::tick rttvar_ = 0;
    stats::sample_set rtt_samples_;
    sim::event_loop::event_id timer_ = 0;
    int backoff_ = 0;
    sim::tick next_send_allowed_ = 0;
    bool send_pending_ = false;
    sim::tick last_ecn_reaction_ = -1;
    bool ecn_confirmed_ = false;
    bool ecn_fallback_ = false;
    obs::tracer* tracer_ = nullptr;
};

}  // namespace l4span::transport
