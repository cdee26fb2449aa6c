#include "media/media.h"

#include <algorithm>

namespace l4span::media {

// ---------------------------------------------------------------- sender --

media_sender::media_sender(sim::event_loop& loop, media_config cfg,
                           std::unique_ptr<rate_controller> rc, send_fn send)
    : loop_(loop), cfg_(cfg), rc_(std::move(rc)), send_(std::move(send))
{
}

void media_sender::start()
{
    if (running_) return;
    running_ = true;
    emit();
}

void media_sender::emit()
{
    if (!running_) return;
    net::packet p;
    p.ft = cfg_.ft;
    p.ft.proto = net::ip_proto::udp;
    p.flow_id = cfg_.flow_id;
    p.pkt_id = ++pkt_counter_;
    p.sent_time = loop_.now();
    p.payload_bytes = k_packet_bytes;
    p.ecn_field = net::ecn::ect1;  // both SCReAM and UDP Prague are L4S flows
    sent_bytes_ += p.size_bytes();
    send_(std::move(p));

    const double rate = std::clamp(rc_->target_bps(), k_min_rate_bps, cfg_.max_rate_bps);
    loop_.schedule_after(sim::tx_time(k_packet_bytes, rate), [this] { emit(); });
}

void media_sender::on_packet(const net::packet& pkt)
{
    if (!pkt.is_udp() || !pkt.app_data) return;
    const auto* fb = static_cast<const feedback_report*>(pkt.app_data.get());
    const sim::tick rtt = loop_.now() - fb->report_time + fb->newest_owd;
    rtt_samples_.add(sim::to_ms(rtt));
    rc_->on_feedback(*fb, rtt, loop_.now());
}

// -------------------------------------------------------------- receiver --

media_receiver::media_receiver(sim::event_loop& loop, media_config cfg, send_fn send_feedback)
    : loop_(loop), cfg_(cfg), send_(std::move(send_feedback))
{
}

void media_receiver::on_packet(const net::packet& pkt)
{
    if (!pkt.is_udp()) return;
    const sim::tick now = loop_.now();
    acc_.highest_pkt_id = std::max(acc_.highest_pkt_id, pkt.pkt_id);
    acc_.received_bytes += pkt.payload_bytes;
    acc_.total_packets += 1;
    if (pkt.ecn_field == net::ecn::ce) {
        acc_.ce_bytes += pkt.payload_bytes;
        acc_.ce_packets += 1;
    }
    if (pkt.sent_time >= 0) acc_.newest_owd = now - pkt.sent_time;
    record(pkt, pkt.payload_bytes, now);

    if (!timer_running_) {
        timer_running_ = true;
        loop_.schedule_after(k_feedback_interval, [this] { emit_feedback(); });
    }
}

void media_receiver::emit_feedback()
{
    timer_running_ = false;
    acc_.report_time = loop_.now();
    net::packet fb;
    fb.ft = cfg_.ft.reversed();
    fb.ft.proto = net::ip_proto::udp;
    fb.flow_id = cfg_.flow_id;
    fb.pkt_id = ++fb_counter_;
    fb.sent_time = loop_.now();
    fb.payload_bytes = 64;  // compact RTCP-style report
    fb.app_data = std::make_shared<feedback_report>(acc_);
    send_(std::move(fb));

    // Keep reporting while traffic flows.
    timer_running_ = true;
    loop_.schedule_after(k_feedback_interval, [this] {
        if (acc_.total_packets > 0) emit_feedback();
        else timer_running_ = false;
    });
}

// ---------------------------------------------------------------- SCReAM --

namespace {

// Self-clocked rate adaptation (Johansson, RFC 8298) reduced to its rate
// plant: L4S CE fraction drives a DCTCP-style multiplicative term, queueing
// delay above target drives back-off, otherwise multiplicative-ish ramp-up.
class scream_controller : public rate_controller {
public:
    explicit scream_controller(const media_config& cfg)
        : rate_(cfg.start_rate_bps), min_(k_min_rate_bps), max_(cfg.max_rate_bps)
    {
    }

    void on_feedback(const feedback_report& fb, sim::tick, sim::tick now) override
    {
        // Base (propagation) delay tracking.
        if (base_owd_ < 0 || fb.newest_owd < base_owd_) base_owd_ = fb.newest_owd;
        const sim::tick queue_delay = fb.newest_owd - base_owd_;

        const std::uint64_t d_bytes = fb.received_bytes - prev_bytes_;
        const std::uint64_t d_ce = fb.ce_bytes - prev_ce_bytes_;
        prev_bytes_ = fb.received_bytes;
        prev_ce_bytes_ = fb.ce_bytes;
        const double frac = d_bytes > 0 ? static_cast<double>(d_ce) /
                                              static_cast<double>(d_bytes)
                                        : 0.0;
        alpha_ = (1.0 - k_gain) * alpha_ + k_gain * frac;

        if (d_ce > 0) {
            rate_ *= (1.0 - alpha_ / 2.0);
            post_congestion_until_ = now + sim::from_ms(200);
        } else if (queue_delay > k_queue_target) {
            rate_ *= 0.95;
        } else if (now >= post_congestion_until_) {
            rate_ *= 1.05;  // ramp toward max in ~ a second of clean reports
        }
        rate_ = std::clamp(rate_, min_, max_);
    }

    double target_bps() const override { return rate_; }
    std::string name() const override { return "scream"; }

private:
    static constexpr double k_gain = 1.0 / 16.0;
    static constexpr sim::tick k_queue_target = sim::from_ms(60);

    double rate_, min_, max_;
    double alpha_ = 0.0;
    sim::tick base_owd_ = -1;
    sim::tick post_congestion_until_ = 0;
    std::uint64_t prev_bytes_ = 0;
    std::uint64_t prev_ce_bytes_ = 0;
};

// UDP Prague (L4STeam reference behaviour): rate-based Prague — per-report
// alpha EWMA, multiplicative decrease on CE, otherwise 1-packet-per-RTT
// additive increase with an initial exponential ramp.
class udp_prague_controller : public rate_controller {
public:
    explicit udp_prague_controller(const media_config& cfg)
        : rate_(cfg.start_rate_bps), min_(k_min_rate_bps), max_(cfg.max_rate_bps),
          pkt_bits_(k_packet_bytes * 8.0)
    {
    }

    void on_feedback(const feedback_report& fb, sim::tick rtt, sim::tick now) override
    {
        const std::uint64_t d_bytes = fb.received_bytes - prev_bytes_;
        const std::uint64_t d_ce = fb.ce_bytes - prev_ce_bytes_;
        prev_bytes_ = fb.received_bytes;
        prev_ce_bytes_ = fb.ce_bytes;
        const double frac = d_bytes > 0 ? static_cast<double>(d_ce) /
                                              static_cast<double>(d_bytes)
                                        : 0.0;
        alpha_ = (1.0 - k_gain) * alpha_ + k_gain * frac;

        const double rtt_s = std::max(1e-3, sim::to_sec(rtt));
        if (d_ce > 0) {
            in_ramp_ = false;
            if (now - last_decrease_ >= rtt) {
                rate_ *= (1.0 - alpha_ / 2.0);
                last_decrease_ = now;
            }
        } else if (in_ramp_) {
            rate_ *= 1.5;
        } else {
            rate_ += pkt_bits_ / rtt_s * 0.5;  // ~1 packet per 2 RTTs
        }
        rate_ = std::clamp(rate_, min_, max_);
    }

    double target_bps() const override { return rate_; }
    std::string name() const override { return "udp-prague"; }

private:
    static constexpr double k_gain = 1.0 / 16.0;

    double rate_, min_, max_, pkt_bits_;
    double alpha_ = 0.0;
    bool in_ramp_ = true;
    sim::tick last_decrease_ = 0;
    std::uint64_t prev_bytes_ = 0;
    std::uint64_t prev_ce_bytes_ = 0;
};

}  // namespace

std::unique_ptr<rate_controller> make_scream(const media_config& cfg)
{
    return std::make_unique<scream_controller>(cfg);
}

std::unique_ptr<rate_controller> make_udp_prague(const media_config& cfg)
{
    return std::make_unique<udp_prague_controller>(cfg);
}

}  // namespace l4span::media
