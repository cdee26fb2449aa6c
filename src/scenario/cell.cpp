#include "scenario/cell.h"

#include <stdexcept>

namespace l4span::scenario {

namespace {
constexpr sim::tick k_sample_period = sim::from_ms(10);
}  // namespace

chan::channel_profile channel_by_name(const std::string& name, std::uint64_t variant)
{
    chan::channel_profile p;
    if (name == "static") p = chan::channel_profile::static_channel();
    else if (name == "pedestrian") p = chan::channel_profile::pedestrian();
    else if (name == "vehicular") p = chan::channel_profile::vehicular();
    else if (name == "mobile") {
        // "Mobile" combines pedestrian- and vehicular-speed channels (§6.2.1):
        // alternate per UE.
        p = (variant % 2 == 0) ? chan::channel_profile::pedestrian()
                               : chan::channel_profile::vehicular();
        p.name = "mobile";
    } else if (name == "trace") {
        throw std::invalid_argument(
            "channel \"trace\" is not a fading profile — assign per-UE DCI "
            "traces via cell_spec.ue_traces (chan::load_trace_file or "
            "chan::synth_trace) and the cell builds trace_channels");
    } else {
        throw std::invalid_argument(
            "unknown channel profile: " + name +
            " (valid: static, pedestrian, vehicular, mobile, trace)");
    }
    return p;
}

std::unique_ptr<chan::link_model> make_ue_link(const cell_spec& spec,
                                               std::uint64_t variant)
{
    if (spec.channel != "trace")
        return nullptr;  // caller draws a fading channel from the profile
    if (spec.ue_traces.empty())
        throw std::invalid_argument(
            "cell channel is \"trace\" but cell_spec.ue_traces is empty — add "
            "at least one chan::trace_config (data from chan::load_trace_file "
            "or chan::synth_trace; knobs: loop, offset, time_scale)");
    const auto& cfg = spec.ue_traces[static_cast<std::size_t>(
        variant % spec.ue_traces.size())];
    return std::make_unique<chan::trace_channel>(cfg);  // ctor validates cfg
}

// --- flow endpoints ---------------------------------------------------------

flow_endpoints make_flow_endpoints(sim::event_loop& loop, const flow_spec& spec,
                                   int handle, int ue_addr,
                                   std::function<void(net::packet)> dl_send,
                                   std::function<void(net::packet)> ul_send,
                                   obs::tracer* tracer)
{
    const bool media_cca = spec.cca == "scream" || spec.cca == "udp-prague";
    const bool quic_cca = spec.cca.rfind("quic-", 0) == 0;  // quic-<tcp cc>

    // Synthetic five-tuple: unique server per flow.
    net::five_tuple ft;
    ft.src_ip = 0x0a000001u + static_cast<std::uint32_t>(handle);  // 10.0.0.x server
    ft.dst_ip = 0xc0a80001u + static_cast<std::uint32_t>(ue_addr);
    ft.src_port = 443;
    ft.dst_port = static_cast<std::uint16_t>(50000 + handle);
    ft.proto = (media_cca || quic_cca) ? net::ip_proto::udp : net::ip_proto::tcp;

    media::frame_source_config fcfg;
    fcfg.fps = spec.fps;
    fcfg.bitrate_bps = spec.frame_bitrate_bps;
    fcfg.keyframe_interval_s = spec.keyframe_interval_s;
    fcfg.keyframe_scale = spec.keyframe_scale;
    fcfg.deadline = sim::from_ms(spec.frame_deadline_ms);

    flow_endpoints ep;
    if (media_cca) {
        media::media_config mcfg;
        mcfg.ft = ft;
        mcfg.flow_id = static_cast<std::uint64_t>(handle);
        mcfg.max_rate_bps = spec.media_max_bps;
        mcfg.start_rate_bps = spec.media_start_bps;
        auto rc = spec.cca == "scream" ? media::make_scream(mcfg)
                                       : media::make_udp_prague(mcfg);
        ep.snd = std::make_unique<media::media_sender>(loop, mcfg, std::move(rc),
                                                       std::move(dl_send));
        ep.rcv = std::make_unique<media::media_receiver>(loop, mcfg, std::move(ul_send));
        ep.data_ecn = media::k_data_ecn;
    } else if (quic_cca) {
        transport::quic::quic_config qcfg;
        qcfg.mtu_payload = spec.mss;
        qcfg.max_cwnd = spec.max_cwnd;
        qcfg.flow_bytes = spec.flow_bytes;
        qcfg.app_limited = spec.fps > 0.0;
        qcfg.ft = ft;
        qcfg.flow_id = static_cast<std::uint64_t>(handle);
        auto cc = transport::make_cc(spec.cca.substr(5), spec.mss);
        ep.data_ecn = cc->data_ecn();
        auto snd = std::make_unique<transport::quic_sender>(loop, qcfg, std::move(cc),
                                                            std::move(dl_send));
        snd->set_tracer(tracer);
        auto rcv = std::make_unique<transport::quic_receiver>(loop, qcfg,
                                                              std::move(ul_send));
        if (spec.fps > 0.0) {
            // One stream per frame (stream id == frame id), closed by FIN;
            // completion comes back through the receiver's stream handler.
            ep.frames = std::make_unique<media::frame_source>(
                loop, fcfg, [s = snd.get()](std::uint64_t frame_id, std::uint32_t bytes) {
                    s->write(frame_id, bytes, /*fin=*/true);
                });
            rcv->set_stream_complete_handler(
                [fr = ep.frames.get()](transport::quic::stream_id_t stream, sim::tick now) {
                    fr->on_frame_complete(stream, now);
                });
        }
        ep.snd = std::move(snd);
        ep.rcv = std::move(rcv);
    } else {
        transport::tcp_config tcfg;
        tcfg.mss = spec.mss;
        tcfg.max_cwnd = spec.max_cwnd;
        tcfg.flow_bytes = spec.flow_bytes;
        tcfg.app_limited = spec.fps > 0.0;
        tcfg.ft = ft;
        tcfg.flow_id = static_cast<std::uint64_t>(handle);
        auto cc = transport::make_cc(spec.cca, spec.mss);
        ep.data_ecn = cc->data_ecn();
        const bool accecn = cc->uses_accecn();
        auto snd = std::make_unique<transport::tcp_sender>(loop, tcfg, std::move(cc),
                                                           std::move(dl_send));
        snd->set_tracer(tracer);
        auto rcv = std::make_unique<transport::tcp_receiver>(loop, tcfg, accecn,
                                                             std::move(ul_send));
        if (spec.fps > 0.0) {
            // Frames occupy consecutive ranges of the TCP byte stream; the
            // receiver's in-order point completes them.
            ep.frames = std::make_unique<media::frame_source>(
                loop, fcfg, [s = snd.get()](std::uint64_t, std::uint32_t bytes) {
                    s->app_write(bytes);
                });
            rcv->set_deliver_handler(
                [fr = ep.frames.get()](std::uint64_t bytes, sim::tick now) {
                    fr->on_bytes_delivered(bytes, now);
                });
        }
        ep.snd = std::move(snd);
        ep.rcv = std::move(rcv);
    }

    // The frame source's events are scheduled first, so at an equal tick it
    // starts (writing its first frame) or stops before the sender does.
    if (media::frame_source* fr = ep.frames.get()) {
        loop.schedule_at(spec.start_time, [fr] { fr->start(); });
        if (spec.stop_time >= 0) loop.schedule_at(spec.stop_time, [fr] { fr->stop(); });
    }
    transport::sender* snd = ep.snd.get();
    loop.schedule_at(spec.start_time, [snd] { snd->start(); });
    if (spec.stop_time >= 0) loop.schedule_at(spec.stop_time, [snd] { snd->stop(); });
    return ep;
}

// --- flow table -------------------------------------------------------------

int flow_table::add_flow_rec(const flow_spec& spec, cell& c, ran::rnti_t rnti,
                             sim::event_loop& loop,
                             std::function<void(net::packet)> dl_send,
                             std::function<void(net::packet)> ul_send,
                             obs::tracer* tracer)
{
    const int handle = static_cast<int>(flows_.size());
    auto f = std::make_unique<flow_rec>();
    f->spec = spec;
    f->wired_owd = sim::from_ms(spec.wired_owd_ms);
    f->ep = make_flow_endpoints(loop, spec, handle, spec.ue, std::move(dl_send),
                                std::move(ul_send), tracer);
    f->qfi = c.add_qos_flow(rnti, f->ep.data_ecn == net::ecn::ect1);
    flows_.push_back(std::move(f));
    return handle;
}

const flow_table::flow_rec& flow_table::flow_at(int flow) const
{
    if (flow < 0 || static_cast<std::size_t>(flow) >= flows_.size())
        throw std::out_of_range("flow handle out of range");
    return *flows_[static_cast<std::size_t>(flow)];
}

const stats::sample_set& flow_table::owd_ms(int flow) const
{
    return flow_at(flow).ep.rcv->owd_samples();
}

const stats::sample_set& flow_table::rtt_ms(int flow) const
{
    return flow_at(flow).ep.snd->rtt_samples();
}

double flow_table::goodput_mbps(int flow) const
{
    const flow_rec& f = flow_at(flow);
    sim::tick end = f.spec.stop_time >= 0 ? f.spec.stop_time : duration_;
    if (f.ep.snd->finished()) end = f.ep.snd->finish_time();
    const sim::tick active = end - f.spec.start_time;
    if (active <= 0) return 0.0;
    return static_cast<double>(f.ep.rcv->received_bytes()) * 8.0 / sim::to_sec(active) /
           1e6;
}

const stats::rate_series& flow_table::goodput_series(int flow) const
{
    return flow_at(flow).ep.rcv->goodput();
}

double flow_table::fct_ms(int flow) const
{
    const flow_rec& f = flow_at(flow);
    if (!f.ep.snd->finished()) return -1.0;
    return sim::to_ms(f.ep.snd->finish_time() - f.spec.start_time);
}

std::uint64_t flow_table::delivered_bytes(int flow) const
{
    return flow_at(flow).ep.rcv->received_bytes();
}

std::uint64_t flow_table::flow_cwnd(int flow) const
{
    return flow_at(flow).ep.snd->cwnd_bytes();
}

const transport::tcp_sender* flow_table::tcp_flow(int flow) const
{
    return dynamic_cast<const transport::tcp_sender*>(flow_at(flow).ep.snd.get());
}

const transport::quic_sender* flow_table::quic_flow(int flow) const
{
    return dynamic_cast<const transport::quic_sender*>(flow_at(flow).ep.snd.get());
}

const media::frame_source* flow_table::frame_stats(int flow) const
{
    return flow_at(flow).ep.frames.get();
}

std::uint64_t flow_table::flow_retransmits(int flow) const
{
    return flow_at(flow).ep.snd->retransmits();
}

std::uint64_t flow_table::flow_ce_packets(int flow) const
{
    return flow_at(flow).ep.rcv->ce_packets();
}

bool flow_table::flow_ecn_fallback(int flow) const
{
    return flow_at(flow).ep.snd->ecn_fallback();
}

// --- cell -------------------------------------------------------------------

cell::cell(sim::event_loop& loop, cell_spec spec, int index)
    : loop_(loop), spec_(std::move(spec)), index_(index), rng_(spec_.seed)
{
    gnb_ = std::make_unique<ran::gnb>(loop_, spec_.sched, rng_.fork());

    switch (spec_.cu) {
    case cu_mode::l4span: {
        auto cfg = spec_.l4s;
        cfg.seed = rng_.fork().next_u64();
        l4span_ = std::make_unique<core::l4span>(cfg);
        hook_ = l4span_.get();
        gnb_->set_cu_hook(l4span_.get());
        break;
    }
    case cu_mode::dualpi2_ran:
        dualpi2_ = std::make_unique<dualpi2_ran_hook>(spec_.dualpi2);
        hook_ = dualpi2_.get();
        gnb_->set_cu_hook(dualpi2_.get());
        break;
    case cu_mode::tcran:
        tcran_ = std::make_unique<tc_ran>(loop_, *gnb_, spec_.tcran);
        break;
    case cu_mode::none: break;
    }

    for (int u = 0; u < spec_.num_ues; ++u) add_ue(static_cast<std::uint64_t>(u));
}

cell::~cell() = default;

ran::rnti_t cell::add_ue(std::uint64_t variant)
{
    auto link = make_ue_link(spec_, variant);
    const ran::rnti_t rnti =
        link ? gnb_->add_ue(std::move(link))
             : gnb_->add_ue(channel_by_name(spec_.channel, variant));

    ran::rlc_config rlc;
    rlc.mode = spec_.rlc_mode;
    rlc.max_queue_sdus = spec_.rlc_queue_sdus;

    // DRB 1 carries L4S flows; DRB 2, when the classes are separated,
    // carries classic ones.
    gnb_->add_drb(rnti, rlc);
    if (spec_.separate_drbs_per_class) gnb_->add_drb(rnti, rlc);
    track_ue(rnti);
    return rnti;
}

void cell::track_ue(ran::rnti_t rnti)
{
    if (rnti != ues_.size() + 1)
        throw std::logic_error("cell: gNB assigned RNTI " + std::to_string(rnti) +
                               ", expected " + std::to_string(ues_.size() + 1));
    ues_.push_back(std::make_unique<ue_rec>());
}

ran::qfi_t cell::add_qos_flow(ran::rnti_t ue, bool l4s_class)
{
    // A handed-over UE arrives with the DRB ids add_ue gave it at its
    // first cell, and every cell of a run shares one spec.
    const ran::drb_id_t drb = !l4s_class && spec_.separate_drbs_per_class ? 2 : 1;
    return gnb_->add_qos_flow(ue, drb);
}

void cell::attach_obs(obs::tracer* tr, obs::registry* reg)
{
    gnb_->set_tracer(tr);
    if (l4span_) l4span_->set_tracer(tr);
    if (!reg) return;
    const std::string p = "cell" + std::to_string(index_) + ".";
    reg->add_counter(p + "gnb.slots", [this] { return gnb_->slots_elapsed(); });
    reg->add_gauge(p + "gnb.active_ues", [this] {
        return static_cast<double>(gnb_->active_ues());
    });
    if (l4span_) {
        core::l4span* l4s = l4span_.get();
        reg->add_counter(p + "l4span.marks", [l4s] { return l4s->marks(); });
        reg->add_counter(p + "l4span.drops", [l4s] { return l4s->drops(); });
        reg->add_counter(p + "l4span.dl_events", [l4s] { return l4s->dl_events(); });
        reg->add_counter(p + "l4span.ul_events", [l4s] { return l4s->ul_events(); });
        reg->add_counter(p + "l4span.feedback_events",
                         [l4s] { return l4s->feedback_events(); });
        l4s->set_sojourn_histogram(reg->add_histogram(
            p + "l4span.sojourn_ms", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}));
    }
}

void cell::start()
{
    if (started_) return;
    started_ = true;
    gnb_->start();
    schedule_sampling();
}

void cell::schedule_sampling()
{
    loop_.schedule_after(k_sample_period, [this] {
        for (std::size_t i = 0; i < ues_.size(); ++i) {
            const auto rnti = static_cast<ran::rnti_t>(i + 1);
            if (!gnb_->has_ue(rnti)) continue;  // detached: its stats freeze
            const auto sdus = static_cast<double>(gnb_->rlc(rnti, 1).queued_sdus());
            ues_[i]->rlc_samples.add(sdus);
            ues_[i]->rlc_series.add(loop_.now(), sdus);
        }
        schedule_sampling();
    });
}

void cell::deliver_downlink(net::packet pkt, ran::rnti_t ue, ran::qfi_t qfi)
{
    // TC-RAN intercepts at the CU ingress; everything else goes straight in.
    if (tcran_) tcran_->deliver_downlink(std::move(pkt), ue, qfi);
    else gnb_->deliver_downlink(std::move(pkt), ue, qfi);
}

ran::ue_handover_context cell::detach_ue(ran::rnti_t ue, hook_transfer ht)
{
    auto ctx = gnb_->detach_ue(ue);
    if (hook_) {
        // detach removes every entry keyed to the RNTI either way; only
        // `migrate` keeps the state alive for the target cell's entity.
        auto st = hook_->detach_ue(ue);
        if (ht == hook_transfer::migrate) ctx.hook_state = std::move(st);
    }
    return ctx;
}

ran::rnti_t cell::attach_ue(ran::ue_handover_context ctx)
{
    auto hook_state = std::move(ctx.hook_state);
    const ran::rnti_t rnti = gnb_->attach_ue(std::move(ctx));
    if (hook_ && hook_state) hook_->attach_ue(rnti, std::move(hook_state));
    track_ue(rnti);
    return rnti;
}

void cell::set_linklog_handler(ran::gnb::linklog_handler h)
{
    gnb_->set_linklog_handler(std::move(h));
}

const stats::sample_set& cell::rlc_queue_sdus(ran::rnti_t ue) const
{
    return rec(ue).rlc_samples;
}

const stats::value_series& cell::rlc_queue_series(ran::rnti_t ue) const
{
    return rec(ue).rlc_series;
}

const cell::ue_rec& cell::rec(ran::rnti_t ue) const
{
    if (ue < 1 || ue > ues_.size()) throw std::out_of_range("unknown rnti in cell");
    return *ues_[ue - 1];
}

}  // namespace l4span::scenario
