#include "scenario/cell_scenario.h"

#include <stdexcept>

#include "aqm/dualpi2.h"

namespace l4span::scenario {

namespace {

std::unique_ptr<aqm::queue_discipline> make_bottleneck_queue(const cell_spec& spec)
{
    if (spec.bottleneck_aqm == "fifo")
        return std::make_unique<aqm::fifo_queue>(4 << 20);
    if (spec.bottleneck_aqm == "dualpi2") {
        aqm::dualpi2_config cfg;
        cfg.max_bytes = 4 << 20;
        cfg.seed = topo::impairment_seed(spec.seed, /*lane=*/2, false);
        return std::make_unique<aqm::dualpi2_queue>(cfg);
    }
    if (spec.bottleneck_aqm == "wred") {
        aqm::wred_dualq_config cfg = spec.wred;
        cfg.seed = topo::impairment_seed(spec.seed, /*lane=*/3, false);
        return std::make_unique<aqm::wred_dualq_queue>(cfg);
    }
    throw std::invalid_argument("unknown bottleneck AQM \"" + spec.bottleneck_aqm +
                                "\" (valid: fifo, dualpi2, wred)");
}

}  // namespace

cell_scenario::cell_scenario(cell_spec spec) : spec_(std::move(spec))
{
    spec_.impair_dl.validate("cell_spec.impair_dl");
    spec_.impair_ul.validate("cell_spec.impair_ul");
    bool any_dl_cross = false, any_ul_cross = false;
    for (std::size_t i = 0; i < spec_.cross_traffic.size(); ++i) {
        spec_.cross_traffic[i].validate("cell_spec.cross_traffic[" +
                                        std::to_string(i) + "]");
        (spec_.cross_traffic[i].uplink ? any_ul_cross : any_dl_cross) = true;
    }
    if (any_dl_cross && spec_.bottleneck_bps <= 0.0)
        throw std::invalid_argument(
            "cell_spec.cross_traffic: background senders share the core "
            "bottleneck, so set bottleneck_bps > 0 (there is no queue to "
            "compete for otherwise)");
    if (any_ul_cross && spec_.ul_bottleneck_bps <= 0.0)
        throw std::invalid_argument(
            "cell_spec.cross_traffic: uplink background senders share the "
            "return-path bottleneck, so set ul_bottleneck_bps > 0 (the "
            "latency-only return path has no queue to compete for)");
    if (spec_.ul_bottleneck_bps < 0.0)
        throw std::invalid_argument("cell_spec.ul_bottleneck_bps must be >= 0");

    cell_ = std::make_unique<scenario::cell>(loop_, spec_);

    obs::tracer* tr = nullptr;
    if (spec_.obs.enabled) {
        hub_ = std::make_unique<obs::hub>(1, spec_.obs);
        tr = &hub_->shard_tracer(0);
        cell_->attach_obs(tr, &hub_->shard_registry(0));
    }

    cell_->set_deliver_handler(
        [this](ran::rnti_t, ran::drb_id_t, net::packet pkt, sim::tick) {
            const std::size_t f = pkt.flow_id;
            if (f >= flows_.size()) return;
            flows_[f]->ep.on_downlink(pkt);
        });

    // Impairment stages mount only when a knob is on (or force_stage): the
    // all-off default leaves the event flow of existing scenarios untouched.
    if (spec_.impair_dl.wants_stage())
        impair_dl_ = std::make_unique<topo::path_impairment>(
            loop_, spec_.impair_dl,
            topo::impairment_seed(spec_.seed, /*lane=*/0, false));
    if (spec_.impair_ul.wants_stage())
        impair_ul_ = std::make_unique<topo::path_impairment>(
            loop_, spec_.impair_ul,
            topo::impairment_seed(spec_.seed, /*lane=*/0, true));
    if (impair_dl_) {
        impair_dl_->set_deliver([this](net::packet pkt) { downlink_arrival(std::move(pkt)); });
        impair_dl_->set_tracer(tr, /*stage=*/0);
    }
    if (impair_ul_) {
        impair_ul_->set_deliver([this](net::packet pkt) { uplink_arrival(std::move(pkt)); });
        impair_ul_->set_tracer(tr, /*stage=*/1);
    }

    // Uplink return path: RAN -> [uplink bottleneck] -> [uplink impairment]
    // -> per-flow reverse wired hop back to the sender. The bottleneck sits
    // first, where the cell's aggregate ACK stream (and any uplink cross
    // traffic) serializes onto the return hop.
    if (spec_.ul_bottleneck_bps > 0.0) {
        ul_bottleneck_ = std::make_unique<topo::wired_link>(
            loop_, spec_.ul_bottleneck_bps, sim::from_ms(1));
        ul_bottleneck_->queue().set_tracer(tr, /*id=*/1);
        ul_bottleneck_->set_deliver([this](net::packet pkt) {
            if (impair_ul_) impair_ul_->send(std::move(pkt));
            else uplink_arrival(std::move(pkt));
        });
    }
    cell_->set_uplink_handler([this](ran::rnti_t, net::packet pkt, sim::tick) {
        if (ul_bottleneck_) ul_bottleneck_->send(std::move(pkt));
        else if (impair_ul_) impair_ul_->send(std::move(pkt));
        else uplink_arrival(std::move(pkt));
    });

    if (spec_.bottleneck_bps > 0.0) {
        bottleneck_ = std::make_unique<topo::wired_link>(
            loop_, spec_.bottleneck_bps, sim::from_ms(1),
            make_bottleneck_queue(spec_));
        bottleneck_->queue().set_tracer(tr, /*id=*/0);
        // The downlink stage sits between the core bottleneck and the RAN —
        // the only placement where bleaching can erase the core AQM's CE
        // marks before they reach the UE.
        bottleneck_->set_deliver([this](net::packet pkt) {
            if (impair_dl_) impair_dl_->send(std::move(pkt));
            else downlink_arrival(std::move(pkt));
        });
        for (const auto& [when, bps] : spec_.bottleneck_schedule)
            loop_.schedule_at(when, [this, bps = bps] { bottleneck_->set_rate(bps); });
    }
    for (std::size_t i = 0; i < spec_.cross_traffic.size(); ++i) {
        // Uplink generators inject into the return bottleneck (their
        // packets sink in uplink_arrival's unknown-flow check); downlink
        // ones into the core bottleneck as before. Each direction draws an
        // independent seed stream.
        const bool ul = spec_.cross_traffic[i].uplink;
        topo::wired_link* link = ul ? ul_bottleneck_.get() : bottleneck_.get();
        cross_.push_back(std::make_unique<topo::cross_traffic>(
            loop_, spec_.cross_traffic[i],
            topo::impairment_seed(spec_.seed, /*lane=*/64 + i, ul),
            static_cast<std::uint32_t>(i),
            [link](net::packet pkt) { link->send(std::move(pkt)); }));
        cross_.back()->start();
    }
}

void cell_scenario::downlink_arrival(net::packet pkt)
{
    const std::size_t f = pkt.flow_id;
    // Unknown flow ids (cross-traffic's sentinel) sink here: background
    // packets exist to occupy the bottleneck, not to enter the RAN.
    if (f >= flows_.size()) return;
    flow_rt& flow = *flows_[f];
    cell_->deliver_downlink(std::move(pkt), flow.rnti, flow.qfi);
}

void cell_scenario::uplink_arrival(net::packet pkt)
{
    const std::size_t f = pkt.flow_id;
    if (f >= flows_.size()) return;
    // Reverse wired path back to the server.
    loop_.schedule_after(flows_[f]->wired_owd, [this, f, pkt = std::move(pkt)] {
        flows_[f]->ep.on_uplink(pkt);
    });
}

std::uint64_t cell_scenario::cross_traffic_packets() const
{
    std::uint64_t n = 0;
    for (const auto& c : cross_) n += c->packets_sent();
    return n;
}

cell_scenario::~cell_scenario() = default;

ran::rnti_t cell_scenario::rnti_at(int ue) const
{
    if (ue < 0 || ue >= spec_.num_ues)
        throw std::out_of_range("cell_scenario: UE index out of range");
    return cell_->rnti_of(static_cast<std::size_t>(ue));
}

int cell_scenario::add_flow(flow_spec fspec)
{
    const ran::rnti_t rnti = rnti_at(fspec.ue);  // validates the UE index
    const int handle = static_cast<int>(flows_.size());
    auto f = std::make_unique<flow_rt>();
    f->spec = fspec;
    f->rnti = rnti;
    f->wired_owd = sim::from_ms(fspec.wired_owd_ms);
    f->qfi = cell_->alloc_qfi(rnti);
    cell_->map_qos_flow(rnti, f->qfi, is_l4s_cca(fspec.cca));

    auto dl_send = [this, handle](net::packet pkt) {
        pkt.flow_id = static_cast<std::uint64_t>(handle);
        // Forward wired path: fixed propagation, then optional bottleneck,
        // then the optional impairment stage (downlink_arrival routes into
        // the RAN; the stage forwards there via its deliver handler).
        loop_.schedule_after(flows_[static_cast<std::size_t>(handle)]->wired_owd,
                             [this, pkt = std::move(pkt)]() mutable {
                                 if (bottleneck_) bottleneck_->send(std::move(pkt));
                                 else if (impair_dl_) impair_dl_->send(std::move(pkt));
                                 else downlink_arrival(std::move(pkt));
                             });
    };
    auto ul_send = [this, handle](net::packet pkt) {
        pkt.flow_id = static_cast<std::uint64_t>(handle);
        cell_->send_uplink(flows_[static_cast<std::size_t>(handle)]->rnti,
                           std::move(pkt));
    };

    f->ep = make_flow_endpoints(loop_, fspec, handle, fspec.ue, std::move(dl_send),
                                std::move(ul_send),
                                hub_ ? &hub_->shard_tracer(0) : nullptr);
    flows_.push_back(std::move(f));
    return handle;
}

void cell_scenario::run(sim::tick duration)
{
    duration_ = duration;
    if (hub_) hub_->start_sampling(loop_, 0);
    cell_->start();
    loop_.run_until(duration);
    if (hub_) hub_->finish(duration);
}

cell_scenario::flow_rt& cell_scenario::flow_at(int flow) const
{
    if (flow < 0 || static_cast<std::size_t>(flow) >= flows_.size())
        throw std::out_of_range("cell_scenario: flow handle out of range");
    return *flows_[static_cast<std::size_t>(flow)];
}

const stats::sample_set& cell_scenario::owd_ms(int flow) const
{
    return flow_at(flow).ep.owd_samples();
}

const stats::sample_set& cell_scenario::rtt_ms(int flow) const
{
    return flow_at(flow).ep.rtt_samples();
}

std::uint64_t cell_scenario::delivered_bytes(int flow) const
{
    return flow_at(flow).ep.delivered_bytes();
}

double cell_scenario::goodput_mbps(int flow) const
{
    const flow_rt& f = flow_at(flow);
    return flow_goodput_mbps(f.spec, f.ep, duration_);
}

const stats::rate_series& cell_scenario::goodput_series(int flow) const
{
    return flow_at(flow).ep.goodput();
}

std::uint64_t cell_scenario::flow_cwnd(int flow) const
{
    return flow_at(flow).ep.cwnd_bytes();
}

const transport::tcp_sender* cell_scenario::tcp_flow(int flow) const
{
    return flow_at(flow).ep.snd.get();
}

const transport::quic_sender* cell_scenario::quic_flow(int flow) const
{
    return flow_at(flow).ep.qsnd.get();
}

const media::frame_source* cell_scenario::frame_stats(int flow) const
{
    return flow_at(flow).ep.frame_stats();
}

std::uint64_t cell_scenario::flow_retransmits(int flow) const
{
    return flow_at(flow).ep.transport_retransmits();
}

std::uint64_t cell_scenario::flow_ce_packets(int flow) const
{
    return flow_at(flow).ep.ce_packets();
}

bool cell_scenario::flow_ecn_fallback(int flow) const
{
    return flow_at(flow).ep.ecn_fallback();
}

double cell_scenario::fct_ms(int flow) const
{
    const flow_rt& f = flow_at(flow);
    if (!f.ep.tcp_finished()) return -1.0;
    return sim::to_ms(f.ep.tcp_finish_time() - f.spec.start_time);
}

const stats::sample_set& cell_scenario::rlc_queue_sdus(int ue) const
{
    return cell_->rlc_queue_sdus(rnti_at(ue));
}

const stats::value_series& cell_scenario::rlc_queue_series(int ue) const
{
    return cell_->rlc_queue_series(rnti_at(ue));
}

double cell_scenario::mean_queuing_ms() const
{
    return cell_->mean_queuing_ms();
}

double cell_scenario::mean_scheduling_ms() const
{
    return cell_->mean_scheduling_ms();
}

const std::vector<std::pair<sim::tick, std::uint32_t>>& cell_scenario::tx_log(int ue) const
{
    return cell_->tx_log(rnti_at(ue));
}

}  // namespace l4span::scenario
