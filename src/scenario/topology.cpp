#include "scenario/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace l4span::scenario {

namespace {
// What survives a lost X2 context transfer: the UE's own bearer
// configuration and channel profile. SN status, forwarded SDUs and the CU
// hook state were in the dropped message — RLC/PDCP restart from SN 1 and
// the transports retransmit whatever was in flight end-to-end, so every
// SDU is either delivered once or counted lost, never duplicated.
ran::ue_handover_context strip_transfer_state(ran::ue_handover_context ctx)
{
    for (auto& d : ctx.drbs) {
        d.tx = {};
        d.rx = {};
        d.pdcp_next_sn = 1;
    }
    ctx.hook_state.reset();
    return ctx;
}
}  // namespace

topology::topology(topology_spec spec) : spec_(std::move(spec))
{
    if (spec_.num_cells < 1) throw std::invalid_argument("topology: need >= 1 cell");
    if (spec_.ues_per_cell < 1)
        throw std::invalid_argument("topology: need >= 1 UE per cell");

    spec_.cell.impair_dl.validate("topology_spec.cell.impair_dl");
    spec_.cell.impair_ul.validate("topology_spec.cell.impair_ul");
    if (!spec_.cell.cross_traffic.empty())
        throw std::invalid_argument(
            "topology_spec.cell.cross_traffic: the multi-cell topology has "
            "no shared wired bottleneck for background senders to compete "
            "for — cross-traffic is a cell_scenario feature (like "
            "bottleneck_bps)");
    const cell_spec& cs = spec_.cell;
    const char* bottleneck_field =
        cs.bottleneck_bps != 0.0          ? "bottleneck_bps"
        : !cs.bottleneck_schedule.empty() ? "bottleneck_schedule"
        : cs.ul_bottleneck_bps != 0.0     ? "ul_bottleneck_bps"
        : cs.bottleneck_aqm != "fifo"     ? "bottleneck_aqm"
                                          : nullptr;
    if (bottleneck_field)
        throw std::invalid_argument(
            std::string("topology_spec.cell.") + bottleneck_field +
            ": the multi-cell topology has no shared wired bottleneck — " +
            bottleneck_field + " is a cell_scenario feature (like cross_traffic)");

    if (spec_.wired_bps < 0.0)
        throw std::invalid_argument("topology: wired_bps must be >= 0");

    shards_ = std::make_unique<sim::shard_group>(
        static_cast<std::size_t>(spec_.num_cells), k_sync_quantum, spec_.jobs);

    // One observability shard per cell: each tracer/registry pair is only
    // ever written from its own shard's loop thread.
    if (spec_.cell.obs.enabled)
        hub_ = std::make_unique<obs::hub>(
            static_cast<std::size_t>(spec_.num_cells), spec_.cell.obs);

    for (int c = 0; c < spec_.num_cells; ++c) {
        cell_spec cs = spec_.cell;
        cs.num_ues = spec_.ues_per_cell;
        cs.seed = spec_.cell.seed + 7919u * static_cast<std::uint64_t>(c);
        // One impairment stage pair per home shard: each stage's RNG and
        // hold buffer are touched only from its own shard's loop, so runs
        // stay byte-identical for any `jobs`.
        if (spec_.cell.impair_dl.wants_stage()) {
            impair_dl_.push_back(std::make_unique<topo::path_impairment>(
                shards_->loop(static_cast<std::size_t>(c)), spec_.cell.impair_dl,
                topo::impairment_seed(cs.seed, /*lane=*/0, false)));
            impair_dl_.back()->set_deliver(
                [this](net::packet pkt) { forward_downlink(std::move(pkt)); });
            impair_dl_.back()->set_tracer(shard_tr(static_cast<std::size_t>(c)),
                                          /*stage=*/0);
        }
        if (spec_.cell.impair_ul.wants_stage()) {
            impair_ul_.push_back(std::make_unique<topo::path_impairment>(
                shards_->loop(static_cast<std::size_t>(c)), spec_.cell.impair_ul,
                topo::impairment_seed(cs.seed, /*lane=*/0, true)));
            impair_ul_.back()->set_deliver(
                [this](net::packet pkt) { uplink_arrival(std::move(pkt)); });
            impair_ul_.back()->set_tracer(shard_tr(static_cast<std::size_t>(c)),
                                          /*stage=*/1);
        }
        if (spec_.wired_bps > 0.0) {
            // A real (rate-limited, FIFO-buffered) server->core hop; the
            // flow's wired_owd propagation follows the serialization. This
            // is the link that link_flap faults stall and recover.
            wired_dl_.push_back(std::make_unique<topo::wired_link>(
                shards_->loop(static_cast<std::size_t>(c)), spec_.wired_bps, 0));
            wired_dl_.back()->set_deliver([this](net::packet pkt) {
                const std::size_t f = pkt.flow_id;
                if (f >= flows_.size()) return;
                shards_->loop(home_of(f)).schedule_after(
                    flows_[f]->wired_owd, [this, f, pkt = std::move(pkt)]() mutable {
                        route_downlink(f, std::move(pkt));
                    });
            });
        }
        if (spec_.wired_bps > 0.0 && hub_)
            wired_dl_.back()->queue().set_tracer(
                shard_tr(static_cast<std::size_t>(c)), /*id=*/0);
        cells_.push_back(std::make_unique<scenario::cell>(
            shards_->loop(static_cast<std::size_t>(c)), std::move(cs), c));
        if (hub_)
            cells_.back()->attach_obs(
                shard_tr(static_cast<std::size_t>(c)),
                &hub_->shard_registry(static_cast<std::size_t>(c)));
    }

    cell_down_.assign(static_cast<std::size_t>(spec_.num_cells),
                      std::vector<std::uint8_t>(
                          static_cast<std::size_t>(spec_.num_cells), 0));
    cell_rnti_ue_.resize(static_cast<std::size_t>(spec_.num_cells));

    for (int c = 0; c < spec_.num_cells; ++c) {
        for (int u = 0; u < spec_.ues_per_cell; ++u) {
            auto e = std::make_unique<ue_entry>();
            e->home = c;
            e->serving = c;
            e->rnti = cells_[static_cast<std::size_t>(c)]->rnti_of(
                static_cast<std::size_t>(u));
            cell_rnti_ue_[static_cast<std::size_t>(c)][e->rnti] =
                static_cast<int>(ues_.size());
            ues_.push_back(std::move(e));
        }
    }

    for (int c = 0; c < spec_.num_cells; ++c) {
        scenario::cell* cp = cells_[static_cast<std::size_t>(c)].get();
        // Runs on cell c's shard; forwards to the flow's home shard. flows_
        // is immutable during the run, so the cross-thread read is safe.
        cp->set_deliver_handler(
            [this](ran::rnti_t, ran::drb_id_t, net::packet pkt, sim::tick now) {
                const std::size_t f = pkt.flow_id;
                if (f >= flows_.size()) return;
                shards_->post(home_of(f), now + k_ue_stack_latency,
                              [this, f, pkt = std::move(pkt)] {
                                  flows_[f]->ep.rcv->on_packet(pkt);
                              });
            });
        cp->set_rlf_handler(
            [this, c](ran::rnti_t rnti, sim::tick) { on_rlf(c, rnti); });
        cp->set_uplink_handler([this](ran::rnti_t, net::packet pkt, sim::tick now) {
            const std::size_t f = pkt.flow_id;
            if (f >= flows_.size()) return;
            // Server-side return path: the home shard's uplink impairment
            // stage (when mounted) sits at the end of the wired hop.
            const std::size_t home = home_of(f);
            shards_->post(home, now + flows_[f]->wired_owd,
                          [this, home, pkt = std::move(pkt)]() mutable {
                              if (home < impair_ul_.size())
                                  impair_ul_[home]->send(std::move(pkt));
                              else uplink_arrival(std::move(pkt));
                          });
        });
    }
}

topology::~topology() = default;

int topology::add_flow(flow_spec fspec)
{
    if (ran_) throw std::logic_error("topology: add_flow after run");
    if (fspec.ue < 0 || static_cast<std::size_t>(fspec.ue) >= ues_.size())
        throw std::out_of_range("topology: flow attached to unknown UE");
    const sim::tick owd = sim::from_ms(fspec.wired_owd_ms);
    if (owd < shards_->quantum())
        throw std::invalid_argument(
            "topology: flow wired_owd must be >= the shard sync quantum");

    const ue_entry& u = *ues_[static_cast<std::size_t>(fspec.ue)];
    const auto home = static_cast<std::size_t>(u.home);
    const std::size_t handle = flows_.size();

    auto dl_send = [this, handle, home, owd](net::packet pkt) {
        // Runs on the home shard (the sender lives there).
        pkt.flow_id = handle;
        if (home < wired_dl_.size()) {
            // Serialization at the wired hop's line rate; the flow's
            // wired_owd propagation is added by the link's deliver handler.
            wired_dl_[home]->send(std::move(pkt));
            return;
        }
        shards_->loop(home).schedule_after(
            owd, [this, handle, pkt = std::move(pkt)]() mutable {
                route_downlink(handle, std::move(pkt));
            });
    };
    auto ul_send = [this, handle](net::packet pkt) {
        pkt.flow_id = handle;
        route_uplink(handle, std::move(pkt));
    };
    return add_flow_rec(fspec, *cells_[home], u.rnti, shards_->loop(home),
                        std::move(dl_send), std::move(ul_send), shard_tr(home));
}

void topology::route_downlink(std::size_t flow, net::packet pkt)
{
    // The wired downlink hop ends here (home shard): apply the path
    // impairment before the UPF hold/route, so held packets are never
    // impaired twice when finish_handover flushes them.
    const std::size_t home = home_of(flow);
    if (home < impair_dl_.size()) impair_dl_[home]->send(std::move(pkt));
    else forward_downlink(std::move(pkt));
}

void topology::forward_downlink(net::packet pkt)
{
    const std::size_t flow = pkt.flow_id;
    if (flow >= flows_.size()) return;
    const flow_rec& f = *flows_[flow];
    ue_entry& u = *ues_[static_cast<std::size_t>(f.spec.ue)];
    if (!u.attached) {
        u.held_dl.push_back(std::move(pkt));  // UPF holds until path switch
        return;
    }
    scenario::cell* c = cells_[static_cast<std::size_t>(u.serving)].get();
    const ran::rnti_t rnti = u.rnti;
    const ran::qfi_t qfi = f.qfi;
    const sim::tick now = shards_->loop(static_cast<std::size_t>(u.home)).now();
    shards_->post(static_cast<std::size_t>(u.serving), now + k_core_hop_latency,
                  [c, rnti, qfi, pkt = std::move(pkt)]() mutable {
                      // The UE may have detached while this hop was in
                      // flight (cannot happen while x2 >= core_hop, but
                      // stay safe): the packet is lost, like a late X2
                      // forward in a real deployment.
                      if (c->has_ue(rnti)) c->deliver_downlink(std::move(pkt), rnti, qfi);
                  });
}

void topology::uplink_arrival(net::packet pkt)
{
    const std::size_t f = pkt.flow_id;
    if (f >= flows_.size()) return;
    flows_[f]->ep.snd->on_packet(pkt);
}

void topology::route_uplink(std::size_t flow, net::packet pkt)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(flows_[flow]->spec.ue)];
    if (!u.attached) {
        u.held_ul.push_back(std::move(pkt));  // UE stack holds until path switch
        return;
    }
    scenario::cell* c = cells_[static_cast<std::size_t>(u.serving)].get();
    const ran::rnti_t rnti = u.rnti;
    const sim::tick now = shards_->loop(static_cast<std::size_t>(u.home)).now();
    shards_->post(static_cast<std::size_t>(u.serving), now + k_ue_stack_latency,
                  [c, rnti, pkt = std::move(pkt)]() mutable {
                      if (c->has_ue(rnti)) c->send_uplink(rnti, std::move(pkt));
                  });
}

void topology::schedule_handover(sim::tick when, int ue, int target_cell)
{
    if (ran_) throw std::logic_error("topology: schedule_handover after run");
    if (ue < 0 || static_cast<std::size_t>(ue) >= ues_.size())
        throw std::out_of_range("topology: handover for unknown UE");
    if (target_cell < 0 || target_cell >= num_cells())
        throw std::out_of_range("topology: handover to unknown cell");
    const std::size_t home = static_cast<std::size_t>(ues_[static_cast<std::size_t>(ue)]->home);
    shards_->loop(home).schedule_at(
        when, [this, ue, target_cell] { begin_handover(ue, target_cell); });
}

void topology::apply(const std::vector<topo::handover_event>& plan)
{
    for (const auto& ev : plan) schedule_handover(ev.when, ev.ue, ev.target_cell);
}

void topology::apply_faults(const topo::fault_plan& plan)
{
    if (ran_) throw std::logic_error("topology: apply_faults after run");
    if (faults_applied_)
        throw std::logic_error("topology: apply_faults called twice");
    const auto& cfg = plan.config();
    if (cfg.num_cells != spec_.num_cells || cfg.ues_per_cell != spec_.ues_per_cell)
        throw std::invalid_argument(
            "topology: fault plan shaped for a different topology "
            "(num_cells/ues_per_cell mismatch)");
    if (plan.count(topo::fault_class::link_flap) > 0 && wired_dl_.empty())
        throw std::invalid_argument(
            "topology: link_flap faults stall the wired server->core hop — "
            "set topology_spec.wired_bps > 0 to mount it");
    for (const auto& ev : plan.schedule()) {
        if (ev.cls != topo::fault_class::impairment_swap) continue;
        if ((ev.uplink ? impair_ul_ : impair_dl_).empty())
            throw std::invalid_argument(
                std::string("topology: impairment_swap faults need a mounted ") +
                (ev.uplink ? "uplink" : "downlink") +
                " stage — set force_stage or an active knob on "
                "cell_spec.impair_dl/impair_ul");
    }
    faults_applied_ = true;

    // Schedules `fire` at `when` on `shard`'s loop, the loop that owns the
    // state it touches, so sharded runs stay byte-identical for any `jobs`.
    // The event counts itself as injected and, with observability on,
    // traces the injection and requests a flight-recorder incident dump
    // before the fault action runs.
    const auto arm = [this](std::size_t shard, sim::tick when, topo::fault_class cls,
                            obs::reason r, std::uint64_t b, std::uint64_t c, auto fire) {
        const auto k = static_cast<std::size_t>(cls);
        ++faults_armed_[k];
        sim::event_loop* lp = &shards_->loop(shard);
        lp->schedule_at(when, [this, k, tr = shard_tr(shard), lp, r, b, c,
                               fire = std::move(fire)] {
            faults_injected_[k].fetch_add(1, std::memory_order_relaxed);
            if (tr) {
                tr->emit(lp->now(), obs::point::fault_fire, r, 0, b, c);
                tr->request_incident(lp->now(), "fault");
            }
            fire();
        });
    };

    for (const auto& ev : plan.schedule()) {
        switch (ev.cls) {
        case topo::fault_class::rlf: {
            const std::size_t home =
                static_cast<std::size_t>(ues_.at(static_cast<std::size_t>(ev.ue))->home);
            arm(home, ev.when, ev.cls, obs::reason::fault_rlf,
                static_cast<std::uint64_t>(ev.ue), static_cast<std::uint64_t>(ev.duration),
                [this, ue = ev.ue, d = ev.duration] { inject_rlf(ue, d); });
            break;
        }
        case topo::fault_class::handover_failure: {
            const std::size_t home =
                static_cast<std::size_t>(ues_.at(static_cast<std::size_t>(ev.ue))->home);
            arm(home, ev.when, ev.cls, obs::reason::fault_ho_failure,
                static_cast<std::uint64_t>(ev.ue), static_cast<std::uint64_t>(ev.mode),
                [this, ue = ev.ue, m = ev.mode] { inject_ho_failure(ue, m); });
            break;
        }
        case topo::fault_class::cell_outage: {
            const int c = ev.cell;
            // Every shard flips its private down-flag copy at the same two
            // ticks and, acting as home shard, evacuates/repatriates its
            // own UEs. Only the owning shard's event counts as injected.
            for (int s = 0; s < num_cells(); ++s) {
                auto down = [this, s, c] {
                    cell_down_[static_cast<std::size_t>(s)]
                              [static_cast<std::size_t>(c)] = 1;
                    evacuate_cell(s, c);
                };
                if (s == c)
                    arm(static_cast<std::size_t>(s), ev.when, ev.cls,
                        obs::reason::fault_cell_outage, static_cast<std::uint64_t>(c),
                        static_cast<std::uint64_t>(ev.duration), std::move(down));
                else
                    shards_->loop(static_cast<std::size_t>(s))
                        .schedule_at(ev.when, std::move(down));
                shards_->loop(static_cast<std::size_t>(s))
                    .schedule_at(ev.when + ev.duration, [this, s, c] {
                        cell_down_[static_cast<std::size_t>(s)]
                                  [static_cast<std::size_t>(c)] = 0;
                        // One restore event, on the owning shard only.
                        if (s == c) {
                            if (obs::tracer* tr =
                                    shard_tr(static_cast<std::size_t>(s)))
                                tr->emit(shards_->loop(static_cast<std::size_t>(s))
                                             .now(),
                                         obs::point::cell_restore,
                                         obs::reason::none, 0,
                                         static_cast<std::uint64_t>(c));
                        }
                        repatriate_cell(s, c);
                    });
            }
            break;
        }
        case topo::fault_class::link_flap: {
            const std::size_t c = static_cast<std::size_t>(ev.cell);
            arm(c, ev.when, ev.cls, obs::reason::fault_link_flap,
                static_cast<std::uint64_t>(ev.cell), static_cast<std::uint64_t>(ev.duration),
                [this, c] { wired_dl_[c]->set_rate(0.0); });
            // The plan's per-cell flap stream never overlaps itself, so
            // this recovery cannot re-enable a later flap's stall.
            shards_->loop(c).schedule_at(ev.when + ev.duration, [this, c] {
                wired_dl_[c]->set_rate(spec_.wired_bps);
            });
            break;
        }
        case topo::fault_class::impairment_swap: {
            const std::size_t c = static_cast<std::size_t>(ev.cell);
            topo::path_impairment* st =
                ev.uplink ? impair_ul_[c].get() : impair_dl_[c].get();
            arm(c, ev.when, ev.cls, obs::reason::fault_impair_swap,
                static_cast<std::uint64_t>(ev.cell), ev.uplink ? 1 : 0,
                [st, spec = ev.impair] { st->set_spec(spec); });
            break;
        }
        }
    }
}

void topology::inject_rlf(int ue, sim::tick duration)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
    if (!u.attached) return;  // mid-handover or mid-blackout: nothing to fail
    const std::size_t home_shard = static_cast<std::size_t>(u.home);
    if (cell_down_[home_shard][static_cast<std::size_t>(u.serving)])
        return;  // the cell is down and the UE is being evacuated anyway
    scenario::cell* c = cells_[static_cast<std::size_t>(u.serving)].get();
    const ran::rnti_t rnti = u.rnti;
    const sim::tick now = shards_->loop(home_shard).now();
    const sim::tick q = shards_->quantum();
    u.outage_until = now + duration;
    // The gNB observes the collapse one quantum later (the minimum
    // cross-shard latency); if RLF detection detaches the UE first, the
    // end_radio_outage for the dead RNTI is a no-op.
    shards_->post(static_cast<std::size_t>(u.serving), now + q,
                  [c, rnti] { c->begin_radio_outage(rnti); });
    shards_->post(static_cast<std::size_t>(u.serving),
                  now + std::max(duration, 2 * q),
                  [c, rnti] { c->end_radio_outage(rnti); });
}

void topology::inject_ho_failure(int ue, topo::ho_failure_mode mode)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
    if (!u.attached) return;  // mid-handover or mid-blackout: skip
    const int tgt = pick_neighbor(u.serving, static_cast<std::size_t>(u.home));
    if (tgt == u.serving) return;  // no healthy neighbor to attempt
    u.sabotage_next_ho = true;
    u.sabotage_mode = mode;
    begin_handover(ue, tgt);  // consumes the sabotage flag
}

void topology::on_rlf(int cell, ran::rnti_t rnti)
{
    auto& map = cell_rnti_ue_[static_cast<std::size_t>(cell)];
    const auto it = map.find(rnti);
    if (it == map.end()) return;  // a racing handover already moved the UE
    const int ue = it->second;
    map.erase(it);
    ++rlf_detected_;
    // Re-establishment invalidates the hook state (stale profile/estimator
    // state under the dead RNTI would be wrong, and removing it guarantees
    // no leaked flow-table entries) but keeps the UE's RLC/PDCP context:
    // unacked SDUs ride the re-attach and are delivered exactly once, as
    // in PDCP data recovery.
    auto ctx = cells_[static_cast<std::size_t>(cell)]->detach_ue(
        rnti, scenario::cell::hook_transfer::invalidate);
    const sim::tick now = shards_->loop(static_cast<std::size_t>(cell)).now();
    const std::size_t home_shard =
        static_cast<std::size_t>(ues_[static_cast<std::size_t>(ue)]->home);
    shards_->post(home_shard, now + k_x2_latency,
                  [this, ue, ctx = std::move(ctx)]() mutable {
                      ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
                      u.attached = false;  // UPF holds traffic from here on
                      u.blackout_start =
                          shards_->loop(static_cast<std::size_t>(u.home)).now();
                      schedule_reestablish(ue, std::move(ctx), -1);
                  });
}

void topology::schedule_reestablish(int ue, ran::ue_handover_context ctx,
                                    int preferred)
{
    const std::size_t home_shard =
        static_cast<std::size_t>(ues_[static_cast<std::size_t>(ue)]->home);
    shards_->loop(home_shard).schedule_after(
        k_reestablish_backoff,
        [this, ue, preferred, ctx = std::move(ctx)]() mutable {
            do_reestablish(ue, std::move(ctx), preferred);
        });
}

void topology::do_reestablish(int ue, ran::ue_handover_context ctx, int preferred)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
    const std::size_t home_shard = static_cast<std::size_t>(u.home);
    const sim::tick now = shards_->loop(home_shard).now();
    int tgt = preferred >= 0 ? preferred : u.serving;
    // Re-establishing toward a cell that is down — or toward the old
    // serving cell while the UE's radio outage is still running — would
    // fail again immediately: pick the lowest-indexed healthy neighbor.
    if (cell_down_[home_shard][static_cast<std::size_t>(tgt)] ||
        (tgt == u.serving && now < u.outage_until))
        tgt = pick_neighbor(tgt, home_shard);
    const std::size_t tgt_shard = static_cast<std::size_t>(tgt);
    scenario::cell* t = cells_[tgt_shard].get();
    shards_->post(
        tgt_shard, now + k_x2_latency,
        [this, ue, tgt, tgt_shard, t, ctx = std::move(ctx)]() mutable {
            if (cell_down_[tgt_shard][static_cast<std::size_t>(tgt)]) {
                // Went down while the request was in flight: back off at
                // home and try again somewhere healthy.
                const sim::tick tn = t->loop().now();
                const std::size_t home = static_cast<std::size_t>(
                    ues_[static_cast<std::size_t>(ue)]->home);
                shards_->post(home, tn + k_x2_latency,
                              [this, ue, ctx = std::move(ctx)]() mutable {
                                  schedule_reestablish(ue, std::move(ctx), -1);
                              });
                return;
            }
            readmit(ue, tgt, std::move(ctx), switch_kind::reestablish);
        });
}

void topology::evacuate_cell(int shard, int cell)
{
    // This shard, acting as home shard, hands its own UEs off the downed
    // cell; other shards do the same for theirs at the same tick.
    for (std::size_t i = 0; i < ues_.size(); ++i) {
        ue_entry& u = *ues_[i];
        if (u.home != shard) continue;  // not ours to touch
        if (!u.attached || u.serving != cell) continue;
        u.evac_return = cell;
        begin_handover(static_cast<int>(i), pick_neighbor(cell, static_cast<std::size_t>(shard)));
    }
}

void topology::repatriate_cell(int shard, int cell)
{
    for (std::size_t i = 0; i < ues_.size(); ++i) {
        ue_entry& u = *ues_[i];
        if (u.home != shard || u.evac_return != cell) continue;
        u.evac_return = -1;
        // A UE mid-handover or mid-blackout at recovery stays where it
        // lands; only settled UEs return.
        if (u.attached && u.serving != cell)
            begin_handover(static_cast<int>(i), cell);
    }
}

int topology::pick_neighbor(int avoid, std::size_t shard) const
{
    for (int c = 0; c < num_cells(); ++c)
        if (c != avoid && !cell_down_[shard][static_cast<std::size_t>(c)])
            return c;
    return avoid;  // everything is down — stay put (degraded but safe)
}

void topology::begin_handover(int ue, int target)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
    if (!u.attached || target == u.serving) return;  // mid-handover or no-op
    const std::size_t home_shard = static_cast<std::size_t>(u.home);
    if (cell_down_[home_shard][static_cast<std::size_t>(target)]) {
        // Measurement reports would not have picked a cell that is down:
        // redirect to the best healthy neighbor instead.
        target = pick_neighbor(target, home_shard);
        if (target == u.serving) return;
    }
    const bool fail = u.sabotage_next_ho;
    const topo::ho_failure_mode mode = u.sabotage_mode;
    u.sabotage_next_ho = false;
    if (fail) ++ho_failures_;
    ++ho_started_;
    u.attached = false;
    const int src_cell = u.serving;
    scenario::cell* src = cells_[static_cast<std::size_t>(u.serving)].get();
    scenario::cell* tgt = cells_[static_cast<std::size_t>(target)].get();
    const ran::rnti_t rnti = u.rnti;
    const std::size_t src_shard = static_cast<std::size_t>(u.serving);
    const std::size_t tgt_shard = static_cast<std::size_t>(target);
    const sim::tick now = shards_->loop(home_shard).now();
    if (obs::tracer* tr = shard_tr(home_shard))
        tr->emit(now, obs::point::ho_start,
                 fail ? obs::reason::ho_sabotaged : obs::reason::none,
                 static_cast<std::uint32_t>(ue),
                 static_cast<std::uint64_t>(src_cell),
                 static_cast<std::uint64_t>(target));

    // Leg 1 — handover command reaches the source cell, which exports the
    // UE context (SN status transfer + data forwarding + hook state). By
    // then every in-flight downlink/uplink packet for the UE has landed
    // (x2 >= core_hop/ue_stack), so the context captures all of them.
    shards_->post(src_shard, now + k_x2_latency, [this, ue, src, tgt, src_shard,
                                                  tgt_shard, home_shard, rnti,
                                                  target, src_cell, fail, mode] {
        // An RLF declared while the command was in flight already detached
        // the UE; the re-establishment path owns the recovery then.
        if (!src->has_ue(rnti)) return;
        cell_rnti_ue_[static_cast<std::size_t>(src_cell)].erase(rnti);
        const bool lose_ctx = fail && mode == topo::ho_failure_mode::reestablish;
        auto ctx = src->detach_ue(rnti, lose_ctx
                                            ? scenario::cell::hook_transfer::invalidate
                                            : scenario::cell::hook_transfer::migrate);
        const sim::tick t1 = src->loop().now();
        if (fail) {
            if (mode == topo::ho_failure_mode::rollback) {
                // The X2 transfer is lost; the source detects the missing
                // acknowledgment after k_ho_failure_timeout and re-admits
                // the UE with the exported state intact — every forwarded
                // SDU comes back exactly once.
                src->loop().schedule_after(
                    k_ho_failure_timeout,
                    [this, ue, src_cell, ctx = std::move(ctx)]() mutable {
                        readmit(ue, src_cell, std::move(ctx), switch_kind::rollback);
                    });
            } else {
                // The context is lost with the transfer: the UE falls back
                // to RLF re-establishment toward the original target, with
                // only what it knows itself (bearer config, no SN status).
                shards_->post(
                    home_shard, t1 + k_x2_latency,
                    [this, ue, target,
                     ctx = strip_transfer_state(std::move(ctx))]() mutable {
                        ue_entry& uu = *ues_[static_cast<std::size_t>(ue)];
                        uu.blackout_start =
                            shards_->loop(static_cast<std::size_t>(uu.home)).now();
                        schedule_reestablish(ue, std::move(ctx), target);
                    });
            }
            return;
        }
        // Leg 2 — context transfer to the target cell, which admits the UE
        // under a fresh RNTI and resumes the bearers.
        shards_->post(
            tgt_shard, t1 + k_x2_latency,
            [this, ue, tgt, tgt_shard, src_shard, src_cell, target,
             ctx = std::move(ctx)]() mutable {
                if (cell_down_[tgt_shard][static_cast<std::size_t>(target)]) {
                    // The target went down while the context was in
                    // flight: bounce it back to the source, which
                    // re-admits the UE (a rollback).
                    const sim::tick t2 = tgt->loop().now();
                    shards_->post(src_shard, t2 + k_x2_latency,
                                  [this, ue, src_cell, ctx = std::move(ctx)]() mutable {
                                      readmit(ue, src_cell, std::move(ctx),
                                              switch_kind::rollback);
                                  });
                    return;
                }
                readmit(ue, target, std::move(ctx), switch_kind::handover);
            });
    });
}

void topology::readmit(int ue, int cell, ran::ue_handover_context ctx,
                       switch_kind kind)
{
    scenario::cell* c = cells_[static_cast<std::size_t>(cell)].get();
    const ran::rnti_t new_rnti = c->attach_ue(std::move(ctx));
    cell_rnti_ue_[static_cast<std::size_t>(cell)][new_rnti] = ue;
    const sim::tick now = c->loop().now();
    // Leg 3 — path switch back to the UPF/home shard (`home` is immutable,
    // so the cross-shard read is safe).
    const std::size_t home_shard =
        static_cast<std::size_t>(ues_[static_cast<std::size_t>(ue)]->home);
    shards_->post(home_shard, now + k_x2_latency, [this, ue, cell, new_rnti, kind] {
        finish_path_switch(ue, cell, new_rnti, kind);
    });
}

void topology::finish_path_switch(int ue, int target, ran::rnti_t new_rnti,
                                  switch_kind kind)
{
    ue_entry& u = *ues_[static_cast<std::size_t>(ue)];
    u.serving = target;
    u.rnti = new_rnti;
    u.attached = true;
    switch (kind) {
    case switch_kind::handover: ++ho_completed_; break;
    case switch_kind::reestablish: ++reestablished_; break;
    case switch_kind::rollback: ++ho_rollbacks_; break;
    }
    const sim::tick now = shards_->loop(static_cast<std::size_t>(u.home)).now();
    if (obs::tracer* tr = shard_tr(static_cast<std::size_t>(u.home)))
        tr->emit(now, obs::point::ho_complete,
                 kind == switch_kind::reestablish ? obs::reason::reestablish
                 : kind == switch_kind::rollback  ? obs::reason::rollback
                                                  : obs::reason::none,
                 static_cast<std::uint32_t>(ue),
                 static_cast<std::uint64_t>(target), new_rnti);
    if (u.blackout_start >= 0) {
        u.recovery_samples.push_back(sim::to_ms(now - u.blackout_start));
        u.blackout_start = -1;
    }
    // Path switch: QUIC connections rotate to their next issued CID and
    // keep going — connection identity is the CID, not the path, so no
    // transport state migrates (TCP/media flows have nothing to do). Runs
    // on the home shard, where the endpoints live.
    for (auto& f : flows_)
        if (f->spec.ue == ue) {
            f->ep.snd->on_path_switch();
            f->ep.rcv->on_path_switch();
        }
    // Flush held packets in arrival order down the normal paths. Held
    // downlink packets already passed the impairment stage before the UPF
    // hold, so they re-enter after it (forward_downlink).
    auto dl = std::move(u.held_dl);
    u.held_dl.clear();
    for (auto& pkt : dl) forward_downlink(std::move(pkt));
    auto ul = std::move(u.held_ul);
    u.held_ul.clear();
    for (auto& pkt : ul) {
        const std::size_t f = pkt.flow_id;
        route_uplink(f, std::move(pkt));
    }
}

void topology::run(sim::tick duration)
{
    duration_ = duration;
    ran_ = true;
    if (hub_)
        for (std::size_t s = 0; s < static_cast<std::size_t>(num_cells()); ++s)
            hub_->start_sampling(shards_->loop(s), s);
    for (auto& c : cells_) c->start();
    shards_->run_until(duration);
    if (hub_) hub_->finish(duration);
}

const topology::ue_entry& topology::ue_at(int ue) const
{
    if (ue < 0 || static_cast<std::size_t>(ue) >= ues_.size())
        throw std::out_of_range("topology: UE index out of range");
    return *ues_[static_cast<std::size_t>(ue)];
}

int topology::home_cell(int ue) const
{
    return ue_at(ue).home;
}

int topology::serving_cell(int ue) const
{
    return ue_at(ue).serving;
}

ran::rnti_t topology::ue_rnti(int ue) const
{
    return ue_at(ue).rnti;
}

const topo::path_impairment* topology::impair_dl_stage(int c) const
{
    if (c < 0 || c >= num_cells())
        throw std::out_of_range("topology: impairment stage index out of range");
    return static_cast<std::size_t>(c) < impair_dl_.size()
               ? impair_dl_[static_cast<std::size_t>(c)].get()
               : nullptr;
}

const topo::path_impairment* topology::impair_ul_stage(int c) const
{
    if (c < 0 || c >= num_cells())
        throw std::out_of_range("topology: impairment stage index out of range");
    return static_cast<std::size_t>(c) < impair_ul_.size()
               ? impair_ul_[static_cast<std::size_t>(c)].get()
               : nullptr;
}

std::uint64_t topology::faults_injected(topo::fault_class cls) const
{
    return faults_injected_[static_cast<std::size_t>(cls)].load(std::memory_order_relaxed);
}

std::uint64_t topology::faults_armed(topo::fault_class cls) const
{
    return faults_armed_[static_cast<std::size_t>(cls)];
}

std::vector<double> topology::recovery_ms() const
{
    std::vector<double> out;
    for (const auto& u : ues_)
        out.insert(out.end(), u->recovery_samples.begin(),
                   u->recovery_samples.end());
    return out;
}

const topo::wired_link* topology::wired_dl_link(int c) const
{
    if (c < 0 || c >= num_cells())
        throw std::out_of_range("topology: wired link index out of range");
    return static_cast<std::size_t>(c) < wired_dl_.size()
               ? wired_dl_[static_cast<std::size_t>(c)].get()
               : nullptr;
}

bool topology::cell_is_down(int cell) const
{
    if (cell < 0 || cell >= num_cells())
        throw std::out_of_range("topology: cell index out of range");
    return cell_down_[0][static_cast<std::size_t>(cell)] != 0;
}

}  // namespace l4span::scenario
