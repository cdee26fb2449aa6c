#include "ran/gnb.h"

#include <cassert>
#include <stdexcept>

namespace l4span::ran {

gnb::gnb(sim::event_loop& loop, sched_policy policy, sim::rng rng)
    : loop_(loop), rng_(std::move(rng)), allocator_(policy)
{
}

rnti_t gnb::add_ue(chan::channel_profile profile)
{
    return add_ue_impl(
        std::make_unique<chan::fading_channel>(std::move(profile), rng_.fork()));
}

rnti_t gnb::add_ue(std::unique_ptr<chan::link_model> link)
{
    // A trace-driven link draws no channel randomness of its own; consume
    // the same single fork the fading path does so the gNB's HARQ/uplink
    // RNG stream stays aligned between a recorded run and its replay.
    (void)rng_.fork();
    return add_ue_impl(std::move(link));
}

rnti_t gnb::add_ue_impl(std::unique_ptr<chan::link_model> link)
{
    auto ue = std::make_unique<ue_ctx>(ue_ctx{
        next_rnti_,
        static_cast<std::uint32_t>(ues_.size()),
        std::move(link),
        sdap_entity{},
        {},
        {},
    });
    allocator_.add_ue();
    rnti_slots_.push_back(ue.get());
    ues_.push_back(std::move(ue));
    return next_rnti_++;
}

drb_id_t gnb::add_drb(rnti_t ue, rlc_config cfg)
{
    ue_ctx& u = find_ue(ue);
    const drb_id_t id = static_cast<drb_id_t>(u.drbs.size() + 1);
    drb_ctx d;
    d.id = id;
    d.tx = std::make_unique<rlc_tx>(ue, id, cfg, pool_);
    d.rx = std::make_unique<rlc_rx>(cfg.mode, pool_);

    rlc_tx* tx = d.tx.get();
    rlc_rx* rx = d.rx.get();
    const rnti_t rnti = ue;

    // Handlers that can fire from deferred events resolve the (RNTI, DRB)
    // pair at fire time instead of capturing entity pointers: a handover may
    // have detached the UE (and destroyed the entities) in between, in which
    // case the straggler is dropped — its data was forwarded in the handover
    // context.

    // F1-U: DU -> CU delivery status; CU and DU are co-located, so it
    // arrives at once.
    tx->set_status_handler([this](const dl_delivery_status& st) {
        if (hook_) hook_->on_delivery_status(st, loop_.now());
    });
    if (on_delay_) tx->set_delay_handler(on_delay_);
    tx->set_discard_handler([this, rnti, id](pdcp_sn_t sn, sim::tick now) {
        if (ue_ctx* u = try_ue(rnti))
            if (drb_ctx* dc = try_drb(*u, id)) dc->rx->skip(sn, now);
        if (hook_) hook_->on_dl_discard(rnti, id, sn, now);
        if (tracer_)
            tracer_->emit(now, obs::point::rlc_discard, obs::reason::queue_overflow,
                          (static_cast<std::uint32_t>(rnti) << 8) | id, sn);
    });

    // UE-side in-order delivery up the stack.
    rx->set_deliver_handler([this, rnti, id](net::packet pkt, sim::tick now) {
        if (tracer_) {
            tracer_->emit(now, obs::point::rlc_deliver, obs::reason::none,
                          (static_cast<std::uint32_t>(rnti) << 8) | id,
                          (pkt.flow_id << 32) | (pkt.pkt_id & 0xffffffffull),
                          pkt.payload_bytes);
            if (tracer_->wants_flow(pkt.flow_id))
                tracer_->emit(now, obs::point::lifecycle, obs::reason::none,
                              (static_cast<std::uint32_t>(rnti) << 8) | id,
                              pkt.pkt_id, pkt.payload_bytes);
        }
        if (on_deliver_) on_deliver_(rnti, id, std::move(pkt), now);
    });
    // RLC ACK: UE -> DU status report rides the next UL opportunity.
    rx->set_ack_handler([this, rnti, id](pdcp_sn_t ack_sn, sim::tick) {
        const sim::tick period = k_slot * k_tdd_period_slots;
        const sim::tick wait = period - (loop_.now() % period);  // next UL slot
        loop_.schedule_after(wait, [this, rnti, id, ack_sn] {
            if (ue_ctx* u = try_ue(rnti))
                if (drb_ctx* dc = try_drb(*u, id))
                    dc->tx->on_delivery_confirmed(ack_sn, loop_.now());
        });
    });

    u.drbs.push_back(std::move(d));
    return id;
}

void gnb::map_qos_flow(rnti_t ue, qfi_t qfi, drb_id_t drb)
{
    find_ue(ue).sdap.map(qfi, drb);
}

qfi_t gnb::add_qos_flow(rnti_t ue, drb_id_t drb)
{
    return find_ue(ue).sdap.add(drb);
}

ue_handover_context gnb::detach_ue(rnti_t ue)
{
    ue_ctx& u = find_ue(ue);
    ue_handover_context ctx;
    ctx.profile = u.channel->profile();
    // A trace replay's cursor must continue at the target cell; a fading
    // realization is re-drawn there (new cell, new radio link).
    if (u.channel->migrates_on_handover()) ctx.link = std::move(u.channel);
    ctx.qfi_map = u.sdap.export_mappings();
    for (auto& d : u.drbs) {
        ue_handover_context::drb_context dc;
        dc.id = d.id;
        dc.cfg = d.tx->config();
        dc.pdcp_next_sn = d.pdcp.next_sn();
        dc.tx = d.tx->export_context();
        dc.rx = d.rx->export_context();
        ctx.drbs.push_back(std::move(dc));
    }
    // The dense scheduler slot stays (tombstone) so PRB-allocator indexing
    // is stable; the RNTI stops resolving and is never reused.
    u.drbs.clear();
    for (auto& tb : u.pending_retx) release_chunks(tb.chunks);
    u.pending_retx.clear();
    u.active = false;
    u.in_outage = false;
    u.harq_fail_streak = 0;
    u.rlf_declared = false;
    if (u.rlf_timer_id) {
        loop_.cancel(u.rlf_timer_id);
        u.rlf_timer_id = 0;
    }
    rnti_slots_[ue - 1] = nullptr;
    return ctx;
}

rnti_t gnb::attach_ue(ue_handover_context ctx)
{
    const rnti_t rnti = ctx.link ? add_ue(std::move(ctx.link)) : add_ue(ctx.profile);
    ue_ctx& u = find_ue(rnti);
    for (auto& dc : ctx.drbs) {
        const drb_id_t id = add_drb(rnti, dc.cfg);
        // add_drb assigns ids sequentially from 1, exactly how the source
        // cell created them, so the context's ids line up.
        if (id != dc.id) throw std::logic_error("handover context DRB id mismatch");
        drb_ctx& d = *try_drb(u, id);
        d.pdcp.restore(dc.pdcp_next_sn);
        d.tx->restore(std::move(dc.tx), loop_.now());
        d.rx->restore(dc.rx);
    }
    for (const auto& [qfi, drb] : ctx.qfi_map) u.sdap.map(qfi, drb);
    return rnti;
}

void gnb::begin_outage(rnti_t ue)
{
    ue_ctx* up = try_ue(ue);
    if (!up || up->in_outage) return;  // detached meanwhile, or already failing
    ue_ctx& u = *up;
    u.in_outage = true;
    u.harq_fail_streak = 0;
    // Supervision-timer fallback (T310-style): a UE with no downlink
    // backlog produces no HARQ evidence, so radio-link monitoring declares
    // the failure after the timer. HARQ failures usually beat it.
    const rnti_t rnti = u.rnti;
    u.rlf_timer_id = loop_.schedule_after(k_rlf_timer, [this, rnti] {
        if (ue_ctx* uc = try_ue(rnti)) {
            uc->rlf_timer_id = 0;
            declare_rlf(*uc);
        }
    });
}

void gnb::end_outage(rnti_t ue)
{
    ue_ctx* up = try_ue(ue);
    if (!up || !up->in_outage) return;  // RLF detection already detached it
    ue_ctx& u = *up;
    u.in_outage = false;
    u.harq_fail_streak = 0;
    if (u.rlf_timer_id) {
        loop_.cancel(u.rlf_timer_id);
        u.rlf_timer_id = 0;
    }
    // A declared-but-not-yet-detached UE stays declared: the RLF handler's
    // re-establishment is already in flight and owns the recovery.
}

bool gnb::in_outage(rnti_t ue)
{
    ue_ctx* up = try_ue(ue);
    return up && up->in_outage;
}

void gnb::declare_rlf(ue_ctx& u)
{
    if (u.rlf_declared) return;
    u.rlf_declared = true;
    if (tracer_)
        tracer_->emit(loop_.now(), obs::point::rlf_declared, obs::reason::none,
                      static_cast<std::uint32_t>(u.rnti) << 8,
                      static_cast<std::uint64_t>(u.harq_fail_streak));
    if (u.rlf_timer_id) {
        loop_.cancel(u.rlf_timer_id);
        u.rlf_timer_id = 0;
    }
    if (!on_rlf_) return;
    // Fire from a fresh event: the declaration can come from the middle of
    // conclude_tb, and the handler will typically detach the UE (destroying
    // the bearer entities around the caller's feet).
    const rnti_t rnti = u.rnti;
    loop_.schedule_after(0, [this, rnti] {
        if (try_ue(rnti) && on_rlf_) on_rlf_(rnti, loop_.now());
    });
}

std::size_t gnb::active_ues() const
{
    std::size_t n = 0;
    for (const auto& u : ues_)
        if (u->active) ++n;
    return n;
}

std::vector<rnti_t> gnb::active_rntis() const
{
    std::vector<rnti_t> out;
    for (const auto& u : ues_)
        if (u->active) out.push_back(u->rnti);
    return out;
}

void gnb::set_delay_handler(rlc_tx::delay_handler h)
{
    on_delay_ = std::move(h);
    for (auto& u : ues_)
        for (auto& d : u->drbs) d.tx->set_delay_handler(on_delay_);
}

void gnb::start()
{
    if (started_) return;
    started_ = true;
    loop_.schedule_after(k_slot, [this] { on_slot(); });
}

void gnb::deliver_downlink(net::packet pkt, rnti_t ue, qfi_t qfi)
{
    // A packet can race a handover (already in the core hop when the UE was
    // detached): it is lost here, like a late X2 forward in a real deployment.
    ue_ctx* up = try_ue(ue);
    if (!up) return;
    ue_ctx& u = *up;
    const drb_id_t drb_id = u.sdap.lookup(qfi);
    drb_ctx& d = find_drb(u, drb_id);
    const sim::tick now = loop_.now();
    pkt.ran_ingress = now;
    const std::uint32_t bearer = (static_cast<std::uint32_t>(ue) << 8) |
                                 static_cast<std::uint32_t>(drb_id);
    if (tracer_)
        tracer_->emit(now, obs::point::sdap_ingress, obs::reason::none, bearer,
                      pkt.flow_id, pkt.pkt_id);

    // Admission check before PDCP SN assignment keeps the SN space hole-free
    // (mirrors PDCP discarding when the RLC SDU queue is full).
    if (!d.tx->has_room()) {
        if (tracer_)
            tracer_->emit(now, obs::point::rlc_discard, obs::reason::rlc_full,
                          bearer, pkt.flow_id, pkt.pkt_id);
        return;
    }

    const pdcp_sn_t sn = d.pdcp.next_sn();
    if (hook_ && !hook_->on_dl_packet(pkt, ue, drb_id, sn, now)) {  // drop feedback
        if (tracer_)
            tracer_->emit(now, obs::point::rlc_discard, obs::reason::hook_drop,
                          bearer, pkt.flow_id, pkt.pkt_id);
        return;
    }
    if (tracer_) {
        tracer_->emit(now, obs::point::rlc_enqueue, obs::reason::none, bearer, sn,
                      (pkt.flow_id << 32) | (pkt.pkt_id & 0xffffffffull));
        if (tracer_->wants_flow(pkt.flow_id))
            tracer_->emit(now, obs::point::lifecycle, obs::reason::none, bearer,
                          pkt.pkt_id, sn);
    }
    d.tx->enqueue(d.pdcp.wrap(std::move(pkt), now), now);
}

void gnb::send_uplink(rnti_t ue, net::packet pkt)
{
    // Uplink is uncongested in this model: the packet waits for the next UL
    // TDD opportunity plus bounded scheduling jitter, then reaches the CU.
    // Release times are kept monotone per UE (a UL grant carries the ACK
    // stream in order).
    ue_ctx* up = try_ue(ue);
    if (!up) return;  // detached mid-handover: the uplink packet is lost
    ue_ctx& u = *up;
    if (u.in_outage) return;  // radio blackout: the uplink is dead too
    if (tracer_)
        tracer_->emit(loop_.now(), obs::point::ul_ingress, obs::reason::none,
                      static_cast<std::uint32_t>(ue) << 8, pkt.flow_id, pkt.pkt_id);
    const sim::tick period = k_slot * k_tdd_period_slots;
    const sim::tick wait = period - (loop_.now() % period);
    const sim::tick jitter =
        static_cast<sim::tick>(rng_.uniform(0.0, static_cast<double>(k_ul_proc_jitter)));
    sim::tick release = loop_.now() + wait + jitter;
    if (release <= u.last_ul_release) release = u.last_ul_release + sim::k_microsecond;
    u.last_ul_release = release;
    loop_.schedule_at(release, [this, ue, pkt = std::move(pkt)]() mutable {
        if (hook_ && !hook_->on_ul_packet(pkt, ue, loop_.now())) return;
        // CU -> core hop.
        loop_.schedule_after(k_core_latency, [this, ue, pkt = std::move(pkt)]() mutable {
            if (on_uplink_) on_uplink_(ue, std::move(pkt), loop_.now());
        });
    });
}

bool gnb::is_dl_slot(std::uint64_t slot_idx, double& capacity_factor) const
{
    const int pos =
        static_cast<int>(slot_idx % static_cast<std::uint64_t>(k_tdd_period_slots));
    if (pos < k_tdd_dl_slots) {
        capacity_factor = 1.0;
        return true;
    }
    if (pos == k_tdd_dl_slots) {  // special slot
        capacity_factor = k_special_slot_factor;
        return true;
    }
    return false;  // UL slot
}

void gnb::on_slot()
{
    const sim::tick now = loop_.now();
    ++slot_count_;
    double cap_factor = 0.0;
    const bool dl = is_dl_slot(slot_count_, cap_factor);

    if (dl) {
        int available_prb = k_n_prb;

        // HARQ retransmissions claim the slot first. conclude_tb never
        // pushes into pending_retx synchronously (retransmissions arrive
        // via a scheduled HARQ-RTT event), so iterating in place is safe
        // and keeps the deque's capacity instead of churning it per slot.
        for (auto& u : ues_) {
            if (u->pending_retx.empty()) continue;
            for (auto& tb : u->pending_retx) {
                available_prb -= tb.prbs;
                conclude_tb(std::move(tb));
            }
            u->pending_retx.clear();
        }
        if (available_prb < 0) available_prb = 0;

        // Collect backlogged UEs and their current link quality into
        // per-slot scratch members (no allocation in the steady state).
        std::vector<sched_input>& inputs = sched_inputs_;
        std::vector<ue_ctx*>& who = sched_who_;
        std::vector<int>& mcs_of = sched_mcs_;  // per-`who` entry, for the DCI link log
        inputs.clear();
        who.clear();
        mcs_of.clear();
        const double eff_re = 168.0 * (1.0 - 0.14) * cap_factor;
        for (auto& u : ues_) {
            if (!u->active) continue;  // detached tombstone: no bearers
            std::uint64_t backlog = 0;
            for (auto& d : u->drbs) backlog += d.tx->backlog_bytes();
            if (backlog == 0) continue;
            const int mcs = u->channel->mcs(now);
            if (mcs < 0) {
                // Below MCS0: the query still happened, so a recording must
                // carry it for the replay to consult the trace identically.
                if (on_linklog_) on_linklog_(u->rnti, now, mcs, 0, 0);
                continue;
            }
            sched_input si;
            si.ue_index = u->index;
            si.backlog_bytes = backlog;
            si.bytes_per_prb = eff_re * chan::spectral_efficiency(mcs) / 8.0;
            inputs.push_back(si);
            who.push_back(u.get());
            mcs_of.push_back(mcs);
        }

        allocator_.allocate(inputs, available_prb, sched_grants_);
        const std::vector<int>& grants = sched_grants_;

        for (std::size_t i = 0; i < who.size(); ++i) {
            ue_ctx& u = *who[i];
            int prbs = grants[i];
            // A DCI replay cannot grant more PRBs than the recorded slot
            // carried; fading channels return -1 (no cap).
            const int cap = u.channel->prb_cap(now);
            if (cap >= 0 && prbs > cap) prbs = cap;
            double served = 0.0;
            if (prbs > 0) {
                std::uint32_t grant_bytes =
                    static_cast<std::uint32_t>(inputs[i].bytes_per_prb * prbs);
                // Logical-channel prioritization: split the grant evenly
                // across backlogged DRBs, rotating the order per slot so no
                // bearer is systematically favoured; leftover bytes spill to
                // whichever bearer still has data.
                std::vector<drb_ctx*>& active = drb_active_;
                active.clear();
                for (auto& d : u.drbs)
                    if (d.tx->backlog_bytes() > 0) active.push_back(&d);
                const std::size_t n = active.size();
                for (std::size_t k = 0; k < 2 * n && grant_bytes > 0; ++k) {
                    drb_ctx& d = *active[(slot_count_ + k) % n];
                    if (d.tx->backlog_bytes() == 0) continue;
                    const std::uint32_t share =
                        k < n ? std::max<std::uint32_t>(
                                    1, grant_bytes / static_cast<std::uint32_t>(n - k))
                              : grant_bytes;
                    auto chunks = take_chunk_vec();
                    d.tx->pull(std::min(share, grant_bytes), now, chunks);
                    std::uint32_t used = 0;
                    for (const auto& c : chunks) used += c.bytes;
                    grant_bytes -= used;
                    served += used;
                    if (!chunks.empty()) {
                        if (on_txlog_) on_txlog_(u.rnti, d.id, used, now);
                        transmit_tb(u, d, std::move(chunks), used, prbs, 1);
                    } else {
                        give_chunk_vec(std::move(chunks));
                    }
                }
            }
            allocator_.update_average(u.index, served);
            if (on_linklog_)
                on_linklog_(u.rnti, now, mcs_of[i], prbs,
                            static_cast<std::uint32_t>(served));
        }
        // UEs not considered this slot (no backlog) still age their PF average.
        considered_scratch_.assign(ues_.size(), 0);
        for (const auto* w : who) considered_scratch_[w->index] = 1;
        for (auto& u : ues_)
            if (!considered_scratch_[u->index]) allocator_.update_average(u->index, 0.0);
    }

    loop_.schedule_after(k_slot, [this] { on_slot(); });
}

void gnb::transmit_tb(ue_ctx& ue, drb_ctx& drb, std::vector<tb_chunk> chunks,
                      std::uint32_t bytes, int prbs, int attempt)
{
    if (tracer_) {
        const std::uint32_t bearer = (static_cast<std::uint32_t>(ue.rnti) << 8) |
                                     static_cast<std::uint32_t>(drb.id);
        const sim::tick now = loop_.now();
        for (const auto& c : chunks) {
            tracer_->emit(now, obs::point::mac_tx,
                          c.is_retx ? obs::reason::harq_retx : obs::reason::none,
                          bearer, c.sn, c.bytes);
            // Lifecycle mode: the final chunk carries the SDU's pool handle,
            // the stable identity of the packet across RLC/HARQ hops.
            if (c.pkt && tracer_->wants_flow(pool_.at(c.pkt).flow_id))
                tracer_->emit(now, obs::point::lifecycle, obs::reason::none,
                              bearer, pool_.at(c.pkt).pkt_id, c.pkt.slot);
        }
    }
    harq_tb tb;
    tb.ue = ue.rnti;
    tb.drb = drb.id;
    tb.bytes = bytes;
    tb.prbs = prbs;
    tb.attempt = attempt;
    tb.chunks = std::move(chunks);
    conclude_tb(std::move(tb));
}

void gnb::release_chunks(std::vector<tb_chunk>& chunks)
{
    for (auto& c : chunks)
        if (c.pkt) {
            pool_.release(c.pkt);
            c.pkt = {};
        }
    give_chunk_vec(std::move(chunks));
}

std::vector<tb_chunk> gnb::take_chunk_vec()
{
    if (chunk_vec_pool_.empty()) return {};
    std::vector<tb_chunk> v = std::move(chunk_vec_pool_.back());
    chunk_vec_pool_.pop_back();
    return v;
}

void gnb::give_chunk_vec(std::vector<tb_chunk> v)
{
    if (chunk_vec_pool_.size() >= 64) return;  // cap the recycler
    v.clear();
    chunk_vec_pool_.push_back(std::move(v));
}

void gnb::conclude_tb(harq_tb tb)
{
    // The UE may have been detached (handover) while this TB was in flight;
    // its SDUs were forwarded in the handover context, so drop the straggler
    // (releasing the chunks' packet references).
    ue_ctx* u = try_ue(tb.ue);
    if (!u) {
        release_chunks(tb.chunks);
        return;
    }
    bool decoded;
    if (u->in_outage) {
        // Radio blackout: every TB fails, without consuming an RNG draw so
        // other UEs' HARQ randomness is undisturbed. Consecutive failed
        // conclusions are the out-of-sync evidence RLF detection counts.
        decoded = false;
        if (++u->harq_fail_streak >= k_rlf_consecutive_harq) declare_rlf(*u);
    } else {
        const double bler = tb.attempt == 1 ? k_initial_bler : k_retx_bler;
        decoded = !rng_.bernoulli(bler);
        if (decoded) u->harq_fail_streak = 0;
    }
    if (tracer_) {
        obs::reason r = obs::reason::harq_ok;
        if (!decoded)
            r = u->in_outage                  ? obs::reason::outage
                : tb.attempt >= k_max_harq_tx ? obs::reason::harq_fail
                                              : obs::reason::harq_retx;
        tracer_->emit(loop_.now(), obs::point::harq_conclude, r,
                      (static_cast<std::uint32_t>(tb.ue) << 8) |
                          static_cast<std::uint32_t>(tb.drb),
                      static_cast<std::uint64_t>(tb.attempt), tb.bytes);
    }
    if (decoded) {
        // Decoded: the UE's RLC sees the chunks after the over-the-air delay.
        // The receive entity takes over each chunk's packet reference; if the
        // UE vanished meanwhile the references are released here.
        loop_.schedule_after(
            k_ota_delay,
            [this, rnti = tb.ue, drb = tb.drb, chunks = std::move(tb.chunks)]() mutable {
                ue_ctx* uc = try_ue(rnti);
                drb_ctx* dc = uc ? try_drb(*uc, drb) : nullptr;
                if (!dc) {
                    release_chunks(chunks);
                    return;
                }
                for (auto& c : chunks) dc->rx->on_chunk(c, loop_.now());
                give_chunk_vec(std::move(chunks));
            });
        return;
    }
    if (tb.attempt >= k_max_harq_tx) {
        // HARQ exhausted: RLC AM requeues (from its retention window), UM
        // loses the data; either way the chunks' own references die here.
        find_drb(*u, tb.drb).tx->on_tb_lost(tb.chunks, loop_.now());
        release_chunks(tb.chunks);
        return;
    }
    // Schedule the retransmission one HARQ RTT later; it claims PRBs in the
    // first DL slot at or after that time.
    tb.attempt += 1;
    loop_.schedule_after(k_harq_rtt, [this, tb = std::move(tb)]() mutable {
        if (ue_ctx* uc = try_ue(tb.ue))
            uc->pending_retx.push_back(std::move(tb));
        else
            release_chunks(tb.chunks);
    });
}

rlc_tx& gnb::rlc(rnti_t ue, drb_id_t drb)
{
    return *find_drb(find_ue(ue), drb).tx;
}

const rlc_tx& gnb::rlc(rnti_t ue, drb_id_t drb) const
{
    return *const_cast<gnb*>(this)->find_drb(const_cast<gnb*>(this)->find_ue(ue), drb).tx;
}

std::size_t gnb::resident_state_bytes() const
{
    std::size_t total = 0;
    for (const auto& u : ues_) {
        total += sizeof(ue_ctx);
        for (const auto& d : u->drbs) {
            total += sizeof(drb_ctx);
            total += d.tx->queued_sdus() * (sizeof(pdcp_sdu) + sizeof(net::packet));
        }
    }
    return total;
}

gnb::ue_ctx& gnb::find_ue(rnti_t ue)
{
    ue_ctx* u = try_ue(ue);
    if (!u) throw std::out_of_range("unknown rnti");
    return *u;
}

gnb::ue_ctx* gnb::try_ue(rnti_t ue)
{
    if (ue < 1 || static_cast<std::size_t>(ue) > rnti_slots_.size()) return nullptr;
    return rnti_slots_[ue - 1];
}

gnb::drb_ctx& gnb::find_drb(ue_ctx& ue, drb_id_t id)
{
    drb_ctx* d = try_drb(ue, id);
    if (!d) throw std::out_of_range("unknown drb");
    return *d;
}

gnb::drb_ctx* gnb::try_drb(ue_ctx& ue, drb_id_t id)
{
    for (auto& d : ue.drbs)
        if (d.id == id) return &d;
    return nullptr;
}

}  // namespace l4span::ran
