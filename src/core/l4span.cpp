#include "core/l4span.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace l4span::core {

namespace {
std::uint32_t drb_key(ran::rnti_t ue, ran::drb_id_t drb)
{
    return (static_cast<std::uint32_t>(ue) << 8) | drb;
}
}  // namespace

l4span::l4span(l4span_config cfg)
    : cfg_(cfg),
      k_const_(marking::aimd_constant(cfg.classic_beta)),
      window_(cfg.coherence_time / 2),
      rng_(cfg.seed)
{
}

l4span::drb_state& l4span::drb(ran::rnti_t ue, ran::drb_id_t drb_id)
{
    auto [d, inserted] = drbs_.try_emplace(drb_key(ue, drb_id));
    if (inserted) *d = drb_state(window_);
    return *d;
}

const l4span::drb_state* l4span::find_drb(ran::rnti_t ue, ran::drb_id_t drb_id) const
{
    return drbs_.find(drb_key(ue, drb_id));
}

sim::tick l4span::rtt_hat(const drb_state& d, const flow_state& flow) const
{
    // RTT_hat = RTT* + predicted sojourn; 2 * predicted sojourn when the
    // handshake was not observable (UDP), §4.2.2. The sojourn term is capped
    // at the target: Eq. (2) describes the intended operating point, and an
    // uncapped bloated queue would deflate p quadratically — weakening the
    // marking exactly when the queue most needs draining.
    const sim::tick sojourn = std::min(d.predicted_sojourn, cfg_.sojourn_threshold);
    if (flow.rtt_star >= 0) return flow.rtt_star + sojourn;
    return 2 * std::max<sim::tick>(sojourn, sim::from_ms(1));
}

double l4span::flow_p_classic(const drb_state& d, const flow_state& flow) const
{
    // Overload brake: a queue far beyond target (slow-start overshoot, a
    // channel collapse) is marked unconditionally so the sender's once-per-
    // RTT reduction engages. Suspended while the backlog is already
    // shrinking — the signal has worked and repeating it over-cuts.
    if (d.predicted_sojourn > 3 * cfg_.sojourn_threshold && !d.draining) return 1.0;
    const double p = marking::p_classic(cfg_.mss, k_const_, rtt_hat(d, flow),
                                        d.estimator.rate_Bps());
    // Eq. (2) matches the sender's average ingress to the RAN egress, which
    // presumes a standing buffer (Fig. 4: the classic queue never drains to
    // zero). Scale by the queue's predicted sojourn relative to the target:
    // below target the flow is never suppressed before it builds its working
    // buffer; above target the extra marking drains the backlog. The stable
    // point sits at sojourn ~= tau_s with ingress matching egress.
    const double occupancy = static_cast<double>(d.predicted_sojourn) /
                             static_cast<double>(cfg_.sojourn_threshold);
    return std::min(1.0, p * occupancy);
}

double l4span::mark_probability(const drb_state& d, const flow_state& flow) const
{
    if (!d.estimator.has_estimate()) return 0.0;
    const bool mixed = d.has_l4s && d.has_classic;
    const bool is_l4s = flow.cls == net::flow_class::l4s;

    if (mixed) {
        switch (cfg_.shared_policy) {
        case shared_drb_policy::l4s_all: return d.p_l4s;
        case shared_drb_policy::classic_all: return flow_p_classic(d, flow);
        case shared_drb_policy::original:
            return is_l4s ? d.p_l4s : flow_p_classic(d, flow);
        case shared_drb_policy::coupled:
            return is_l4s ? marking::p_l4s_coupled(flow_p_classic(d, flow), k_const_)
                          : flow_p_classic(d, flow);
        }
    }
    return is_l4s ? d.p_l4s : flow_p_classic(d, flow);
}

bool l4span::on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb_id,
                          ran::pdcp_sn_t sn, sim::tick now)
{
    ++dl_events_;
    drb_state& d = drb(ue, drb_id);

    // --- five-tuple -> (UE, DRB) mapping and flow classification ---
    flow_state& flow = flows_[pkt.ft];
    flow.ue = ue;
    flow.drb = drb_id;
    if (net::is_ect(pkt.ecn_field)) {
        // CE packets keep the class learned from earlier ECT codepoints.
        flow.cls = net::classify(pkt.ecn_field);
    } else if (pkt.ecn_field == net::ecn::not_ect && flow.cls == net::flow_class::non_ecn) {
        flow.cls = net::flow_class::non_ecn;
    }
    if (flow.cls == net::flow_class::l4s) d.has_l4s = true;
    if (flow.cls == net::flow_class::classic) d.has_classic = true;

    // --- TCP bookkeeping: RTT*, AccECN negotiation, CWR observation ---
    if (pkt.is_tcp()) {
        const auto& h = *pkt.tcp;
        if (h.flags.syn && !h.flags.ack) {
            flow.syn_time = now;
            flow.accecn = h.flags.ae;  // AccECN offered in the SYN
        } else if (flow.syn_time >= 0 && flow.rtt_star < 0 && h.flags.ack &&
                   pkt.payload_bytes == 0 && !h.flags.syn) {
            // First forward packet after the SYN: the handshake-completing
            // ACK. Interval = RTT* (§4.2.2).
            flow.rtt_star = now - flow.syn_time;
        }
        if (h.flags.cwr) flow.ece_active = false;  // sender reacted (RFC 3168)
    }

    // --- profile the packet (§4.3.2) ---
    d.table.on_ingress(sn, pkt.size_bytes(), now);

    // --- marking decision ---
    // One reason-coded trace event per decision; the probability rides in
    // fixed-point (1e9) in `c`. Emission never touches the RNG or the
    // decision itself.
    const auto trace_dl = [&](obs::reason r, double prob) {
        if (tracer_)
            tracer_->emit(now, obs::point::l4span_dl, r, drb_key(ue, drb_id),
                          (pkt.flow_id << 32) | (pkt.pkt_id & 0xffffffffull),
                          static_cast<std::uint64_t>(prob * 1e9));
    };
    if (pkt.payload_bytes == 0) {
        trace_dl(obs::reason::control, 0.0);
        return true;  // control segments are not marked
    }
    const double p = mark_probability(d, flow);
    const bool hit = rng_.bernoulli(p);

    if (pkt.is_tcp() && cfg_.short_circuit) {
        // Drop-based fallback for flows the path declared non-ECN-capable
        // (§4.2 "fall back to dropping"): a stripped TCP flow gets no ACK
        // rewrite (no ECT bytes to count, no CE to invent), so without the
        // drop it would receive no congestion signal at all and sit in a
        // deep RLC queue. `hit` was drawn above either way, so runs with
        // the knob off are byte-identical.
        if (hit && pkt.ecn_field == net::ecn::not_ect && cfg_.drop_non_ecn) {
            ++drops_;
            d.table.retract_last();
            trace_dl(obs::reason::drop_non_ecn, p);
            return false;
        }
        // Tentative mark: bookkeeping only; the signal is injected into the
        // uplink ACK stream (§4.4), skipping the RLC queue's sojourn. The
        // bookkeeping mirrors what an honest AccECN receiver would count, so
        // it keys off the codepoint that actually arrived: a CU mark needs
        // ECT (a path that stripped the field gets no CE invented for it,
        // and the sender's ECN validation can notice), and upstream CE — a
        // core AQM marked before the RAN — is passed through as CE feedback
        // rather than miscounted as ECT bytes.
        if (pkt.ecn_field == net::ecn::ce || (hit && net::is_ect(pkt.ecn_field))) {
            if (pkt.ecn_field != net::ecn::ce) {
                ++marks_;
                trace_dl(obs::reason::tentative_mark, p);
            } else {
                trace_dl(obs::reason::ce_upstream, p);
            }
            if (flow.accecn) {
                flow.ce_pkts += 1;
                flow.ce_bytes += pkt.payload_bytes;
            } else {
                flow.ece_active = true;
            }
            return true;
        }
        trace_dl(obs::reason::pass, p);
        if (flow.accecn) {
            if (pkt.ecn_field == net::ecn::ect1) flow.ect1_bytes += pkt.payload_bytes;
            else if (pkt.ecn_field == net::ecn::ect0) flow.ect0_bytes += pkt.payload_bytes;
            // Not-ECT bytes are not counted anywhere, exactly like the
            // receiver's own AccECN counters.
        }
        return true;
    }

    // Downlink marking path (UDP/QUIC flows, or TCP with short-circuiting
    // disabled): set CE on the IP header, or drop for non-ECN flows.
    if (hit) {
        if (net::is_ect(pkt.ecn_field)) {
            pkt.ecn_field = net::ecn::ce;
            ++marks_;
            trace_dl(obs::reason::ce_mark, p);
            return true;
        }
        if (pkt.ecn_field == net::ecn::not_ect && cfg_.drop_non_ecn) {
            ++drops_;
            d.table.retract_last();
            trace_dl(obs::reason::drop_non_ecn, p);
            return false;
        }
    }
    trace_dl(obs::reason::pass, p);
    return true;
}

bool l4span::on_ul_packet(net::packet& pkt, ran::rnti_t ue, sim::tick now)
{
    (void)ue;
    ++ul_events_;
    if (!cfg_.short_circuit || !pkt.is_tcp_ack()) return true;

    // Reverse-map the ACK to its downlink flow (§4.1).
    const flow_state* fs = flows_.find(pkt.ft.reversed());
    if (!fs) return true;
    const flow_state& flow = *fs;

    if (tracer_)
        tracer_->emit(now, obs::point::l4span_ul,
                      flow.accecn ? obs::reason::ack_ace : obs::reason::ack_ece,
                      drb_key(flow.ue, flow.drb), pkt.flow_id,
                      flow.accecn ? flow.ce_pkts : (flow.ece_active ? 1 : 0));

    auto& h = *pkt.tcp;
    if (flow.accecn) {
        // Overwrite the receiver's AccECN feedback with the CU's bookkeeping:
        // the sender then reacts to RAN congestion one RLC sojourn earlier.
        h.set_ace(static_cast<std::uint8_t>(flow.ce_pkts & 0x7));
        h.accecn.present = true;
        h.accecn.ee0b = flow.ect0_bytes & 0xffffff;
        h.accecn.eceb = flow.ce_bytes & 0xffffff;
        h.accecn.ee1b = flow.ect1_bytes & 0xffffff;
    } else {
        h.flags.ece = flow.ece_active;
    }
    return true;
}

void l4span::on_delivery_status(const ran::dl_delivery_status& st, sim::tick now)
{
    ++feedback_events_;
    // Find-only: a status about an RNTI whose state was invalidated (RLF
    // re-establishment) or migrated away must not resurrect an empty entry
    // under the dead key — packets create state, feedback never does.
    drb_state* found = drbs_.find(drb_key(st.ue, st.drb));
    if (!found) return;
    drb_state& d = *found;
    if (st.has_transmitted) {
        d.table.on_transmitted(st.highest_transmitted_sn, st.timestamp,
                               [&](ran::pdcp_sn_t, std::uint32_t bytes) {
                                   d.estimator.on_transmit(st.timestamp, bytes);
                               });
        // Busy-period accounting: a drained queue means subsequent silence
        // is application-limited, not a capacity signal.
        if (d.table.standing_bytes() == 0) d.estimator.on_queue_empty(st.timestamp);
    }
    if (st.has_delivered) d.table.on_delivered(st.highest_delivered_sn, st.timestamp);
    refresh_marking(d);
    d.table.prune(now, cfg_.prune_horizon);
}

void l4span::on_dl_discard(ran::rnti_t ue, ran::drb_id_t drb_id, ran::pdcp_sn_t sn,
                           sim::tick /*now*/)
{
    // Find-only, like on_delivery_status: late discards for a dead RNTI
    // must not re-create state.
    if (drb_state* d = drbs_.find(drb_key(ue, drb_id))) d->table.on_discard(sn);
}

struct l4span::migrated : ran::cu_hook::ue_state {
    std::vector<std::pair<ran::drb_id_t, drb_state>> drbs;
    std::vector<std::pair<net::five_tuple, flow_state>> flows;
};

std::unique_ptr<ran::cu_hook::ue_state> l4span::detach_ue(ran::rnti_t ue)
{
    auto st = std::make_unique<migrated>();
    // Both tables are unordered; export in sorted key order so a sharded
    // multi-cell run stays byte-identical regardless of hash-table history.
    std::vector<std::uint32_t> keys;
    drbs_.for_each([&](std::uint32_t key, const drb_state&) {
        if ((key >> 8) == ue) keys.push_back(key);
    });
    std::sort(keys.begin(), keys.end());
    for (const auto key : keys) {
        st->drbs.emplace_back(static_cast<ran::drb_id_t>(key & 0xff),
                              std::move(*drbs_.find(key)));
        drbs_.erase(key);
    }
    std::vector<net::five_tuple> fts;
    flows_.for_each([&](const net::five_tuple& ft, const flow_state& fs) {
        if (fs.ue == ue) fts.push_back(ft);
    });
    std::sort(fts.begin(), fts.end(), [](const net::five_tuple& a, const net::five_tuple& b) {
        return std::tie(a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.proto) <
               std::tie(b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.proto);
    });
    for (const auto& ft : fts) {
        st->flows.emplace_back(ft, std::move(*flows_.find(ft)));
        flows_.erase(ft);
    }
    return st;
}

void l4span::attach_ue(ran::rnti_t ue, std::unique_ptr<ran::cu_hook::ue_state> state)
{
    auto* st = dynamic_cast<migrated*>(state.get());
    if (!st) return;  // foreign hook's state: nothing to adopt
    for (auto& [id, d] : st->drbs) drbs_[drb_key(ue, id)] = std::move(d);
    for (auto& [ft, fs] : st->flows) {
        fs.ue = ue;
        flows_[ft] = std::move(fs);
    }
}

void l4span::refresh_marking(drb_state& d)
{
    const std::uint64_t standing = d.table.standing_bytes();
    d.draining = standing < d.prev_standing;
    d.prev_standing = standing;
    const double r_hat = d.estimator.rate_Bps();
    // Eq. (5): predicted sojourn of the standing queue.
    d.predicted_sojourn =
        r_hat > 0.0
            ? static_cast<sim::tick>(static_cast<double>(d.table.standing_bytes()) /
                                     r_hat * sim::k_second)
            : 0;
    // Eq. (1).
    d.p_l4s = marking::p_l4s(d.table.standing_bytes(), cfg_.sojourn_threshold, r_hat,
                             cfg_.error_aware ? d.estimator.rate_err_Bps() : 0.0);
    if (sojourn_hist_) sojourn_hist_->sample(sim::to_ms(d.predicted_sojourn));
}

l4span::drb_view l4span::view(ran::rnti_t ue, ran::drb_id_t drb_id) const
{
    drb_view v;
    const drb_state* d = find_drb(ue, drb_id);
    if (!d) return v;
    v.rate_hat_Bps = d->estimator.rate_Bps();
    v.rate_err_Bps = d->estimator.rate_err_Bps();
    v.predicted_sojourn = d->predicted_sojourn;
    v.standing_bytes = d->table.standing_bytes();
    v.p_l4s = d->p_l4s;
    v.has_l4s = d->has_l4s;
    v.has_classic = d->has_classic;
    return v;
}

std::vector<ran::rnti_t> l4span::tracked_ues() const
{
    std::vector<ran::rnti_t> out;
    drbs_.for_each([&](std::uint32_t key, const drb_state&) {
        out.push_back(static_cast<ran::rnti_t>(key >> 8));
    });
    flows_.for_each([&](const net::five_tuple&, const flow_state& fs) {
        out.push_back(fs.ue);
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::size_t l4span::resident_state_bytes() const
{
    std::size_t total = sizeof(*this);
    drbs_.for_each([&](std::uint32_t, const drb_state& d) {
        total += sizeof(drb_state) + d.table.size() * sizeof(profile_entry);
    });
    total += flows_.size() * (sizeof(net::five_tuple) + sizeof(flow_state));
    return total;
}

}  // namespace l4span::core
