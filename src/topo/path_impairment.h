// Composable wired-path impairment stage ("A Fresh Look at ECN Traversal in
// the Wild"): real Internet paths bleach CE marks, strip ECT, re-mark
// ECT(1) traffic, lose, reorder and duplicate packets. L4Span's premise is
// that ECN signaling survives end-to-end; this stage lets every scenario
// ask what happens when the path lies.
//
// A stage is inserted on one wired hop, one direction (the scenarios mount
// one between the core bottleneck and the RAN, and one on the server-side
// return path). Per packet, the transforms apply in a fixed, documented
// order:
//
//   1. re-mark   ECT(1) -> ECT(0)   (L4S identifier erased; flow now classic)
//   2. bleach    CE     -> ECT(0)   (congestion signal erased, ECT restored)
//   3. strip     any    -> Not-ECT  (field-zeroing middlebox: ECT and CE
//                both cleared — the path declares the flow non-ECN-capable,
//                and senders' ECN validation eventually falls back)
//   4. loss      Bernoulli, or Gilbert bursts when loss_burst > 1
//   5. reorder   hold the packet until `reorder_gap` later packets have
//                passed (delay-k-packets), bounded by reorder_hold_max
//   6. duplicate deliver the packet twice (reordered packets are never
//                also duplicated; the decision order above is normative)
//
// Determinism: each stage owns a private RNG seeded at construction
// (impairment_seed), draws only as a function of its own traffic, and runs
// entirely on one event loop — so sharded topologies stay byte-identical
// for any --jobs, and a stage with every knob off draws no randomness and
// schedules no events (the pass-through fast path is behavior-preserving).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace l4span::topo {

struct impairment_spec {
    // Marking transforms (independent per-packet probabilities in [0, 1],
    // applied in the normative order documented above).
    double remark_ect1 = 0.0;  // ECT(1) -> ECT(0)
    double bleach_ce = 0.0;    // CE -> ECT(0)
    double strip_ect = 0.0;    // ECT(0)/ECT(1)/CE -> Not-ECT (field zeroed)
    // Loss: stationary loss probability; loss_burst is the mean burst
    // length in packets (1 = independent Bernoulli, >1 = Gilbert bursts).
    double loss = 0.0;
    double loss_burst = 1.0;
    // Reordering: with probability `reorder`, hold the packet until
    // `reorder_gap` subsequent packets have passed, or `reorder_hold_max`
    // sim time elapses, whichever comes first (so tail packets cannot
    // vanish into the hold buffer).
    double reorder = 0.0;
    int reorder_gap = 3;
    sim::tick reorder_hold_max = sim::from_ms(20);
    // Duplication probability.
    double duplicate = 0.0;
    // Install the stage even when every knob is off — exercises the
    // pass-through fast path (the behavior-preservation tests set it).
    bool force_stage = false;

    // Per-flow policies, five-tuple-hashed: when non-empty, each packet is
    // governed by flow_policies[hash(five_tuple) % size()] INSTEAD of the
    // base knobs — modelling per-flow ECMP, where different flows of one
    // host ride different transit paths through different middleboxes (the
    // measurement papers see exactly this: one flow bleached, its sibling
    // clean). Policies may not nest; Gilbert loss-burst state is tracked
    // per policy, while the reorder hold buffer (a shared queue) and the
    // RNG stay stage-wide.
    std::vector<impairment_spec> flow_policies;

    // True when any impairment can actually fire.
    bool any_active() const
    {
        if (remark_ect1 > 0.0 || bleach_ce > 0.0 || strip_ect > 0.0 ||
            loss > 0.0 || reorder > 0.0 || duplicate > 0.0)
            return true;
        for (const auto& p : flow_policies)
            if (p.any_active()) return true;
        return false;
    }
    // True when a scenario should mount a stage at all.
    bool wants_stage() const { return force_stage || any_active(); }

    // Throws std::invalid_argument naming `where` (e.g.
    // "cell_spec.impair_dl") with an actionable message on any
    // out-of-range knob.
    void validate(const std::string& where) const;
};

struct impairment_stats {
    std::uint64_t input = 0;      // packets entering the stage
    std::uint64_t delivered = 0;  // packets leaving (includes duplicates)
    std::uint64_t remarked = 0;   // ECT(1) -> ECT(0)
    std::uint64_t bleached = 0;   // CE -> ECT(0)
    std::uint64_t stripped = 0;   // ECT -> Not-ECT
    std::uint64_t lost = 0;
    std::uint64_t reordered = 0;  // packets that took the hold path
    std::uint64_t duplicated = 0;
};

// Deterministic seed derivation: the splitmix64 finalizer over `base`
// offset by the golden-ratio multiple of `stream`, forced odd. Distinct
// `stream` values give independent RNG streams from one scenario seed.
inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t x = base ^ (0x9e3779b97f4a7c15ull * stream);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x | 1;
}

// Per-stage seed: `lane` distinguishes stages of one scenario (shard
// index, flow handle, ...), `uplink` the direction.
inline std::uint64_t impairment_seed(std::uint64_t base, std::uint64_t lane,
                                     bool uplink)
{
    return derive_seed(base, 2 * lane + (uplink ? 1 : 0) + 1);
}

class path_impairment {
public:
    using deliver_fn = std::function<void(net::packet)>;

    // Validates `spec` (throws std::invalid_argument, see
    // impairment_spec::validate). The loop is used only for the reorder
    // hold timeout; an all-off stage never touches it.
    path_impairment(sim::event_loop& loop, impairment_spec spec, std::uint64_t seed);

    void set_deliver(deliver_fn f) { deliver_ = std::move(f); }

    // Pushes one packet through the stage. Deliveries happen synchronously
    // (zero, one or two calls into the deliver handler) except for held
    // (reordered) packets, which leave when enough traffic has passed or
    // their hold timer fires.
    void send(net::packet p);

    // Replaces the stage's spec mid-run (fault injection: a reroute onto a
    // different transit path). Validates like the constructor; the RNG and
    // the cumulative stats carry over, loss-burst state resets (a new path
    // has no memory of the old one's bursts), and already-held packets
    // release under their original gap counters and hold timers.
    void set_spec(impairment_spec spec);

    const impairment_spec& spec() const { return spec_; }
    const impairment_stats& stats() const { return st_; }
    // Reason-coded `impair` trace events at every transform that fires
    // (remark/bleach/strip/loss/reorder/duplicate). `stage` labels this
    // stage in the merged trace (the scenarios use (lane << 1) | uplink).
    void set_tracer(obs::tracer* t, std::uint32_t stage)
    {
        tracer_ = t;
        stage_id_ = stage;
    }
    // Packets currently in the reorder hold buffer (conservation:
    // input + duplicated == delivered + lost + held).
    std::size_t held_packets() const { return held_.size(); }

private:
    struct held_pkt {
        net::packet pkt;
        int remaining;        // passing packets until release
        std::uint64_t id;     // matches the hold-timeout event
    };

    bool lose_next(const impairment_spec& act, std::uint8_t& burst);
    void pass(net::packet p);            // deliver + advance the hold buffer
    void deliver(net::packet p);
    void release_by_id(std::uint64_t id);
    void trace(const net::packet& p, obs::reason r);

    sim::event_loop& loop_;
    impairment_spec spec_;
    sim::rng rng_;
    deliver_fn deliver_;
    impairment_stats st_;
    obs::tracer* tracer_ = nullptr;
    std::uint32_t stage_id_ = 0;
    std::uint8_t base_burst_ = 0;            // Gilbert state, base knobs
    std::vector<std::uint8_t> policy_burst_;  // Gilbert state per flow policy
    std::vector<held_pkt> held_;
    std::uint64_t next_hold_id_ = 0;
};

}  // namespace l4span::topo
