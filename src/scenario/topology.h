// Multi-cell experiment harness: N scenario::cells, one per shard of a
// sim::shard_group, joined by a shared core/UPF routing stage, with X2/Xn
// handovers driven by a topo::mobility_model plan (or scheduled directly).
//
// Placement model
// ---------------
// Every UE has an immutable *home shard* — the shard of its initial cell —
// where its whole endpoint chain lives for the run: server-side sender,
// wired path, and UE receiver, plus the UPF routing entry. The *serving
// cell* (gNB actually carrying the bearers) starts out as the home cell and
// changes at handover. All routing decisions for a UE execute on its home
// shard, so no per-UE state is ever touched from two shards.
//
// Cross-shard hops and their latencies (constants below; each is >= the
// sync quantum, the largest slot-aligned value not exceeding any of them):
//   downlink  sender --wired_owd--> UPF --core_hop--> serving gNB
//   delivery  serving gNB RLC --ue_stack--> receiver (modem -> app hop)
//   uplink    receiver --ue_stack--> serving gNB --wired_owd--> sender
//   handover  home --x2--> source (detach) --x2--> target (attach)
//                  --x2--> home (path switch)
// During the handover (3 x2 legs of interruption), downlink and uplink
// packets are held at the UPF / UE stack and flushed in order on path
// switch; in-flight RLC SDUs ride the forwarded handover context, so
// nothing the source cell admitted is dropped in RLC AM.
//
// Results are byte-identical for any `jobs` value (see sim::shard_group).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "scenario/cell.h"
#include "sim/shard_group.h"
#include "topo/fault_plan.h"
#include "topo/mobility_model.h"
#include "topo/wired_link.h"

namespace l4span::scenario {

inline constexpr sim::tick k_core_hop_latency = sim::from_ms(1);    // UPF -> gNB
inline constexpr sim::tick k_ue_stack_latency = sim::from_us(500);  // modem <-> app
inline constexpr sim::tick k_x2_latency = sim::from_ms(2);          // per X2/Xn leg
// Shards synchronize at slot boundaries, so every cross-shard hop must
// span at least one MAC slot.
static_assert(k_core_hop_latency >= ran::k_slot && k_ue_stack_latency >= ran::k_slot &&
                  k_x2_latency >= ran::k_slot,
              "every cross-shard latency must be >= one MAC slot");
// The X2 context transfer must not outrun in-flight downlink/uplink
// packets, or data already heading to the source cell would be lost.
static_assert(k_x2_latency >= k_core_hop_latency && k_x2_latency >= k_ue_stack_latency,
              "x2 latency must be >= the core_hop and ue_stack latencies");
// Largest multiple of the MAC slot that does not exceed any cross-shard
// latency: the shard group's sync quantum.
inline constexpr sim::tick k_sync_quantum =
    std::min({k_core_hop_latency, k_ue_stack_latency, k_x2_latency}) / ran::k_slot *
    ran::k_slot;

// Fault recovery: the UE-side wait between losing service (RLF declared,
// or a handover's context transfer lost) and the re-establishment attach
// attempt, and how long the source cell waits for the (lost) X2 transfer
// acknowledgment before rolling the UE back.
inline constexpr sim::tick k_reestablish_backoff = sim::from_ms(100);
inline constexpr sim::tick k_ho_failure_timeout = sim::from_ms(20);

struct topology_spec {
    int num_cells = 2;
    int ues_per_cell = 1;
    // Per-cell template. num_ues is ignored (ues_per_cell governs) and the
    // seed is offset per cell so every cell draws independent randomness.
    cell_spec cell;
    // Worker threads for the shard group (1 = serial; results identical).
    int jobs = 1;
    // Line rate of the per-shard server->core wired hop. 0 (default)
    // models the hop as latency-only, exactly as before; > 0 mounts a
    // topo::wired_link with bounded FIFO buffering, which link_flap faults
    // stall (set_rate(0)) and recover.
    double wired_bps = 0.0;
};

class topology : public flow_table {
public:
    explicit topology(topology_spec spec);
    ~topology();

    int num_cells() const { return static_cast<int>(cells_.size()); }
    int num_ues() const { return static_cast<int>(ues_.size()); }
    scenario::cell& cell_at(int c) { return *cells_.at(static_cast<std::size_t>(c)); }
    sim::shard_group& shards() { return *shards_; }
    sim::tick quantum() const { return shards_->quantum(); }

    // `spec.ue` is a global UE index in [0, num_ues). Call before run().
    // The per-flow results are flow_table's accessors.
    int add_flow(flow_spec spec);

    // Schedules one X2/Xn handover (skipped if the UE is mid-handover or
    // already served by `target_cell` when it fires). Call before run().
    void schedule_handover(sim::tick when, int ue, int target_cell);
    void apply(const std::vector<topo::handover_event>& plan);

    // Arms a deterministic chaos schedule (topo::fault_plan): every
    // injection point is pre-armed on the loop that owns the affected
    // state, so runs stay byte-identical for any `jobs`. Call once, before
    // run(). Throws std::invalid_argument when the plan does not fit this
    // topology (shape mismatch, link_flap without wired_bps,
    // impairment_swap without a mounted stage).
    void apply_faults(const topo::fault_plan& plan);

    void run(sim::tick duration);

    // --- topology-level introspection ---
    int home_cell(int ue) const;
    int serving_cell(int ue) const;
    ran::rnti_t ue_rnti(int ue) const;
    std::uint64_t handovers_started() const { return ho_started_.load(); }
    std::uint64_t handovers_completed() const { return ho_completed_.load(); }
    std::uint64_t processed_events() const { return shards_->processed(); }
    // Wired-path impairment stage of shard `c` (one pair per home shard, so
    // sharded runs stay race-free and byte-identical); nullptr when the
    // spec's knobs are all off. Read only after run().
    const topo::path_impairment* impair_dl_stage(int c) const;
    const topo::path_impairment* impair_ul_stage(int c) const;

    // --- fault introspection (read after run() unless noted) ---
    // Events of `cls` whose injection point actually fired (an armed event
    // can be skipped when its UE was mid-handover or its cell evacuated).
    std::uint64_t faults_injected(topo::fault_class cls) const;
    std::uint64_t faults_armed(topo::fault_class cls) const;
    std::uint64_t rlf_detected() const { return rlf_detected_.load(); }
    std::uint64_t reestablishments() const { return reestablished_.load(); }
    std::uint64_t ho_failures() const { return ho_failures_.load(); }
    std::uint64_t ho_rollbacks() const { return ho_rollbacks_.load(); }
    // Service-recovery times in ms (service lost -> path switched back in),
    // aggregated over UEs in index order, so the vector is deterministic.
    std::vector<double> recovery_ms() const;
    // The per-shard wired downlink hop (nullptr when wired_bps == 0).
    const topo::wired_link* wired_dl_link(int c) const;
    // Shard 0's view of the cell-down flag — exact in serial runs and
    // between runs; other shards flip their copies at the same tick.
    bool cell_is_down(int cell) const;

    // --- observability ---
    // The hub (nullptr unless spec.cell.obs.enabled): one tracer + registry
    // shard per cell, so per-shard buffers are single-writer and the merged
    // views are byte-identical for any `jobs`. run() takes the final
    // snapshots and writes the JSONL artifacts when obs.out_prefix is set.
    obs::hub* obs_hub() { return hub_.get(); }

private:
    struct ue_entry {
        int home = 0;     // immutable; also the home shard index
        int serving = 0;  // mutated only from the home shard
        ran::rnti_t rnti = 0;
        bool attached = true;  // false while a handover is in flight
        std::vector<net::packet> held_dl;  // UPF hold during handover
        std::vector<net::packet> held_ul;  // UE-stack hold during handover
        // --- fault state (home-shard owned) ---
        bool sabotage_next_ho = false;  // consumed by begin_handover
        topo::ho_failure_mode sabotage_mode = topo::ho_failure_mode::rollback;
        sim::tick outage_until = -1;    // injected radio-outage end
        sim::tick blackout_start = -1;  // service lost; cleared at recovery
        int evac_return = -1;           // cell to return to after an outage
        std::vector<double> recovery_samples;  // ms, blackout -> recovery
    };

    // All of these run on the UE's home shard. route_downlink pushes the
    // packet through the home shard's impairment stage (when mounted)
    // before forward_downlink applies the UPF hold/routing; uplink_arrival
    // is the server-side return hop, after the uplink impairment stage.
    void route_downlink(std::size_t flow, net::packet pkt);
    void forward_downlink(net::packet pkt);
    void route_uplink(std::size_t flow, net::packet pkt);
    void uplink_arrival(net::packet pkt);
    void begin_handover(int ue, int target);
    // How a path switch came about — a completed handover, an RLF
    // re-establishment, or a failed handover rolled back to its source.
    enum class switch_kind : std::uint8_t { handover, reestablish, rollback };
    void finish_path_switch(int ue, int target, ran::rnti_t new_rnti,
                            switch_kind kind);

    // --- fault actions (each runs on the shard that owns its state) ---
    void inject_rlf(int ue, sim::tick duration);         // home shard
    void inject_ho_failure(int ue, topo::ho_failure_mode mode);  // home shard
    void on_rlf(int cell, ran::rnti_t rnti);             // serving shard
    // Home shard: backoff, then the attach attempt at a healthy cell.
    void schedule_reestablish(int ue, ran::ue_handover_context ctx,
                              int preferred);
    void do_reestablish(int ue, ran::ue_handover_context ctx, int preferred);
    // `cell`'s shard: re-admit the UE there and path-switch at home.
    void readmit(int ue, int cell, ran::ue_handover_context ctx,
                 switch_kind kind);
    void evacuate_cell(int shard, int cell);    // shard acting as home
    void repatriate_cell(int shard, int cell);  // shard acting as home
    // Lowest-indexed cell != avoid that `shard` believes is up (falls back
    // to `avoid` when everything is down).
    int pick_neighbor(int avoid, std::size_t shard) const;

    // Home shard of `flow`'s UE. Read from any shard: ues_ and each
    // entry's `home` are immutable during the run.
    std::size_t home_of(std::size_t flow) const
    {
        return static_cast<std::size_t>(
            ues_[static_cast<std::size_t>(flows_[flow]->spec.ue)]->home);
    }
    const ue_entry& ue_at(int ue) const;
    // Shard `s`'s tracer, or nullptr with observability off — the one
    // branch every topology-level trace site pays.
    obs::tracer* shard_tr(std::size_t s)
    {
        return hub_ ? &hub_->shard_tracer(s) : nullptr;
    }

    topology_spec spec_;
    std::unique_ptr<obs::hub> hub_;
    std::unique_ptr<sim::shard_group> shards_;
    std::vector<std::unique_ptr<scenario::cell>> cells_;
    // One stage pair per home shard (empty vectors when the spec mounts
    // none); each stage lives entirely on its shard's loop.
    std::vector<std::unique_ptr<topo::path_impairment>> impair_dl_;
    std::vector<std::unique_ptr<topo::path_impairment>> impair_ul_;
    // Per-shard wired downlink hop (empty when wired_bps == 0); each link
    // lives entirely on its shard's loop, like the impairment stages.
    std::vector<std::unique_ptr<topo::wired_link>> wired_dl_;
    std::vector<std::unique_ptr<ue_entry>> ues_;
    // cell_down_[shard][cell]: every shard's private copy of the cell-down
    // flags, flipped by pre-armed events at the same tick on every shard —
    // no cross-shard reads, so sharded runs stay byte-identical.
    std::vector<std::vector<std::uint8_t>> cell_down_;
    // rnti -> global UE index per cell, touched only on the owning shard
    // (the RLF handler gets an RNTI and needs the UE it belongs to).
    std::vector<std::unordered_map<ran::rnti_t, int>> cell_rnti_ue_;
    // Per-class fault accounting. Armed counts are written before the run;
    // an injected count is bumped by whichever shard thread fires the event
    // (relaxed: read only after run() joins the workers).
    std::array<std::uint64_t, topo::k_num_fault_classes> faults_armed_{};
    std::array<std::atomic<std::uint64_t>, topo::k_num_fault_classes> faults_injected_{};
    bool ran_ = false;
    bool faults_applied_ = false;
    std::atomic<std::uint64_t> ho_started_{0};
    std::atomic<std::uint64_t> ho_completed_{0};
    std::atomic<std::uint64_t> rlf_detected_{0};
    std::atomic<std::uint64_t> reestablished_{0};
    std::atomic<std::uint64_t> ho_failures_{0};
    std::atomic<std::uint64_t> ho_rollbacks_{0};
};

}  // namespace l4span::scenario
