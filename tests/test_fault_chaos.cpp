// Fault-injection end-to-end: deterministic chaos schedules replayed through
// scenario::topology. Single-fault scenarios pin down each class's recovery
// machinery (RLF re-establishment, handover-failure rollback and
// re-establishment, cell outage evacuation, wired-link flaps, impairment
// swaps); the soak runs throw every class at once across seeds and check the
// structural invariants (no dangling RNTIs, no leaked L4Span state, packet
// conservation); and the jobs test pins byte-identity of a chaos run.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/l4span.h"
#include "scenario/topology.h"
#include "topo/fault_plan.h"

using namespace l4span;

namespace {

scenario::topology_spec fault_topo_spec(int cells, int ues_per_cell,
                                        scenario::cu_mode cu, int jobs = 1)
{
    scenario::topology_spec spec;
    spec.num_cells = cells;
    spec.ues_per_cell = ues_per_cell;
    spec.cell.cu = cu;
    spec.cell.channel = "static";
    spec.cell.seed = 5;
    spec.jobs = jobs;
    return spec;
}

topo::fault_plan_config base_fault_cfg(const scenario::topology_spec& spec,
                                       sim::tick end)
{
    topo::fault_plan_config cfg;
    cfg.num_cells = spec.num_cells;
    cfg.ues_per_cell = spec.ues_per_cell;
    cfg.start = sim::from_ms(800);
    cfg.end = end;
    cfg.seed = 21;
    return cfg;
}

// No stale L4Span state: every RNTI the cell's entity still tracks must be
// an RNTI the gNB still serves (detach/invalidate must not leak entries).
void expect_no_leaked_hook_state(scenario::topology& topo)
{
    for (int c = 0; c < topo.num_cells(); ++c) {
        core::l4span* ent = topo.cell_at(c).l4span_layer();
        if (!ent) continue;
        const auto tracked = ent->tracked_ues();
        const auto active = topo.cell_at(c).gnb().active_rntis();
        for (const ran::rnti_t rnti : tracked)
            EXPECT_TRUE(std::find(active.begin(), active.end(), rnti) !=
                        active.end())
                << "cell " << c << " leaked L4Span state for RNTI " << rnti;
    }
}

// Every UE the topology believes is attached must resolve at its serving
// cell, and no cell may serve more UEs than exist.
void expect_consistent_attachment(scenario::topology& topo)
{
    std::size_t total_active = 0;
    for (int c = 0; c < topo.num_cells(); ++c)
        total_active += topo.cell_at(c).gnb().active_ues();
    EXPECT_LE(total_active, static_cast<std::size_t>(topo.num_ues()));
    // Note: RNTIs are per-gNB counters, so one numeric RNTI can exist at two
    // cells for two *different* UEs — cross-cell has_ue comparisons would be
    // meaningless. The per-UE invariant is that the serving pointer is a
    // valid cell; a UE mid-recovery at run end is legitimately detached.
    for (int u = 0; u < topo.num_ues(); ++u) {
        const int serving = topo.serving_cell(u);
        ASSERT_GE(serving, 0);
        ASSERT_LT(serving, topo.num_cells());
    }
}

}  // namespace

// --- single-class scenarios -------------------------------------------------

TEST(fault_chaos, rlf_reestablishes_and_flow_survives)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int u = 0; u < topo.num_ues(); ++u) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = u;
        handles.push_back(topo.add_flow(f));
    }
    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.rlf_per_ue_per_sec = 2.0;
    // Outages comfortably above the gNB's 200 ms RLF timer, so every
    // injected outage is detected and declared.
    cfg.rlf_outage_mean = sim::from_ms(600);
    cfg.rlf_outage_min = sim::from_ms(400);
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::rlf), 1u);
    topo.apply_faults(plan);
    topo.run(sim::from_sec(4));

    EXPECT_EQ(topo.faults_armed(topo::fault_class::rlf),
              plan.count(topo::fault_class::rlf));
    EXPECT_GE(topo.faults_injected(topo::fault_class::rlf), 1u);
    EXPECT_LE(topo.faults_injected(topo::fault_class::rlf),
              topo.faults_armed(topo::fault_class::rlf));
    // Detection -> detach -> backoff -> re-attach, once per declared RLF.
    EXPECT_GE(topo.rlf_detected(), 1u);
    EXPECT_LE(topo.rlf_detected(), topo.faults_injected(topo::fault_class::rlf));
    EXPECT_EQ(topo.reestablishments(), topo.rlf_detected());
    // Service interruption: at least the re-establishment backoff, and far
    // below the outage length (the UE re-attaches at the healthy neighbor
    // instead of waiting the radio out).
    const auto rec = topo.recovery_ms();
    ASSERT_EQ(rec.size(), topo.reestablishments());
    for (const double ms : rec) {
        EXPECT_GE(ms, sim::to_ms(scenario::k_reestablish_backoff));
        EXPECT_LT(ms, 400.0);
    }
    // The flows kept delivering after the last possible recovery.
    for (const int h : handles) {
        EXPECT_GT(topo.delivered_bytes(h), 1u << 20);
        EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(3700)), 0.5);
    }
    expect_consistent_attachment(topo);
    expect_no_leaked_hook_state(topo);
}

TEST(fault_chaos, handover_failure_rolls_back_to_source)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int u = 0; u < topo.num_ues(); ++u) {
        scenario::flow_spec f;
        f.cca = "cubic";
        f.ue = u;
        handles.push_back(topo.add_flow(f));
    }
    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.ho_failure_per_ue_per_sec = 1.5;
    cfg.ho_failure_reestablish_fraction = 0.0;  // all roll back
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::handover_failure), 1u);
    topo.apply_faults(plan);
    topo.run(sim::from_sec(4));

    EXPECT_GE(topo.ho_failures(), 1u);
    // Every sabotaged handover returned its context to the source: the UE
    // never moved, and no handover completed (there is no other mobility).
    EXPECT_EQ(topo.ho_rollbacks(), topo.ho_failures());
    EXPECT_EQ(topo.handovers_completed(), 0u);
    EXPECT_EQ(topo.reestablishments(), 0u);
    for (int u = 0; u < topo.num_ues(); ++u) {
        EXPECT_EQ(topo.serving_cell(u), topo.home_cell(u));
        EXPECT_TRUE(topo.cell_at(topo.serving_cell(u)).gnb().has_ue(topo.ue_rnti(u)));
    }
    // Rollback re-admits the exported context intact — forwarded SDUs come
    // back exactly once, so TCP sees no loss it must repair.
    for (const int h : handles) {
        EXPECT_EQ(topo.flow_retransmits(h), 0u);
        EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(3700)), 0.5);
    }
    expect_no_leaked_hook_state(topo);
}

TEST(fault_chaos, handover_failure_reestablishes_with_stripped_state)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int u = 0; u < topo.num_ues(); ++u) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = u;
        handles.push_back(topo.add_flow(f));
    }
    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.ho_failure_per_ue_per_sec = 1.5;
    cfg.ho_failure_reestablish_fraction = 1.0;  // context lost every time
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::handover_failure), 1u);
    topo.apply_faults(plan);
    topo.run(sim::from_sec(4));

    EXPECT_GE(topo.ho_failures(), 1u);
    EXPECT_EQ(topo.ho_rollbacks(), 0u);
    // Every failure recovered as an RLF re-establishment toward the target.
    EXPECT_EQ(topo.reestablishments(), topo.ho_failures());
    const auto rec = topo.recovery_ms();
    ASSERT_EQ(rec.size(), topo.reestablishments());
    for (const double ms : rec)
        EXPECT_GE(ms, sim::to_ms(scenario::k_reestablish_backoff));
    // The flows survived losing their RLC/PDCP state end-to-end.
    for (const int h : handles) {
        EXPECT_GT(topo.delivered_bytes(h), 1u << 20);
        EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(3700)), 0.5);
    }
    expect_consistent_attachment(topo);
    expect_no_leaked_hook_state(topo);
}

TEST(fault_chaos, cell_outage_evacuates_and_repatriates)
{
    auto spec = fault_topo_spec(3, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int u = 0; u < topo.num_ues(); ++u) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = u;
        handles.push_back(topo.add_flow(f));
    }
    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.outages_per_cell_per_sec = 0.8;
    cfg.cell_outage_mean = sim::from_ms(500);
    cfg.cell_outage_min = sim::from_ms(300);
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::cell_outage), 1u);
    // Run until well past the last recovery, so repatriation settles.
    sim::tick last_recovery = 0;
    for (const auto& ev : plan.schedule())
        last_recovery = std::max(last_recovery, ev.when + ev.duration);
    topo.apply_faults(plan);
    topo.run(std::max(sim::from_sec(4), last_recovery + sim::from_sec(1)));

    EXPECT_EQ(topo.faults_injected(topo::fault_class::cell_outage),
              plan.count(topo::fault_class::cell_outage));
    // Evacuations are ordinary forced handovers.
    EXPECT_GE(topo.handovers_started(), 1u);
    EXPECT_GE(topo.handovers_completed(), 1u);
    for (int c = 0; c < topo.num_cells(); ++c)
        EXPECT_FALSE(topo.cell_is_down(c)) << "cell " << c;
    // Every UE settled back at an up cell and kept its flow alive.
    for (int u = 0; u < topo.num_ues(); ++u)
        EXPECT_TRUE(topo.cell_at(topo.serving_cell(u)).gnb().has_ue(topo.ue_rnti(u)));
    for (const int h : handles)
        EXPECT_GT(topo.delivered_bytes(h), 1u << 20);
    expect_consistent_attachment(topo);
    expect_no_leaked_hook_state(topo);
}

TEST(fault_chaos, link_flap_stalls_and_recovers_tcp_and_quic)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    spec.wired_bps = 50e6;  // mounts the flappable server->core hop
    scenario::topology topo(spec);
    scenario::flow_spec tcp_f;
    tcp_f.cca = "cubic";
    tcp_f.ue = 0;
    const int tcp_h = topo.add_flow(tcp_f);
    scenario::flow_spec quic_f;
    quic_f.cca = "quic-prague";
    quic_f.ue = 1;
    const int quic_h = topo.add_flow(quic_f);

    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.flaps_per_cell_per_sec = 1.5;
    // Multi-second blackout: the transports must ride it out on RTO/PTO
    // backoff and resume when the link pumps again.
    cfg.flap_mean = sim::from_ms(2000);
    cfg.flap_min = sim::from_ms(1500);
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::link_flap), 1u);
    sim::tick last_recovery = 0;
    for (const auto& ev : plan.schedule())
        last_recovery = std::max(last_recovery, ev.when + ev.duration);
    topo.apply_faults(plan);
    const sim::tick horizon =
        std::max(sim::from_sec(5), last_recovery + sim::from_sec(2));
    topo.run(horizon);

    ASSERT_NE(topo.wired_dl_link(0), nullptr);
    ASSERT_NE(topo.wired_dl_link(1), nullptr);
    EXPECT_EQ(topo.faults_injected(topo::fault_class::link_flap),
              plan.count(topo::fault_class::link_flap));
    // Both transports are alive again after the last flap recovered.
    EXPECT_GT(topo.goodput_series(tcp_h).mbps_at(horizon - sim::from_ms(300)), 0.5);
    EXPECT_GT(topo.goodput_series(quic_h).mbps_at(horizon - sim::from_ms(300)), 0.5);
    EXPECT_GT(topo.delivered_bytes(tcp_h), 1u << 20);
    EXPECT_GT(topo.delivered_bytes(quic_h), 1u << 20);
}

TEST(fault_chaos, link_flap_without_wired_hop_is_rejected)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);  // wired_bps = 0
    scenario::topology topo(spec);
    auto cfg = base_fault_cfg(spec, sim::from_ms(2000));
    cfg.flaps_per_cell_per_sec = 1.0;
    EXPECT_THROW(topo.apply_faults(topo::fault_plan(cfg)), std::invalid_argument);
}

TEST(fault_chaos, impairment_swap_reroutes_mid_run)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    spec.cell.impair_dl.force_stage = true;  // clean stage to swap against
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "prague";
    f.ue = 0;
    const int h = topo.add_flow(f);

    auto cfg = base_fault_cfg(spec, sim::from_ms(2500));
    cfg.swaps_per_cell_per_sec = 1.5;
    // First swap reroutes onto a stripping transit, the next back to clean.
    topo::impairment_spec stripping;
    stripping.strip_ect = 1.0;
    topo::impairment_spec clean;
    clean.force_stage = true;
    cfg.swap_profiles = {stripping, clean};
    const topo::fault_plan plan(cfg);
    std::size_t cell0_swaps = 0;
    for (const auto& ev : plan.schedule())
        if (ev.cls == topo::fault_class::impairment_swap && ev.cell == 0)
            ++cell0_swaps;
    ASSERT_GE(cell0_swaps, 1u);
    topo.apply_faults(plan);
    topo.run(sim::from_sec(4));

    EXPECT_EQ(topo.faults_injected(topo::fault_class::impairment_swap),
              plan.count(topo::fault_class::impairment_swap));
    const topo::path_impairment* st = topo.impair_dl_stage(0);
    ASSERT_NE(st, nullptr);
    // The stripping profile was live for some window of a continuously
    // sending flow, and stats survived the swap (cumulative conservation).
    EXPECT_GT(st->stats().stripped, 0u);
    EXPECT_EQ(st->stats().input + st->stats().duplicated,
              st->stats().delivered + st->stats().lost + st->held_packets());
    EXPECT_GT(topo.delivered_bytes(h), 1u << 20);
}

TEST(fault_chaos, quic_survives_rlf_on_preissued_cids)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "quic-prague";
    f.ue = 0;
    const int h = topo.add_flow(f);
    auto cfg = base_fault_cfg(spec, sim::from_ms(2000));
    cfg.rlf_per_ue_per_sec = 1.5;
    cfg.rlf_outage_mean = sim::from_ms(600);
    cfg.rlf_outage_min = sim::from_ms(400);
    const topo::fault_plan plan(cfg);
    ASSERT_GE(plan.count(topo::fault_class::rlf), 1u);
    topo.apply_faults(plan);
    topo.run(sim::from_sec(4));

    ASSERT_GE(topo.rlf_detected(), 1u);
    const transport::quic_sender* q = topo.quic_flow(h);
    ASSERT_NE(q, nullptr);
    // Re-establishment is a path switch: the connection rotated to its next
    // pre-issued CID instead of handshaking again, and kept delivering.
    EXPECT_GE(q->path_migrations(), 1u);
    EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(3700)), 0.5);
    expect_no_leaked_hook_state(topo);
}

// --- determinism ------------------------------------------------------------

namespace {

struct chaos_metrics {
    std::vector<double> owd;
    std::vector<double> rtt;
    std::vector<std::uint64_t> delivered;
    std::vector<double> recovery;
    std::uint64_t handovers = 0;
    std::uint64_t rlf = 0;
    std::uint64_t reest = 0;
    std::uint64_t ho_fail = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t events = 0;
    std::uint64_t injected = 0;

    bool operator==(const chaos_metrics&) const = default;
};

chaos_metrics run_chaos(int jobs, std::uint64_t seed)
{
    auto spec = fault_topo_spec(4, 2, scenario::cu_mode::l4span, jobs);
    spec.cell.channel = "mobile";
    spec.cell.seed = 11;
    spec.wired_bps = 100e6;
    spec.cell.impair_dl.force_stage = true;
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int u = 0; u < topo.num_ues(); ++u) {
        scenario::flow_spec f;
        f.cca = u % 2 ? "cubic" : "prague";
        f.ue = u;
        handles.push_back(topo.add_flow(f));
    }
    topo::mobility_config mob;
    mob.num_cells = 4;
    mob.ues_per_cell = 2;
    mob.handovers_per_ue_per_sec = 0.5;
    mob.start = sim::from_ms(400);
    mob.end = sim::from_ms(1800);
    mob.seed = 3;
    topo.apply(topo::mobility_model(mob).schedule());

    topo::fault_plan_config cfg;
    cfg.num_cells = 4;
    cfg.ues_per_cell = 2;
    cfg.start = sim::from_ms(500);
    cfg.end = sim::from_ms(1800);
    cfg.seed = seed;
    cfg.rlf_per_ue_per_sec = 0.8;
    cfg.ho_failure_per_ue_per_sec = 0.5;
    cfg.outages_per_cell_per_sec = 0.3;
    cfg.flaps_per_cell_per_sec = 0.3;
    cfg.swaps_per_cell_per_sec = 0.3;
    topo::impairment_spec stripping;
    stripping.strip_ect = 1.0;
    topo::impairment_spec clean;
    clean.force_stage = true;
    cfg.swap_profiles = {stripping, clean};
    topo.apply_faults(topo::fault_plan(cfg));
    topo.run(sim::from_ms(2500));

    chaos_metrics m;
    for (const int h : handles) {
        for (double v : topo.owd_ms(h).raw()) m.owd.push_back(v);
        for (double v : topo.rtt_ms(h).raw()) m.rtt.push_back(v);
        m.delivered.push_back(topo.delivered_bytes(h));
    }
    m.recovery = topo.recovery_ms();
    m.handovers = topo.handovers_completed();
    m.rlf = topo.rlf_detected();
    m.reest = topo.reestablishments();
    m.ho_fail = topo.ho_failures();
    m.rollbacks = topo.ho_rollbacks();
    m.events = topo.processed_events();
    for (std::size_t c = 0; c < topo::k_num_fault_classes; ++c)
        m.injected += topo.faults_injected(static_cast<topo::fault_class>(c));
    return m;
}

}  // namespace

TEST(fault_chaos, chaos_run_is_byte_identical_for_any_worker_count)
{
    const chaos_metrics serial = run_chaos(1, 77);
    const chaos_metrics parallel = run_chaos(4, 77);
    EXPECT_GT(serial.injected, 0u);
    EXPECT_FALSE(serial.owd.empty());
    EXPECT_EQ(serial, parallel);
}

// --- seeded chaos soak ------------------------------------------------------

TEST(fault_chaos, soak_invariants_hold_across_seeds)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto spec = fault_topo_spec(3, 2, scenario::cu_mode::l4span);
        spec.wired_bps = 100e6;
        spec.cell.impair_dl.force_stage = true;
        spec.cell.seed = 5 + seed;
        scenario::topology topo(spec);
        std::vector<int> handles;
        std::vector<std::uint64_t> generated_frames;
        for (int u = 0; u < topo.num_ues(); ++u) {
            scenario::flow_spec f;
            f.ue = u;
            switch (u % 3) {
            case 0: f.cca = "prague"; break;
            case 1: f.cca = "cubic"; break;
            case 2:
                f.cca = "quic-prague";
                f.fps = 30.0;  // interactive: exercises frame accounting
                break;
            }
            handles.push_back(topo.add_flow(f));
        }
        topo::fault_plan_config cfg;
        cfg.num_cells = 3;
        cfg.ues_per_cell = 2;
        cfg.start = sim::from_ms(500);
        cfg.end = sim::from_ms(1800);
        cfg.seed = seed;
        cfg.rlf_per_ue_per_sec = 1.0;
        cfg.ho_failure_per_ue_per_sec = 0.6;
        cfg.outages_per_cell_per_sec = 0.4;
        cfg.flaps_per_cell_per_sec = 0.4;
        cfg.swaps_per_cell_per_sec = 0.4;
        topo::impairment_spec stripping;
        stripping.strip_ect = 0.7;
        topo::impairment_spec clean;
        clean.force_stage = true;
        cfg.swap_profiles = {stripping, clean};
        const topo::fault_plan plan(cfg);
        ASSERT_FALSE(plan.schedule().empty());
        topo.apply_faults(plan);
        topo.run(sim::from_ms(2500));

        // Counter sanity: nothing fires that was not armed, detections only
        // from injected outages, recoveries only from lost service.
        for (std::size_t c = 0; c < topo::k_num_fault_classes; ++c) {
            const auto cls = static_cast<topo::fault_class>(c);
            EXPECT_LE(topo.faults_injected(cls), topo.faults_armed(cls));
            EXPECT_EQ(topo.faults_armed(cls), plan.count(cls));
        }
        EXPECT_LE(topo.rlf_detected(),
                  topo.faults_injected(topo::fault_class::rlf));
        EXPECT_LE(topo.reestablishments(), topo.rlf_detected() + topo.ho_failures());
        EXPECT_LE(topo.ho_rollbacks(), topo.ho_failures());
        for (const double ms : topo.recovery_ms()) EXPECT_GT(ms, 0.0);

        // Structural invariants after the dust settles.
        expect_consistent_attachment(topo);
        expect_no_leaked_hook_state(topo);

        // Packet conservation through every impairment stage.
        for (int c = 0; c < topo.num_cells(); ++c) {
            const topo::path_impairment* st = topo.impair_dl_stage(c);
            ASSERT_NE(st, nullptr);
            EXPECT_EQ(st->stats().input + st->stats().duplicated,
                      st->stats().delivered + st->stats().lost + st->held_packets());
        }

        // Frame accounting: an interactive source never completes more
        // frames than it sent.
        for (const int h : handles) {
            if (const media::frame_source* fs = topo.frame_stats(h)) {
                EXPECT_LE(fs->frames_completed(), fs->frames_sent());
                EXPECT_LE(fs->stalled_frames(), fs->frames_completed());
            }
            // Delivery is cumulative and survived the chaos.
            EXPECT_GT(topo.delivered_bytes(h), 0u);
        }
    }
}

// --- guard rails ------------------------------------------------------------

TEST(fault_chaos, apply_faults_validates_shape_and_lifecycle)
{
    auto spec = fault_topo_spec(2, 1, scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    auto cfg = base_fault_cfg(spec, sim::from_ms(2000));
    cfg.rlf_per_ue_per_sec = 1.0;

    auto wrong_shape = cfg;
    wrong_shape.num_cells = 3;
    EXPECT_THROW(topo.apply_faults(topo::fault_plan(wrong_shape)),
                 std::invalid_argument);

    auto swap_cfg = base_fault_cfg(spec, sim::from_ms(2000));
    swap_cfg.swaps_per_cell_per_sec = 1.0;
    swap_cfg.swap_profiles.emplace_back();
    swap_cfg.swap_profiles.back().bleach_ce = 0.5;
    // No impairment stage mounted -> nothing to swap.
    EXPECT_THROW(topo.apply_faults(topo::fault_plan(swap_cfg)),
                 std::invalid_argument);

    topo.apply_faults(topo::fault_plan(cfg));
    EXPECT_THROW(topo.apply_faults(topo::fault_plan(cfg)), std::logic_error);
    topo.run(sim::from_ms(1500));
    EXPECT_GE(topo.faults_armed(topo::fault_class::rlf), 1u);
}
