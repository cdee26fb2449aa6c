// topo::fault_plan: deterministic chaos scheduling. The plan is pure
// planning (like topo::mobility_model), so these tests pin down the
// properties scenario::topology relies on: bit-identical schedules for one
// config, per-class stream independence (enabling one fault class never
// shifts another's draws), self-non-overlap of the per-cell streams, and
// actionable validation errors.
#include <gtest/gtest.h>

#include <string>

#include "topo/fault_plan.h"

using namespace l4span;

namespace {

topo::fault_plan_config chaos_cfg()
{
    topo::fault_plan_config cfg;
    cfg.num_cells = 3;
    cfg.ues_per_cell = 2;
    cfg.start = sim::from_ms(500);
    cfg.end = sim::from_sec(20);
    cfg.seed = 99;
    cfg.rlf_per_ue_per_sec = 0.5;
    cfg.ho_failure_per_ue_per_sec = 0.3;
    cfg.outages_per_cell_per_sec = 0.2;
    cfg.flaps_per_cell_per_sec = 0.2;
    cfg.swaps_per_cell_per_sec = 0.2;
    cfg.swap_profiles.emplace_back();           // clean path
    cfg.swap_profiles.back().force_stage = true;
    cfg.swap_profiles.emplace_back();           // bleaching transit
    cfg.swap_profiles.back().bleach_ce = 0.5;
    return cfg;
}

bool same_event(const topo::fault_event& a, const topo::fault_event& b)
{
    return a.when == b.when && a.cls == b.cls && a.ue == b.ue &&
           a.cell == b.cell && a.duration == b.duration && a.mode == b.mode &&
           a.uplink == b.uplink;
}

}  // namespace

TEST(fault_plan, schedule_is_deterministic_and_sorted)
{
    const auto cfg = chaos_cfg();
    const topo::fault_plan a(cfg);
    const topo::fault_plan b(cfg);
    ASSERT_FALSE(a.schedule().empty());
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    sim::tick prev = 0;
    for (std::size_t i = 0; i < a.schedule().size(); ++i) {
        const auto& ev = a.schedule()[i];
        EXPECT_TRUE(same_event(ev, b.schedule()[i])) << "event " << i;
        EXPECT_GE(ev.when, cfg.start);
        EXPECT_LT(ev.when, cfg.end);
        EXPECT_GE(ev.when, prev);  // sorted
        prev = ev.when;
    }
    // Every enabled class actually produced events at these rates/horizon.
    EXPECT_GT(a.count(topo::fault_class::rlf), 0u);
    EXPECT_GT(a.count(topo::fault_class::handover_failure), 0u);
    EXPECT_GT(a.count(topo::fault_class::cell_outage), 0u);
    EXPECT_GT(a.count(topo::fault_class::link_flap), 0u);
    EXPECT_GT(a.count(topo::fault_class::impairment_swap), 0u);
    EXPECT_EQ(a.count(topo::fault_class::rlf) +
                  a.count(topo::fault_class::handover_failure) +
                  a.count(topo::fault_class::cell_outage) +
                  a.count(topo::fault_class::link_flap) +
                  a.count(topo::fault_class::impairment_swap),
              a.schedule().size());
}

TEST(fault_plan, event_fields_match_their_class)
{
    const topo::fault_plan plan(chaos_cfg());
    for (const auto& ev : plan.schedule()) {
        switch (ev.cls) {
        case topo::fault_class::rlf:
            EXPECT_GE(ev.ue, 0);
            EXPECT_LT(ev.ue, 6);
            EXPECT_GE(ev.duration, sim::from_ms(50));  // rlf_outage_min
            break;
        case topo::fault_class::handover_failure:
            EXPECT_GE(ev.ue, 0);
            EXPECT_LT(ev.ue, 6);
            break;
        case topo::fault_class::cell_outage:
            EXPECT_GE(ev.cell, 0);
            EXPECT_LT(ev.cell, 3);
            EXPECT_GE(ev.duration, sim::from_ms(200));  // cell_outage_min
            break;
        case topo::fault_class::link_flap:
            EXPECT_GE(ev.cell, 0);
            EXPECT_LT(ev.cell, 3);
            EXPECT_GE(ev.duration, sim::from_ms(100));  // flap_min
            break;
        case topo::fault_class::impairment_swap:
            EXPECT_GE(ev.cell, 0);
            EXPECT_LT(ev.cell, 3);
            EXPECT_FALSE(ev.uplink);
            break;
        }
    }
}

TEST(fault_plan, seed_derivation_is_pinned)
{
    // Exact values: every fault plan draws its per-(class, lane) streams
    // from these seeds, so a change here moves every chaos schedule.
    EXPECT_EQ(topo::fault_seed(9, topo::fault_class::rlf, 0), 0xced1ff39db554c45ull);
    EXPECT_EQ(topo::fault_seed(9, topo::fault_class::cell_outage, 2), 0x08b584bb1575051bull);
    EXPECT_EQ(topo::fault_seed(1, topo::fault_class::link_flap, 5), 0x70616f2f48dce01dull);
    EXPECT_EQ(topo::fault_seed(~0ull, topo::fault_class::rlf, 7), 0xcbfc611b876ad435ull);
}

TEST(fault_plan, classes_draw_independent_streams)
{
    // Disabling every other class must not move the RLF stream: each
    // (class, lane) pair forks its own splitmix64 seed, so plans stay
    // stable as classes are toggled.
    auto cfg = chaos_cfg();
    topo::fault_plan_config only_rlf = cfg;
    only_rlf.ho_failure_per_ue_per_sec = 0.0;
    only_rlf.outages_per_cell_per_sec = 0.0;
    only_rlf.flaps_per_cell_per_sec = 0.0;
    only_rlf.swaps_per_cell_per_sec = 0.0;
    only_rlf.swap_profiles.clear();

    const topo::fault_plan full(cfg);
    const topo::fault_plan solo(only_rlf);
    ASSERT_EQ(solo.schedule().size(), solo.count(topo::fault_class::rlf));
    std::vector<topo::fault_event> full_rlf;
    for (const auto& ev : full.schedule())
        if (ev.cls == topo::fault_class::rlf) full_rlf.push_back(ev);
    ASSERT_EQ(full_rlf.size(), solo.schedule().size());
    for (std::size_t i = 0; i < full_rlf.size(); ++i)
        EXPECT_TRUE(same_event(full_rlf[i], solo.schedule()[i])) << "event " << i;
}

TEST(fault_plan, per_ue_lanes_are_independent_streams)
{
    // Distinct lanes (UEs) of one class draw distinct sequences — a shared
    // stream would fire every UE's faults in lockstep.
    auto cfg = chaos_cfg();
    const topo::fault_plan plan(cfg);
    std::vector<sim::tick> ue0, ue1;
    for (const auto& ev : plan.schedule()) {
        if (ev.cls != topo::fault_class::rlf) continue;
        if (ev.ue == 0) ue0.push_back(ev.when);
        if (ev.ue == 1) ue1.push_back(ev.when);
    }
    ASSERT_FALSE(ue0.empty());
    ASSERT_FALSE(ue1.empty());
    EXPECT_NE(ue0, ue1);
}

TEST(fault_plan, per_cell_outage_and_flap_streams_do_not_self_overlap)
{
    auto cfg = chaos_cfg();
    cfg.outages_per_cell_per_sec = 2.0;  // stress the spacing logic
    cfg.flaps_per_cell_per_sec = 2.0;
    const topo::fault_plan plan(cfg);
    for (const topo::fault_class cls :
         {topo::fault_class::cell_outage, topo::fault_class::link_flap}) {
        for (int c = 0; c < cfg.num_cells; ++c) {
            sim::tick recovered_at = 0;
            for (const auto& ev : plan.schedule()) {
                if (ev.cls != cls || ev.cell != c) continue;
                EXPECT_GE(ev.when, recovered_at)
                    << topo::fault_class_name(cls) << " cell " << c;
                recovered_at = ev.when + ev.duration;
            }
        }
    }
}

TEST(fault_plan, swap_events_cycle_through_the_profiles)
{
    auto cfg = chaos_cfg();
    cfg.rlf_per_ue_per_sec = 0.0;
    cfg.ho_failure_per_ue_per_sec = 0.0;
    cfg.outages_per_cell_per_sec = 0.0;
    cfg.flaps_per_cell_per_sec = 0.0;
    cfg.swaps_per_cell_per_sec = 1.0;
    cfg.swap_uplink = true;
    const topo::fault_plan plan(cfg);
    // Per cell, swaps alternate clean / bleaching, starting at profile 0.
    for (int c = 0; c < cfg.num_cells; ++c) {
        std::size_t i = 0;
        for (const auto& ev : plan.schedule()) {
            if (ev.cell != c) continue;
            EXPECT_TRUE(ev.uplink);
            const auto& expect = cfg.swap_profiles[i % cfg.swap_profiles.size()];
            EXPECT_EQ(ev.impair.bleach_ce, expect.bleach_ce) << "cell " << c;
            EXPECT_EQ(ev.impair.force_stage, expect.force_stage);
            ++i;
        }
        EXPECT_GT(i, 0u);
    }
}

TEST(fault_plan, empty_when_no_class_enabled)
{
    topo::fault_plan_config cfg;
    cfg.num_cells = 2;
    cfg.ues_per_cell = 1;
    EXPECT_FALSE(cfg.any_enabled());
    EXPECT_TRUE(topo::fault_plan(cfg).schedule().empty());
}

TEST(fault_plan, invalid_configs_rejected_with_actionable_messages)
{
    auto expect_throw = [](topo::fault_plan_config cfg, const std::string& needle) {
        try {
            topo::fault_plan plan(std::move(cfg));
            FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << "actual message: " << e.what();
        }
    };
    auto cfg = chaos_cfg();
    cfg.rlf_per_ue_per_sec = -1.0;
    expect_throw(cfg, "rates");

    cfg = chaos_cfg();
    cfg.end = cfg.start;  // horizon empty while rates are set
    expect_throw(cfg, "horizon");

    cfg = chaos_cfg();
    cfg.swap_profiles.clear();
    expect_throw(cfg, "swap_profiles");

    cfg = chaos_cfg();
    cfg.ho_failure_reestablish_fraction = 1.5;
    expect_throw(cfg, "ho_failure_reestablish_fraction");

    cfg = chaos_cfg();
    cfg.num_cells = 1;
    expect_throw(cfg, "2 cells");

    cfg = chaos_cfg();
    cfg.swap_profiles[1].bleach_ce = 2.0;  // nested spec validation runs too
    expect_throw(cfg, "swap_profiles[1]");
}
