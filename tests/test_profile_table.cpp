// Packet profile table (§4.3.2): watermark semantics, standing queue,
// discard reconciliation, retraction, pruning.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/profile_table.h"

using namespace l4span;
using namespace l4span::core;

TEST(profile_table, standing_bytes_track_ingress_and_tx)
{
    profile_table t;
    t.on_ingress(1, 1000, sim::from_ms(0));
    t.on_ingress(2, 500, sim::from_ms(1));
    t.on_ingress(3, 700, sim::from_ms(2));
    EXPECT_EQ(t.standing_bytes(), 2200u);
    EXPECT_EQ(t.standing_packets(), 3u);

    int txed = 0;
    t.on_transmitted(2, sim::from_ms(5), [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; });
    EXPECT_EQ(txed, 2);
    EXPECT_EQ(t.standing_bytes(), 700u);
    EXPECT_EQ(t.standing_packets(), 1u);
}

TEST(profile_table, watermark_is_idempotent)
{
    profile_table t;
    t.on_ingress(1, 100, 0);
    t.on_ingress(2, 100, 0);
    int txed = 0;
    auto count = [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; };
    t.on_transmitted(1, sim::from_ms(1), count);
    t.on_transmitted(1, sim::from_ms(2), count);  // repeated watermark
    EXPECT_EQ(txed, 1);
    t.on_transmitted(2, sim::from_ms(3), count);
    EXPECT_EQ(txed, 2);
}

TEST(profile_table, timestamps_recorded)
{
    profile_table t;
    t.on_ingress(7, 1000, sim::from_ms(3));
    t.on_transmitted(7, sim::from_ms(9), {});
    t.on_delivered(7, sim::from_ms(15));
    const std::optional<profile_entry> e = t.find(7);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->t_ingress, sim::from_ms(3));
    EXPECT_EQ(e->t_transmitted, sim::from_ms(9));
    EXPECT_EQ(e->t_delivered, sim::from_ms(15));
}

TEST(profile_table, head_age_is_oldest_standing)
{
    profile_table t;
    t.on_ingress(1, 100, sim::from_ms(0));
    t.on_ingress(2, 100, sim::from_ms(5));
    EXPECT_EQ(t.head_age(sim::from_ms(20)), sim::from_ms(20));
    t.on_transmitted(1, sim::from_ms(21), {});
    EXPECT_EQ(t.head_age(sim::from_ms(25)), sim::from_ms(20));  // sn2, age 25-5
    t.on_transmitted(2, sim::from_ms(26), {});
    EXPECT_EQ(t.head_age(sim::from_ms(30)), 0);
}

TEST(profile_table, discard_before_tx_removes_standing)
{
    profile_table t;
    t.on_ingress(1, 1000, 0);
    t.on_ingress(2, 500, 0);
    t.on_discard(1);
    EXPECT_EQ(t.standing_bytes(), 500u);
    // Watermark over a discarded SN does not re-count it.
    int txed = 0;
    t.on_transmitted(2, sim::from_ms(1), [&](ran::pdcp_sn_t sn, std::uint32_t) {
        EXPECT_EQ(sn, 2u);
        ++txed;
    });
    EXPECT_EQ(txed, 1);
    EXPECT_EQ(t.standing_bytes(), 0u);
}

TEST(profile_table, discard_is_idempotent_and_bounds_checked)
{
    profile_table t;
    t.on_ingress(5, 100, 0);
    t.on_discard(5);
    t.on_discard(5);
    t.on_discard(99);
    t.on_discard(1);
    EXPECT_EQ(t.standing_bytes(), 0u);
}

TEST(profile_table, retract_last_takes_back_the_newest_untransmitted_entry)
{
    profile_table t;
    t.on_ingress(1, 100, 0);
    t.on_ingress(2, 300, 0);
    t.retract_last();
    EXPECT_EQ(t.standing_bytes(), 100u);
    t.on_ingress(2, 50, 0);  // the SN is handed to the next packet
    EXPECT_EQ(t.standing_bytes(), 150u);
    ASSERT_TRUE(t.find(2).has_value());
    EXPECT_EQ(t.find(2)->bytes, 50u);
    t.on_transmitted(2, sim::from_ms(1), nullptr);
    EXPECT_EQ(t.standing_bytes(), 0u);
    EXPECT_THROW(t.retract_last(), std::logic_error);  // already transmitted
}

TEST(profile_table, prune_drops_settled_old_entries)
{
    profile_table t;
    for (ran::pdcp_sn_t sn = 1; sn <= 10; ++sn) t.on_ingress(sn, 100, 0);
    t.on_transmitted(5, sim::from_ms(1), {});
    t.on_delivered(5, sim::from_ms(2));
    t.prune(sim::from_sec(3), sim::from_sec(1));
    EXPECT_EQ(t.size(), 5u) << "only transmitted+old entries leave";
    EXPECT_EQ(t.standing_bytes(), 500u);
    // Untransmitted entries must survive pruning regardless of age.
    EXPECT_TRUE(t.find(6).has_value());
    EXPECT_FALSE(t.find(5).has_value());
}

TEST(profile_table, prune_then_continue_operating)
{
    profile_table t;
    for (ran::pdcp_sn_t sn = 1; sn <= 5; ++sn) t.on_ingress(sn, 100, 0);
    t.on_transmitted(5, sim::from_ms(1), {});
    t.prune(sim::from_sec(2), sim::from_sec(1));
    EXPECT_EQ(t.size(), 0u);
    t.on_ingress(6, 300, sim::from_sec(2));
    EXPECT_EQ(t.standing_bytes(), 300u);
    int txed = 0;
    t.on_transmitted(6, sim::from_sec(2) + 1, [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; });
    EXPECT_EQ(txed, 1);
}
