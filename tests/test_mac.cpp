// PRB allocation policies.
#include <gtest/gtest.h>

#include <numeric>

#include "ran/mac.h"

using namespace l4span::ran;

namespace {

sched_input in(std::uint32_t idx, std::uint64_t backlog, double bpp = 500.0)
{
    sched_input s;
    s.ue_index = idx;
    s.backlog_bytes = backlog;
    s.bytes_per_prb = bpp;
    return s;
}

}  // namespace

TEST(round_robin, splits_evenly)
{
    prb_allocator a(sched_policy::round_robin);
    for (int i = 0; i < 3; ++i) a.add_ue();
    auto g = a.allocate({in(0, 1 << 20), in(1, 1 << 20), in(2, 1 << 20)}, 51);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0), 51);
    for (int v : g) EXPECT_GE(v, 51 / 3);
}

TEST(round_robin, remainder_rotates)
{
    prb_allocator a(sched_policy::round_robin);
    for (int i = 0; i < 2; ++i) a.add_ue();
    // 51 / 2 = 25 r 1: the extra PRB should alternate between the UEs.
    auto g1 = a.allocate({in(0, 1 << 20), in(1, 1 << 20)}, 51);
    auto g2 = a.allocate({in(0, 1 << 20), in(1, 1 << 20)}, 51);
    EXPECT_NE(g1[0], g2[0]) << "remainder must rotate";
    EXPECT_EQ(g1[0] + g1[1], 51);
    EXPECT_EQ(g2[0] + g2[1], 51);
}

TEST(round_robin, single_ue_gets_everything)
{
    prb_allocator a(sched_policy::round_robin);
    a.add_ue();
    auto g = a.allocate({in(0, 1 << 20)}, 51);
    EXPECT_EQ(g[0], 51);
}

TEST(round_robin, empty_input)
{
    prb_allocator a(sched_policy::round_robin);
    EXPECT_TRUE(a.allocate({}, 51).empty());
}

TEST(proportional_fair, favors_good_channel_when_averages_equal)
{
    prb_allocator a(sched_policy::proportional_fair);
    for (int i = 0; i < 2; ++i) a.add_ue();
    auto g = a.allocate({in(0, 1 << 20, 1000.0), in(1, 1 << 20, 250.0)}, 48);
    EXPECT_GT(g[0], g[1]) << "higher instantaneous rate wins at equal averages";
}

TEST(proportional_fair, throughput_history_rebalances)
{
    prb_allocator a(sched_policy::proportional_fair);
    for (int i = 0; i < 2; ++i) a.add_ue();
    // UE0 has been served heavily; UE1 starved. Equal channels now.
    for (int i = 0; i < 50; ++i) {
        a.update_average(0, 20000.0);
        a.update_average(1, 0.0);
    }
    auto g = a.allocate({in(0, 1 << 20, 500.0), in(1, 1 << 20, 500.0)}, 48);
    EXPECT_GT(g[1], g[0]) << "PF must compensate the starved UE";
}

TEST(proportional_fair, does_not_overgrant_small_backlog)
{
    prb_allocator a(sched_policy::proportional_fair);
    for (int i = 0; i < 2; ++i) a.add_ue();
    // UE0 only needs ~1 PRB worth of bytes; UE1 is greedy.
    auto g = a.allocate({in(0, 400, 500.0), in(1, 1 << 20, 500.0)}, 48);
    EXPECT_LE(g[0], 8);
    EXPECT_GE(g[1], 40);
}

TEST(proportional_fair, all_prbs_spent_when_demand_exists)
{
    prb_allocator a(sched_policy::proportional_fair);
    for (int i = 0; i < 4; ++i) a.add_ue();
    auto g = a.allocate(
        {in(0, 1 << 20, 300.0), in(1, 1 << 20, 600.0), in(2, 1 << 20, 900.0),
         in(3, 1 << 20, 450.0)},
        48);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0), 48);
}
