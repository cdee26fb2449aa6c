// Scenario harness and wired topology: determinism, routing, multi-DRB
// separation, RLC-mode coverage, bottleneck schedules, and a parameterized
// sweep asserting the headline property for every congestion controller.
#include <gtest/gtest.h>

#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "topo/wired_link.h"

using namespace l4span;
using scenario::cell_scenario;
using scenario::cell_spec;
using scenario::cu_mode;
using scenario::flow_spec;

TEST(wired_link, serializes_at_line_rate)
{
    sim::event_loop loop;
    topo::wired_link link(loop, 12e6, sim::from_ms(5));  // 1500 B = 1 ms
    std::vector<sim::tick> arrivals;
    link.set_deliver([&](net::packet) { arrivals.push_back(loop.now()); });
    for (int i = 0; i < 3; ++i) {
        net::packet p;
        p.ft.proto = net::ip_proto::udp;
        p.payload_bytes = 1472;  // 1500 B on the wire
        link.send(std::move(p));
    }
    loop.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], sim::from_ms(6));  // 1 ms serialize + 5 ms prop
    EXPECT_EQ(arrivals[1], sim::from_ms(7));
    EXPECT_EQ(arrivals[2], sim::from_ms(8));
}

TEST(wired_link, rate_change_takes_effect)
{
    sim::event_loop loop;
    topo::wired_link link(loop, 12e6, 0);
    int delivered = 0;
    link.set_deliver([&](net::packet) { ++delivered; });
    loop.schedule_at(sim::from_ms(10), [&] { link.set_rate(1.2e6); });
    for (int i = 0; i < 20; ++i) {
        net::packet p;
        p.ft.proto = net::ip_proto::udp;
        p.payload_bytes = 1472;
        link.send(std::move(p));
    }
    loop.run_until(sim::from_ms(10));
    const int fast_phase = delivered;   // ~10 packets at 1 ms each
    loop.run_until(sim::from_ms(30));
    const int slow_phase = delivered - fast_phase;  // 10 ms each now
    EXPECT_GT(fast_phase, 5);
    EXPECT_LT(slow_phase, 5);
}

TEST(scenario, identical_seeds_are_bit_reproducible)
{
    auto run_once = [] {
        cell_spec c;
        c.num_ues = 2;
        c.channel = "vehicular";
        c.cu = cu_mode::l4span;
        c.seed = 99;
        cell_scenario s(c);
        flow_spec f;
        f.cca = "prague";
        const int h0 = s.add_flow(f);
        f.cca = "cubic";
        f.ue = 1;
        const int h1 = s.add_flow(f);
        s.run(sim::from_sec(3));
        return std::make_pair(s.delivered_bytes(h0), s.delivered_bytes(h1));
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(scenario, different_seeds_differ)
{
    auto run_with = [](std::uint64_t seed) {
        cell_spec c;
        c.channel = "vehicular";
        c.seed = seed;
        cell_scenario s(c);
        flow_spec f;
        f.cca = "prague";
        const int h = s.add_flow(f);
        s.run(sim::from_sec(3));
        return s.delivered_bytes(h);
    };
    EXPECT_NE(run_with(1), run_with(2));
}

TEST(scenario, um_mode_works_end_to_end)
{
    cell_spec c;
    c.rlc_mode = ran::rlc_mode::um;
    c.cu = cu_mode::l4span;
    c.seed = 5;
    cell_scenario s(c);
    flow_spec f;
    f.cca = "prague";
    const int h = s.add_flow(f);
    s.run(sim::from_sec(5));
    // UM has no delivery feedback; L4Span must still control delay using
    // transmit timestamps only (§4.3.1).
    EXPECT_GT(s.goodput_mbps(h), 15.0);
    EXPECT_LT(s.owd_ms(h).median(), 150.0);
}

TEST(scenario, separate_drbs_isolate_classes)
{
    cell_spec c;
    c.separate_drbs_per_class = true;
    c.cu = cu_mode::l4span;
    c.seed = 5;
    cell_scenario s(c);
    flow_spec fp;
    fp.cca = "prague";
    const int hp = s.add_flow(fp);
    flow_spec fc;
    fc.cca = "cubic";
    const int hc = s.add_flow(fc);
    s.run(sim::from_sec(6));
    // Both flows make progress and split the cell roughly evenly.
    EXPECT_GT(s.goodput_mbps(hp), 8.0);
    EXPECT_GT(s.goodput_mbps(hc), 8.0);
    const auto v1 = s.l4span_layer()->view(1, 1);
    const auto v2 = s.l4span_layer()->view(1, 2);
    EXPECT_TRUE(v1.has_l4s);
    EXPECT_FALSE(v1.has_classic);
    EXPECT_TRUE(v2.has_classic);
}

TEST(scenario, bottleneck_schedule_caps_throughput)
{
    cell_spec c;
    c.cu = cu_mode::l4span;
    c.seed = 5;
    c.bottleneck_bps = 100e6;
    c.bottleneck_schedule = {{sim::from_sec(3), 5e6}};
    cell_scenario s(c);
    flow_spec f;
    f.cca = "prague";
    const int h = s.add_flow(f);
    s.run(sim::from_sec(8));
    // After 3 s the wired middlebox (5 Mbit/s) is the bottleneck.
    double late = 0;
    for (int k = 0; k < 20; ++k)
        late += s.goodput_series(h).mbps_at(sim::from_sec(6) + k * sim::from_ms(100)) / 20.0;
    EXPECT_LT(late, 7.0);
    EXPECT_GT(late, 2.0);
}

TEST(scenario, flow_start_stop_respected)
{
    cell_spec c;
    c.seed = 5;
    cell_scenario s(c);
    flow_spec f;
    f.cca = "prague";
    f.start_time = sim::from_sec(2);
    f.stop_time = sim::from_sec(4);
    const int h = s.add_flow(f);
    s.run(sim::from_sec(8));
    EXPECT_NEAR(s.goodput_series(h).mbps_at(sim::from_sec(1)), 0.0, 0.1);
    EXPECT_GT(s.goodput_series(h).mbps_at(sim::from_sec(3)), 5.0);
    EXPECT_NEAR(s.goodput_series(h).mbps_at(sim::from_sec(7)), 0.0, 0.5);
}

TEST(scenario, unknown_inputs_rejected)
{
    cell_spec c;
    c.channel = "warp-drive";
    EXPECT_THROW(cell_scenario{c}, std::invalid_argument);
    cell_spec ok;
    cell_scenario s(ok);
    flow_spec f;
    f.ue = 5;  // only one UE exists
    EXPECT_THROW(s.add_flow(f), std::out_of_range);
}

TEST(scenario, result_accessors_bounds_check_flow_and_ue_handles)
{
    // Both harnesses share flow_table: a valid handle works, and every bad
    // one throws instead of silently reading a stale or foreign flow slot.
    const auto check_flow_handles = [](const scenario::flow_table& t, int h) {
        EXPECT_NO_THROW(t.owd_ms(h));
        for (const int bad : {-1, h + 1, 42}) {
            EXPECT_THROW(t.owd_ms(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.rtt_ms(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.goodput_mbps(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.goodput_series(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.fct_ms(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.delivered_bytes(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.flow_cwnd(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.tcp_flow(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.quic_flow(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.frame_stats(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.flow_retransmits(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.flow_ce_packets(bad), std::out_of_range) << bad;
            EXPECT_THROW(t.flow_ecn_fallback(bad), std::out_of_range) << bad;
        }
    };

    cell_scenario s(cell_spec{});
    const int h = s.add_flow(flow_spec{});
    s.run(sim::from_ms(200));
    check_flow_handles(s, h);
    EXPECT_NO_THROW(s.rlc_queue_sdus(0));
    for (const int bad : {-1, 1, 9}) {
        EXPECT_THROW(s.rlc_queue_sdus(bad), std::out_of_range) << bad;
        EXPECT_THROW(s.rlc_queue_series(bad), std::out_of_range) << bad;
    }

    scenario::topology_spec ts;
    ts.num_cells = 1;
    scenario::topology t(ts);
    const int th = t.add_flow(flow_spec{});
    t.run(sim::from_ms(200));
    check_flow_handles(t, th);
    EXPECT_NO_THROW(t.ue_rnti(0));
    for (const int bad : {-1, 1, 9}) {
        EXPECT_THROW(t.home_cell(bad), std::out_of_range) << bad;
        EXPECT_THROW(t.serving_cell(bad), std::out_of_range) << bad;
        EXPECT_THROW(t.ue_rnti(bad), std::out_of_range) << bad;
    }
}

// ---- parameterized sweep: the headline property holds for every CCA ----

class cca_sweep : public ::testing::TestWithParam<const char*> {};

TEST_P(cca_sweep, l4span_never_hurts_delay_and_keeps_goodput)
{
    const std::string cca = GetParam();
    double owd_on = 0, owd_off = 0, tput_on = 0, tput_off = 0;
    for (const bool on : {false, true}) {
        cell_spec c;
        c.cu = on ? cu_mode::l4span : cu_mode::none;
        c.seed = 123;
        cell_scenario s(c);
        flow_spec f;
        f.cca = cca;
        const int h = s.add_flow(f);
        s.run(sim::from_sec(8));
        (on ? owd_on : owd_off) = s.owd_ms(h).median();
        (on ? tput_on : tput_off) = s.goodput_mbps(h);
    }
    EXPECT_LE(owd_on, owd_off * 1.15) << "L4Span must not worsen median delay";
    EXPECT_GT(tput_on, tput_off * 0.6) << "and must keep most of the goodput";
}

INSTANTIATE_TEST_SUITE_P(all_ccas, cca_sweep,
                         ::testing::Values("prague", "cubic", "reno", "bbr", "bbr2",
                                           "scream", "udp-prague"));

class channel_sweep : public ::testing::TestWithParam<const char*> {};

TEST_P(channel_sweep, prague_stays_low_latency_in_every_channel)
{
    cell_spec c;
    c.channel = GetParam();
    c.cu = cu_mode::l4span;
    c.seed = 321;
    cell_scenario s(c);
    flow_spec f;
    f.cca = "prague";
    const int h = s.add_flow(f);
    s.run(sim::from_sec(8));
    EXPECT_LT(s.owd_ms(h).median(), 120.0);
    EXPECT_GT(s.goodput_mbps(h), 10.0);
}

INSTANTIATE_TEST_SUITE_P(all_channels, channel_sweep,
                         ::testing::Values("static", "pedestrian", "vehicular", "mobile"));
