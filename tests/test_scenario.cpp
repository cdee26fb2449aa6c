// Scenario harness and wired topology: determinism, routing, multi-DRB
// separation, RLC-mode coverage, bottleneck schedules, and a parameterized
// sweep asserting the headline property for every congestion controller.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

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

TEST(scenario, l4s_drb_class_follows_the_stamped_codepoint)
{
    // With separate DRBs per class, a flow's QFI maps to DRB 1 (L4S) exactly
    // when its sender stamps ECT(1), and to DRB 2 (classic) otherwise — for
    // every controller make_cc accepts, its QUIC form, and both media
    // senders. One UE per flow, so the CU sees each flow under its own RNTI.
    const std::vector<std::string> ccas = {
        "reno",      "cubic",      "prague",      "bbr",      "bbr2",
        "quic-reno", "quic-cubic", "quic-prague", "quic-bbr", "quic-bbr2",
        "scream",    "udp-prague"};
    cell_spec c;
    c.num_ues = static_cast<int>(ccas.size());
    c.cu = cu_mode::none;
    c.separate_drbs_per_class = true;
    c.seed = 5;
    cell_scenario s(c);
    for (std::size_t u = 0; u < ccas.size(); ++u) {
        flow_spec f;
        f.cca = ccas[u];
        f.ue = static_cast<int>(u);
        s.add_flow(f);
    }
    // A pass-through CU hook sees every admitted downlink packet together
    // with the DRB its QFI maps to.
    struct probe : ran::cu_hook {
        std::map<ran::rnti_t, std::set<ran::drb_id_t>> drbs;
        std::set<ran::rnti_t> ect1;
        bool on_dl_packet(net::packet& p, ran::rnti_t ue, ran::drb_id_t drb,
                          ran::pdcp_sn_t, sim::tick) override
        {
            drbs[ue].insert(drb);
            if (p.ecn_field == net::ecn::ect1) ect1.insert(ue);
            return true;
        }
        bool on_ul_packet(net::packet&, ran::rnti_t, sim::tick) override { return true; }
        void on_delivery_status(const ran::dl_delivery_status&, sim::tick) override {}
    } cu;
    s.gnb().set_cu_hook(&cu);
    s.run(sim::from_ms(500));

    std::vector<std::string> l4s;
    for (std::size_t u = 0; u < ccas.size(); ++u) {
        const ran::rnti_t rnti = s.cell().rnti_of(u);
        const bool stamps_ect1 = cu.ect1.count(rnti) > 0;
        ASSERT_EQ(cu.drbs[rnti].size(), 1u) << ccas[u] << ": one QFI, one DRB";
        EXPECT_EQ(int{*cu.drbs[rnti].begin()}, stamps_ect1 ? 1 : 2) << ccas[u];
        if (stamps_ect1) l4s.push_back(ccas[u]);
    }
    EXPECT_EQ(l4s, (std::vector<std::string>{"prague", "bbr2", "quic-prague", "quic-bbr2",
                                             "scream", "udp-prague"}));
}

// ---- every endpoint kind: pinned per-flow results ----

namespace {

// Every flow_table accessor of one flow, reduced to exact values.
struct pinned_flow {
    std::size_t owd_n;
    double owd_sum;
    std::size_t rtt_n;
    double rtt_sum;
    double goodput_mbps;
    std::int64_t series_bytes;
    std::size_t series_bins;
    double fct_ms;
    std::uint64_t delivered;
    std::uint64_t cwnd;
    std::uint64_t retransmits;
    std::uint64_t ce_packets;
    bool ecn_fallback;
    bool tcp;
    bool quic;
    bool frames;
    std::uint64_t frames_completed;
    std::uint64_t frames_stalled;

    bool operator==(const pinned_flow&) const = default;
};

pinned_flow pin(const scenario::flow_table& t, int h)
{
    const media::frame_source* fs = t.frame_stats(h);
    return {t.owd_ms(h).count(),
            t.owd_ms(h).sum(),
            t.rtt_ms(h).count(),
            t.rtt_ms(h).sum(),
            t.goodput_mbps(h),
            t.goodput_series(h).total_bytes(),
            t.goodput_series(h).bins(),
            t.fct_ms(h),
            t.delivered_bytes(h),
            t.flow_cwnd(h),
            t.flow_retransmits(h),
            t.flow_ce_packets(h),
            t.flow_ecn_fallback(h),
            t.tcp_flow(h) != nullptr,
            t.quic_flow(h) != nullptr,
            fs != nullptr,
            fs ? fs->frames_completed() : 0,
            fs ? fs->stalled_frames() : 0};
}

// The row as a C++ initializer (hex floats are exact), so a deliberate
// change of behaviour can be re-pinned from the failure message.
std::string initializer(const pinned_flow& p)
{
    const auto b = [](bool v) { return v ? "true" : "false"; };
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{%zu, %a, %zu, %a, %a, %lld, %zu, %a, %llu, %llu, %llu, %llu, "
                  "%s, %s, %s, %s, %llu, %llu}",
                  p.owd_n, p.owd_sum, p.rtt_n, p.rtt_sum, p.goodput_mbps,
                  static_cast<long long>(p.series_bytes), p.series_bins, p.fct_ms,
                  static_cast<unsigned long long>(p.delivered),
                  static_cast<unsigned long long>(p.cwnd),
                  static_cast<unsigned long long>(p.retransmits),
                  static_cast<unsigned long long>(p.ce_packets), b(p.ecn_fallback),
                  b(p.tcp), b(p.quic), b(p.frames),
                  static_cast<unsigned long long>(p.frames_completed),
                  static_cast<unsigned long long>(p.frames_stalled));
    return buf;
}

}  // namespace

TEST(scenario, every_endpoint_kind_keeps_its_per_flow_results)
{
    // One flow of each kind the harness builds, with staggered starts and
    // mid-run stops so the start/stop scheduling is exercised too. Captured
    // from the simulator as it stood; a changed value is changed behaviour.
    struct row {
        const char* what;
        flow_spec spec;
        pinned_flow want;
    };
    const auto spec = [](const char* cca, int ue, double start_ms, double stop_ms) {
        flow_spec f;
        f.cca = cca;
        f.ue = ue;
        f.start_time = sim::from_ms(start_ms);
        f.stop_time = stop_ms < 0 ? -1 : sim::from_ms(stop_ms);
        return f;
    };
    std::vector<row> rows = {
        {"tcp bulk", spec("prague", 0, 0, -1),
         {1009, 0x1.9e543bbe0157ep+14, 997, 0x1.a8da7d4ef459p+15, 0x1.e22adf187080fp+1,
          1412600, 30, -0x1p+0, 1412600, 19457, 7, 0, false, true, false, false, 0, 0}},
        {"tcp short", spec("cubic", 1, 100, -1),
         {215, 0x1.9d9335d89480dp+12, 213, 0x1.8bd988d002e25p+13, 0x1.ba96a3fc0acaep+1,
          300000, 8, 0x1.5b0c9db65ecc4p+9, 300000, 25687, 2, 0, false, true, false, false,
          0, 0}},
        {"tcp frames", spec("prague", 2, 50, 2500),
         {444, 0x1.4dad2c6b484d7p+13, 439, 0x1.5cf29ccc89b0dp+14, 0x1.f3e559d60db9cp+0,
          598020, 26, -0x1p+0, 598020, 20100, 5, 0, false, true, false, true, 69, 31}},
        {"quic bulk", spec("quic-prague", 3, 0, -1),
         {781, 0x1.2b73b297396d4p+14, 775, 0x1.1cd81134ce3dfp+15, 0x1.7536bff74309bp+1,
          1093400, 30, -0x1p+0, 1093400, 16575, 17, 28, false, false, true, false, 0, 0}},
        {"quic frames", spec("quic-prague", 4, 50, 2500),
         {478, 0x1.85dd75ed8d367p+13, 478, 0x1.6bd7430ad46f7p+14, 0x1.09632a3d2c296p+1,
          634960, 26, -0x1p+0, 634960, 26176, 3, 2, false, false, true, true, 74, 12}},
        {"scream", spec("scream", 5, 0, 2500),
         {1148, 0x1.beb0ac77574f6p+14, 98, 0x1.1f82d1e215336p+12, 0x1.1a21ea35935fcp+2,
          1377600, 26, -0x1p+0, 1377600, 0, 0, 0, false, false, false, false, 0, 0}},
        {"udp-prague", spec("udp-prague", 6, 200, -1),
         {3117, 0x1.1b4b815d76682p+20, 91, 0x1.e1fcfeb2d0a26p+14, 0x1.55fabbd4b30dcp+3,
          3740400, 30, -0x1p+0, 3740400, 0, 0, 0, false, false, false, false, 0, 0}},
    };
    rows[1].spec.flow_bytes = 300000;
    for (const std::size_t i : {2u, 4u}) {
        rows[i].spec.fps = 30.0;
        rows[i].spec.frame_bitrate_bps = 2e6;
    }

    cell_spec c;
    c.num_ues = static_cast<int>(rows.size());
    c.channel = "vehicular";
    c.cu = cu_mode::l4span;
    c.seed = 7;
    c.impair_dl.loss = 0.01;  // so every transport retransmits
    cell_scenario s(c);
    std::vector<int> handles;
    for (const row& r : rows) handles.push_back(s.add_flow(r.spec));
    s.run(sim::from_sec(3));

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const pinned_flow got = pin(s, handles[i]);
        EXPECT_TRUE(got == rows[i].want) << rows[i].what << ": " << initializer(got);
    }
}

TEST(scenario, quic_flow_keeps_its_results_across_a_topology_handover)
{
    scenario::topology_spec ts;
    ts.num_cells = 2;
    ts.ues_per_cell = 1;
    ts.cell.cu = cu_mode::l4span;
    ts.cell.channel = "pedestrian";
    ts.cell.seed = 11;
    ts.cell.impair_dl.strip_ect = 1.0;  // so the sender falls back from ECN
    scenario::topology t(ts);
    flow_spec f;
    f.cca = "quic-prague";
    f.ue = 0;
    const int h = t.add_flow(f);
    t.schedule_handover(sim::from_ms(1000), 0, 1);
    t.schedule_handover(sim::from_ms(2000), 0, 0);
    t.run(sim::from_sec(3));

    ASSERT_EQ(t.handovers_completed(), 2u);
    ASSERT_NE(t.quic_flow(h), nullptr);
    EXPECT_EQ(t.quic_flow(h)->path_migrations(), 2u);
    const pinned_flow want = {10015, 0x1.3c1a91cab25b6p+22, 9942, 0x1.45b21b92dcf3ep+22,
                               0x1.2b1c4e5bf53afp+5, 14020808, 31, -0x1p+0, 14020808,
                               13932608, 0, 0, true, false, true, false, 0, 0};
    const pinned_flow got = pin(t, h);
    EXPECT_TRUE(got == want) << initializer(got);
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
