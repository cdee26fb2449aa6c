// topo::path_impairment property suite: marking transforms and their
// normative order, conservation, determinism (incl. sharded jobs-1-vs-4
// topology equality), the all-off pass-through fast path, and actionable
// config diagnostics. Scenario-level wiring (cell_scenario / topology spec
// fields, cross-traffic preconditions) is covered here too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "media/frame_source.h"
#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "topo/cross_traffic.h"
#include "topo/path_impairment.h"

using namespace l4span;
using namespace l4span::topo;

namespace {

net::packet mk(net::ecn e, std::uint64_t id = 0, std::uint32_t payload = 1400)
{
    net::packet p;
    p.ft.proto = net::ip_proto::udp;
    p.ecn_field = e;
    p.payload_bytes = payload;
    p.pkt_id = id;
    return p;
}

struct rigged_stage {
    sim::event_loop loop;
    path_impairment stage;
    std::vector<net::packet> out;

    explicit rigged_stage(const impairment_spec& s, std::uint64_t seed = 7)
        : stage(loop, s, seed)
    {
        stage.set_deliver([this](net::packet p) { out.push_back(std::move(p)); });
    }
};

// Conservation invariant every stage must uphold at any instant.
void expect_conservation(const path_impairment& st)
{
    const auto& s = st.stats();
    EXPECT_EQ(s.input + s.duplicated,
              s.delivered + s.lost + st.held_packets());
}

}  // namespace

// ---------------------------------------------------------------- config --

TEST(impairment_spec, rejects_out_of_range_probabilities)
{
    impairment_spec s;
    s.bleach_ce = 1.5;
    try {
        s.validate("cell_spec.impair_dl");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cell_spec.impair_dl"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bleach_ce"), std::string::npos) << msg;
        EXPECT_NE(msg.find("[0, 1]"), std::string::npos) << msg;
    }
    impairment_spec neg;
    neg.loss = -0.1;
    EXPECT_THROW(neg.validate("x"), std::invalid_argument);
    impairment_spec nan_spec;
    nan_spec.reorder = std::nan("");
    EXPECT_THROW(nan_spec.validate("x"), std::invalid_argument);
}

TEST(impairment_spec, rejects_degenerate_burst_and_reorder_knobs)
{
    impairment_spec burst;
    burst.loss = 0.1;
    burst.loss_burst = 0.5;
    try {
        burst.validate("spec");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("loss_burst"), std::string::npos);
    }
    impairment_spec gap;
    gap.reorder_gap = 0;
    EXPECT_THROW(gap.validate("spec"), std::invalid_argument);
    impairment_spec hold;
    hold.reorder_hold_max = 0;
    EXPECT_THROW(hold.validate("spec"), std::invalid_argument);
}

TEST(impairment_spec, wants_stage_logic)
{
    impairment_spec off;
    EXPECT_FALSE(off.any_active());
    EXPECT_FALSE(off.wants_stage());
    off.force_stage = true;
    EXPECT_FALSE(off.any_active());
    EXPECT_TRUE(off.wants_stage());
    impairment_spec on;
    on.reorder = 0.01;
    EXPECT_TRUE(on.any_active());
    EXPECT_TRUE(on.wants_stage());
}

TEST(impairment_seed_fn, distinct_per_lane_and_direction)
{
    const auto a = impairment_seed(42, 0, false);
    const auto b = impairment_seed(42, 0, true);
    const auto c = impairment_seed(42, 1, false);
    const auto d = impairment_seed(43, 0, false);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(b, c);
    EXPECT_EQ(a, impairment_seed(42, 0, false)) << "must be a pure function";
    EXPECT_EQ(a & 1, 1u) << "seeds are forced odd";
}

TEST(impairment_seed_fn, pinned_outputs)
{
    // Exact values: every impairment stage, bottleneck AQM and cross-traffic
    // generator of a scenario is seeded through this function, so a change
    // to it moves every impaired result.
    EXPECT_EQ(impairment_seed(1, 0, false), 0xe4d971771b652c21ull);
    EXPECT_EQ(impairment_seed(1, 0, true), 0xbeeb8da1658eec67ull);
    EXPECT_EQ(impairment_seed(42, 1, false), 0x5fd30d2fcbef75e3ull);
    EXPECT_EQ(impairment_seed(211, 66, true), 0x5be9bcd06f7e88ffull);
    EXPECT_EQ(impairment_seed(~0ull, 3, false), 0x8bde40ab87623c49ull);
}

// ------------------------------------------------------------ transforms --

TEST(path_impairment, all_off_stage_is_identity)
{
    impairment_spec s;
    s.force_stage = true;
    rigged_stage rig(s);
    for (int i = 0; i < 100; ++i)
        rig.stage.send(mk(i % 2 ? net::ecn::ect1 : net::ecn::ce,
                          static_cast<std::uint64_t>(i)));
    // Pass-through is synchronous: everything delivered already, in order,
    // codepoints untouched, no events pending.
    ASSERT_EQ(rig.out.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rig.out[static_cast<std::size_t>(i)].pkt_id,
                  static_cast<std::uint64_t>(i));
        EXPECT_EQ(rig.out[static_cast<std::size_t>(i)].ecn_field,
                  i % 2 ? net::ecn::ect1 : net::ecn::ce);
    }
    EXPECT_EQ(rig.loop.pending(), 0u) << "all-off stage must schedule nothing";
    const auto& st = rig.stage.stats();
    EXPECT_EQ(st.input, 100u);
    EXPECT_EQ(st.delivered, 100u);
    EXPECT_EQ(st.remarked + st.bleached + st.stripped + st.lost + st.reordered +
                  st.duplicated,
              0u);
}

TEST(path_impairment, marking_transforms_at_certainty)
{
    impairment_spec remark;
    remark.remark_ect1 = 1.0;
    rigged_stage r1(remark);
    r1.stage.send(mk(net::ecn::ect1));
    r1.stage.send(mk(net::ecn::ect0));
    r1.stage.send(mk(net::ecn::ce));
    ASSERT_EQ(r1.out.size(), 3u);
    EXPECT_EQ(r1.out[0].ecn_field, net::ecn::ect0) << "ECT(1) re-marked";
    EXPECT_EQ(r1.out[1].ecn_field, net::ecn::ect0) << "ECT(0) untouched";
    EXPECT_EQ(r1.out[2].ecn_field, net::ecn::ce) << "CE untouched by re-mark";
    EXPECT_EQ(r1.stage.stats().remarked, 1u);

    impairment_spec bleach;
    bleach.bleach_ce = 1.0;
    rigged_stage r2(bleach);
    r2.stage.send(mk(net::ecn::ce));
    r2.stage.send(mk(net::ecn::ect1));
    ASSERT_EQ(r2.out.size(), 2u);
    EXPECT_EQ(r2.out[0].ecn_field, net::ecn::ect0) << "CE bleached to ECT(0)";
    EXPECT_EQ(r2.out[1].ecn_field, net::ecn::ect1) << "ECT(1) untouched";
    EXPECT_EQ(r2.stage.stats().bleached, 1u);

    impairment_spec strip;
    strip.strip_ect = 1.0;
    rigged_stage r3(strip);
    r3.stage.send(mk(net::ecn::ect0));
    r3.stage.send(mk(net::ecn::ect1));
    r3.stage.send(mk(net::ecn::ce));
    r3.stage.send(mk(net::ecn::not_ect));
    ASSERT_EQ(r3.out.size(), 4u);
    for (const auto& p : r3.out)
        EXPECT_EQ(p.ecn_field, net::ecn::not_ect)
            << "a field-zeroing middlebox clears ECT and CE alike";
    EXPECT_EQ(r3.stage.stats().stripped, 3u) << "Not-ECT input is not counted";
}

TEST(path_impairment, normative_in_stage_order_remark_bleach_strip)
{
    // remark fires before bleach: an ECT(1) packet becomes ECT(0) and is
    // then not CE, so bleach cannot touch it; a CE packet skips remark and
    // is bleached; with strip also on, everything ends Not-ECT.
    impairment_spec all;
    all.remark_ect1 = 1.0;
    all.bleach_ce = 1.0;
    rigged_stage rig(all);
    rig.stage.send(mk(net::ecn::ect1));
    rig.stage.send(mk(net::ecn::ce));
    ASSERT_EQ(rig.out.size(), 2u);
    EXPECT_EQ(rig.out[0].ecn_field, net::ecn::ect0);
    EXPECT_EQ(rig.out[1].ecn_field, net::ecn::ect0);
    EXPECT_EQ(rig.stage.stats().remarked, 1u);
    EXPECT_EQ(rig.stage.stats().bleached, 1u);

    all.strip_ect = 1.0;
    rigged_stage rig2(all);
    rig2.stage.send(mk(net::ecn::ect1));
    rig2.stage.send(mk(net::ecn::ce));
    rig2.stage.send(mk(net::ecn::ect0));
    for (const auto& p : rig2.out) EXPECT_EQ(p.ecn_field, net::ecn::not_ect);
}

TEST(path_impairment, remark_and_bleach_commute_across_stages)
{
    // Composition order-invariance where it should hold: remark∘bleach and
    // bleach∘remark both map {ECT(1), CE} -> ECT(0) and fix the rest.
    // (strip does NOT commute with bleach on CE input — bleach-then-strip
    // yields Not-ECT via ECT(0), strip-then-bleach zeroes CE directly — so
    // only the commuting pair is asserted.)
    const std::vector<net::ecn> inputs{net::ecn::not_ect, net::ecn::ect0,
                                       net::ecn::ect1, net::ecn::ce};
    for (net::ecn in : inputs) {
        impairment_spec remark;
        remark.remark_ect1 = 1.0;
        impairment_spec bleach;
        bleach.bleach_ce = 1.0;

        rigged_stage a_first(remark);
        rigged_stage a_second(bleach);
        a_first.stage.set_deliver(
            [&](net::packet p) { a_second.stage.send(std::move(p)); });
        a_first.stage.send(mk(in));

        rigged_stage b_first(bleach);
        rigged_stage b_second(remark);
        b_first.stage.set_deliver(
            [&](net::packet p) { b_second.stage.send(std::move(p)); });
        b_first.stage.send(mk(in));

        ASSERT_EQ(a_second.out.size(), 1u);
        ASSERT_EQ(b_second.out.size(), 1u);
        EXPECT_EQ(a_second.out[0].ecn_field, b_second.out[0].ecn_field)
            << "input codepoint " << static_cast<int>(in);
    }
}

// ------------------------------------------------------- loss / reorder --

TEST(path_impairment, certain_loss_drops_everything)
{
    impairment_spec s;
    s.loss = 1.0;
    rigged_stage rig(s);
    for (int i = 0; i < 50; ++i) rig.stage.send(mk(net::ecn::ect0));
    EXPECT_TRUE(rig.out.empty());
    EXPECT_EQ(rig.stage.stats().lost, 50u);
    expect_conservation(rig.stage);
}

TEST(path_impairment, bernoulli_loss_hits_stationary_rate)
{
    impairment_spec s;
    s.loss = 0.1;
    rigged_stage rig(s, 1234);
    const int n = 20000;
    for (int i = 0; i < n; ++i) rig.stage.send(mk(net::ecn::not_ect));
    const double rate = static_cast<double>(rig.stage.stats().lost) / n;
    EXPECT_NEAR(rate, 0.1, 0.01);
    expect_conservation(rig.stage);
}

TEST(path_impairment, gilbert_loss_keeps_stationary_rate_but_bursts)
{
    impairment_spec s;
    s.loss = 0.1;
    s.loss_burst = 8.0;
    rigged_stage rig(s, 99);
    const int n = 50000;
    int bursts = 0;
    bool in_burst = false;
    for (int i = 0; i < n; ++i) {
        const auto lost_before = rig.stage.stats().lost;
        rig.stage.send(mk(net::ecn::not_ect));
        const bool lost = rig.stage.stats().lost > lost_before;
        if (lost && !in_burst) ++bursts;
        in_burst = lost;
    }
    const auto& st = rig.stage.stats();
    const double rate = static_cast<double>(st.lost) / n;
    EXPECT_NEAR(rate, 0.1, 0.02) << "Gilbert keeps the stationary loss rate";
    const double mean_burst = static_cast<double>(st.lost) / bursts;
    EXPECT_GT(mean_burst, 4.0) << "losses must clump (mean burst ~8)";
    EXPECT_LT(mean_burst, 16.0);
    expect_conservation(rig.stage);
}

TEST(path_impairment, reorder_delays_behind_gap_packets)
{
    // Deterministic single-hold check: victim held, then released right
    // after `reorder_gap` passing packets, in their wake.
    impairment_spec s;
    s.reorder = 1.0;
    s.reorder_gap = 2;
    rigged_stage rig(s);
    rig.stage.send(mk(net::ecn::ect0, 100));  // held (reorder = 1 hits all)
    EXPECT_EQ(rig.out.size(), 0u);
    EXPECT_EQ(rig.stage.held_packets(), 1u);
    expect_conservation(rig.stage);
    // Later packets are held too under p=1; release them via the hold timer
    // and check order: held packets flush in hold order.
    rig.loop.run();
    ASSERT_EQ(rig.out.size(), 1u);
    EXPECT_EQ(rig.out[0].pkt_id, 100u);
    EXPECT_EQ(rig.stage.held_packets(), 0u);
    expect_conservation(rig.stage);
}

TEST(path_impairment, reorder_releases_after_passing_traffic)
{
    // Probabilistic stream: conservation, permutation (nothing vanishes or
    // is invented), and actual out-of-order delivery.
    impairment_spec s;
    s.reorder = 0.2;
    s.reorder_gap = 3;
    rigged_stage rig(s, 4242);
    const std::uint64_t n = 500;
    for (std::uint64_t i = 0; i < n; ++i) rig.stage.send(mk(net::ecn::ect1, i));
    rig.loop.run();  // flush hold timers for any tail packets
    const auto& st = rig.stage.stats();
    EXPECT_EQ(rig.stage.held_packets(), 0u);
    EXPECT_EQ(st.delivered, n);
    EXPECT_GT(st.reordered, 0u);
    expect_conservation(rig.stage);
    std::vector<bool> seen(n, false);
    bool out_of_order = false;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < rig.out.size(); ++i) {
        const std::uint64_t id = rig.out[i].pkt_id;
        ASSERT_LT(id, n);
        EXPECT_FALSE(seen[id]) << "duplicate delivery without duplicate knob";
        seen[id] = true;
        if (i > 0 && id < prev) out_of_order = true;
        prev = id;
    }
    for (std::uint64_t i = 0; i < n; ++i) EXPECT_TRUE(seen[i]) << i;
    EXPECT_TRUE(out_of_order) << "a reordering stage must actually reorder";
}

TEST(path_impairment, hold_timer_bounds_reorder_delay)
{
    // No passing traffic ever: the hold timeout must flush the packet so
    // tail packets cannot vanish into the buffer.
    impairment_spec s;
    s.reorder = 1.0;
    s.reorder_gap = 1000000;
    s.reorder_hold_max = sim::from_ms(5);
    rigged_stage rig(s);
    rig.stage.send(mk(net::ecn::ect0, 7));
    rig.loop.run_until(sim::from_ms(4));
    EXPECT_TRUE(rig.out.empty());
    rig.loop.run_until(sim::from_ms(6));
    ASSERT_EQ(rig.out.size(), 1u);
    EXPECT_EQ(rig.out[0].pkt_id, 7u);
    expect_conservation(rig.stage);
}

TEST(path_impairment, certain_duplication_doubles_delivery)
{
    impairment_spec s;
    s.duplicate = 1.0;
    rigged_stage rig(s);
    for (std::uint64_t i = 0; i < 10; ++i) rig.stage.send(mk(net::ecn::ect0, i));
    ASSERT_EQ(rig.out.size(), 20u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(rig.out[2 * i].pkt_id, i) << "copies are back-to-back";
        EXPECT_EQ(rig.out[2 * i + 1].pkt_id, i);
    }
    EXPECT_EQ(rig.stage.stats().duplicated, 10u);
    expect_conservation(rig.stage);
}

// ----------------------------------------------------------- determinism --

TEST(path_impairment, same_seed_same_event_stream)
{
    impairment_spec s;
    s.remark_ect1 = 0.3;
    s.bleach_ce = 0.4;
    s.loss = 0.05;
    s.loss_burst = 3.0;
    s.reorder = 0.1;
    s.duplicate = 0.02;

    auto run_once = [&](std::uint64_t seed) {
        rigged_stage rig(s, seed);
        for (std::uint64_t i = 0; i < 2000; ++i)
            rig.stage.send(mk(i % 3 == 0   ? net::ecn::ce
                              : i % 3 == 1 ? net::ecn::ect1
                                           : net::ecn::ect0,
                              i));
        rig.loop.run();
        std::vector<std::pair<std::uint64_t, net::ecn>> stream;
        for (const auto& p : rig.out) stream.emplace_back(p.pkt_id, p.ecn_field);
        return stream;
    };

    const auto a = run_once(77);
    const auto b = run_once(77);
    EXPECT_EQ(a, b) << "identical seed must give a byte-identical stream";
    const auto c = run_once(78);
    EXPECT_NE(a, c) << "different seed must actually change the draws";
}

// -------------------------------------------------------------- scenario --

TEST(impairment_scenario, forced_noop_stage_preserves_cell_scenario_results)
{
    auto run_cell = [](bool mount_noop) {
        scenario::cell_spec cell;
        cell.num_ues = 2;
        cell.channel = "static";
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = 5;
        cell.impair_dl.force_stage = mount_noop;
        cell.impair_ul.force_stage = mount_noop;
        scenario::cell_scenario s(cell);
        std::vector<int> hs;
        for (int u = 0; u < 2; ++u) {
            scenario::flow_spec f;
            f.cca = u == 0 ? "prague" : "cubic";
            f.ue = u;
            hs.push_back(s.add_flow(f));
        }
        s.run(sim::from_ms(800));
        std::vector<double> out;
        for (int h : hs) {
            out.push_back(static_cast<double>(s.delivered_bytes(h)));
            out.push_back(static_cast<double>(s.flow_retransmits(h)));
            for (double v : s.owd_ms(h).raw()) out.push_back(v);
        }
        return out;
    };
    EXPECT_EQ(run_cell(false), run_cell(true))
        << "an installed-but-all-off stage must be behavior-preserving";

    // The same property across a 2-cell topology: a frame-paced QUIC flow
    // and a bulk TCP flow, with the QUIC UE handed over out and back.
    auto run_topology = [](bool mount_noop) {
        scenario::topology_spec spec;
        spec.num_cells = 2;
        spec.ues_per_cell = 1;
        spec.cell.cu = scenario::cu_mode::l4span;
        spec.cell.channel = "mobile";
        spec.cell.seed = 61;
        spec.cell.impair_dl.force_stage = mount_noop;
        spec.cell.impair_ul.force_stage = mount_noop;
        spec.jobs = 1;
        scenario::topology topo(spec);
        scenario::flow_spec game;
        game.cca = "quic-prague";
        game.ue = 0;
        game.fps = 60.0;
        game.frame_bitrate_bps = 8e6;
        game.frame_deadline_ms = 50.0;
        scenario::flow_spec bulk;
        bulk.cca = "cubic";
        bulk.ue = 1;
        const std::vector<int> hs{topo.add_flow(game), topo.add_flow(bulk)};
        topo.schedule_handover(sim::from_ms(500), 0, 1);
        topo.schedule_handover(sim::from_ms(1000), 0, 0);
        topo.run(sim::from_ms(1500));
        EXPECT_EQ(topo.handovers_completed(), 2u);
        std::vector<double> out;
        for (int h : hs) {
            out.push_back(static_cast<double>(topo.delivered_bytes(h)));
            out.push_back(static_cast<double>(topo.flow_retransmits(h)));
            for (double v : topo.owd_ms(h).raw()) out.push_back(v);
        }
        const media::frame_source* fr = topo.frame_stats(hs[0]);
        out.push_back(static_cast<double>(fr->frames_completed()));
        for (double v : fr->frame_owd_ms().raw()) out.push_back(v);
        return out;
    };
    EXPECT_EQ(run_topology(false), run_topology(true))
        << "an all-off stage must not change a topology's per-flow results";
}

TEST(impairment_scenario, cell_scenario_validates_spec_fields)
{
    scenario::cell_spec bad_prob;
    bad_prob.impair_dl.loss = 2.0;
    EXPECT_THROW(scenario::cell_scenario{bad_prob}, std::invalid_argument);

    scenario::cell_spec bad_aqm;
    bad_aqm.bottleneck_bps = 50e6;
    bad_aqm.bottleneck_aqm = "red";
    try {
        scenario::cell_scenario s(bad_aqm);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("valid: fifo, dualpi2"),
                  std::string::npos)
            << e.what();
    }

    scenario::cell_spec cross_no_bn;
    cross_no_bn.cross_traffic.push_back({});
    cross_no_bn.cross_traffic.back().rate_bps = 10e6;
    try {
        scenario::cell_scenario s(cross_no_bn);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bottleneck_bps"), std::string::npos)
            << e.what();
    }

    scenario::topology_spec topo_cross;
    topo_cross.cell.cross_traffic.push_back({});
    topo_cross.cell.cross_traffic.back().rate_bps = 10e6;
    EXPECT_THROW(scenario::topology{topo_cross}, std::invalid_argument);

    // The other single-cell-only bottleneck knobs are rejected by name too,
    // instead of silently running without a bottleneck.
    const std::vector<std::pair<std::string, void (*)(scenario::cell_spec&)>>
        single_cell_only = {
            {"bottleneck_bps", [](scenario::cell_spec& c) { c.bottleneck_bps = 50e6; }},
            {"bottleneck_schedule",
             [](scenario::cell_spec& c) { c.bottleneck_schedule = {{0, 50e6}}; }},
            {"ul_bottleneck_bps",
             [](scenario::cell_spec& c) { c.ul_bottleneck_bps = 5e6; }},
            {"bottleneck_aqm",
             [](scenario::cell_spec& c) { c.bottleneck_aqm = "dualpi2"; }},
        };
    for (const auto& [field, set] : single_cell_only) {
        scenario::topology_spec topo_bn;
        set(topo_bn.cell);
        try {
            scenario::topology t(topo_bn);
            ADD_FAILURE() << field << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("topology_spec.cell." + field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(impairment_scenario, cross_traffic_validates_and_loads_bottleneck)
{
    cross_traffic_spec bad_model;
    bad_model.model = "pareto";
    bad_model.rate_bps = 1e6;
    try {
        bad_model.validate("spec");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("valid: poisson, cbr"),
                  std::string::npos)
            << e.what();
    }
    cross_traffic_spec no_rate;
    EXPECT_THROW(no_rate.validate("spec"), std::invalid_argument);

    // CBR generator: deterministic spacing at the configured load.
    sim::event_loop loop;
    cross_traffic_spec cbr;
    cbr.model = "cbr";
    cbr.rate_bps = 10e6;
    cbr.pkt_bytes = 1222;  // 1250-byte wire packets -> 1 ms spacing
    std::vector<sim::tick> arrivals;
    cross_traffic gen(loop, cbr, 1, 0, [&](net::packet p) {
        EXPECT_EQ(p.flow_id, cross_traffic::k_flow_id);
        arrivals.push_back(loop.now());
    });
    gen.start();
    loop.run_until(sim::from_ms(10));
    ASSERT_GE(arrivals.size(), 10u);
    EXPECT_EQ(arrivals[1] - arrivals[0], sim::from_ms(1));
    EXPECT_EQ(gen.packets_sent(), arrivals.size());
}

TEST(impairment_scenario, sharded_topology_byte_identical_jobs_1_vs_4)
{
    auto run_topo = [](int jobs) {
        scenario::topology_spec spec;
        spec.num_cells = 2;
        spec.ues_per_cell = 2;
        spec.cell.channel = "static";
        spec.cell.cu = scenario::cu_mode::l4span;
        spec.cell.seed = 17;
        spec.cell.impair_dl.bleach_ce = 0.5;
        spec.cell.impair_dl.loss = 0.02;
        spec.cell.impair_dl.reorder = 0.05;
        spec.cell.impair_ul.loss = 0.01;
        spec.jobs = jobs;
        scenario::topology topo(spec);
        std::vector<int> hs;
        for (int ue = 0; ue < 4; ++ue) {
            scenario::flow_spec f;
            f.cca = ue % 2 ? "cubic" : "prague";
            f.ue = ue;
            hs.push_back(topo.add_flow(f));
        }
        topo.run(sim::from_ms(700));
        std::vector<double> out;
        for (int h : hs) {
            out.push_back(static_cast<double>(topo.delivered_bytes(h)));
            out.push_back(static_cast<double>(topo.flow_retransmits(h)));
            for (double v : topo.owd_ms(h).raw()) out.push_back(v);
        }
        for (int c = 0; c < 2; ++c) {
            const path_impairment* dl = topo.impair_dl_stage(c);
            const path_impairment* ul = topo.impair_ul_stage(c);
            EXPECT_NE(dl, nullptr);
            EXPECT_NE(ul, nullptr);
            out.push_back(static_cast<double>(dl->stats().input));
            out.push_back(static_cast<double>(dl->stats().bleached));
            out.push_back(static_cast<double>(dl->stats().lost));
            out.push_back(static_cast<double>(dl->stats().reordered));
            out.push_back(static_cast<double>(ul->stats().lost));
        }
        return out;
    };
    const auto serial = run_topo(1);
    const auto parallel = run_topo(4);
    EXPECT_EQ(serial, parallel)
        << "impaired sharded runs must stay byte-identical for any --jobs";
    // The impairment actually fired (the equality is not vacuous).
    double sum = 0.0;
    for (double v : serial) sum += v;
    EXPECT_GT(sum, 0.0);
}

// ------------------------------------------------- per-flow ECMP policies --

namespace {

// A five-tuple whose hash lands on policy index `want` (mod `n`): vary the
// source port until the stage's own hash function agrees.
net::five_tuple tuple_for_policy(std::size_t want, std::size_t n)
{
    net::five_tuple ft;
    ft.proto = net::ip_proto::udp;
    ft.src_ip = 0x0a000001;
    ft.dst_ip = 0x0a000002;
    ft.dst_port = 443;
    for (std::uint16_t port = 1000;; ++port) {
        ft.src_port = port;
        if (net::five_tuple_hash{}(ft) % n == want) return ft;
    }
}

}  // namespace

TEST(flow_policies, packets_route_to_their_hashed_policy)
{
    impairment_spec s;
    // Base knobs would drop everything — with policies installed they must
    // be ignored entirely (the hash picks the governing spec).
    s.loss = 1.0;
    impairment_spec dirty;
    dirty.strip_ect = 1.0;
    impairment_spec clean;
    s.flow_policies = {dirty, clean};
    rigged_stage rig(s);

    net::packet on_dirty = mk(net::ecn::ect1);
    on_dirty.ft = tuple_for_policy(0, 2);
    net::packet on_clean = mk(net::ecn::ect1);
    on_clean.ft = tuple_for_policy(1, 2);
    for (int i = 0; i < 20; ++i) {
        rig.stage.send(on_dirty);
        rig.stage.send(on_clean);
    }
    ASSERT_EQ(rig.out.size(), 40u);  // base loss=1.0 ignored
    EXPECT_EQ(rig.stage.stats().stripped, 20u);
    std::size_t clean_ect1 = 0, dirty_not_ect = 0;
    for (const auto& p : rig.out) {
        if (p.ft.src_port == on_clean.ft.src_port && p.ecn_field == net::ecn::ect1)
            ++clean_ect1;
        if (p.ft.src_port == on_dirty.ft.src_port && p.ecn_field == net::ecn::not_ect)
            ++dirty_not_ect;
    }
    // One flow rides the stripping transit, its sibling stays clean — the
    // per-flow ECMP picture the measurement papers report.
    EXPECT_EQ(clean_ect1, 20u);
    EXPECT_EQ(dirty_not_ect, 20u);
    expect_conservation(rig.stage);
}

TEST(flow_policies, per_policy_gilbert_state_and_certain_loss)
{
    impairment_spec s;
    impairment_spec lossy;
    lossy.loss = 1.0;
    impairment_spec clean;
    s.flow_policies = {lossy, clean};
    rigged_stage rig(s);
    net::packet victim = mk(net::ecn::ect0);
    victim.ft = tuple_for_policy(0, 2);
    net::packet bystander = mk(net::ecn::ect0);
    bystander.ft = tuple_for_policy(1, 2);
    for (int i = 0; i < 50; ++i) {
        rig.stage.send(victim);
        rig.stage.send(bystander);
    }
    EXPECT_EQ(rig.stage.stats().lost, 50u);
    EXPECT_EQ(rig.out.size(), 50u);  // every bystander packet survived
    expect_conservation(rig.stage);
}

TEST(flow_policies, nesting_is_rejected_with_an_indexed_message)
{
    impairment_spec s;
    s.flow_policies.emplace_back();
    s.flow_policies[0].flow_policies.emplace_back();
    try {
        s.validate("cell_spec.impair_dl");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("flow_policies[0]"), std::string::npos) << msg;
        EXPECT_NE(msg.find("nest"), std::string::npos) << msg;
    }
    // Per-policy knobs go through the same range validation.
    impairment_spec bad;
    bad.flow_policies.emplace_back();
    bad.flow_policies[0].loss = 1.5;
    EXPECT_THROW(bad.validate("x"), std::invalid_argument);
}

// ------------------------------------------------------- mid-run set_spec --

TEST(set_spec, swaps_profile_midstream_with_cumulative_stats)
{
    impairment_spec clean;
    clean.force_stage = true;
    rigged_stage rig(clean);
    for (int i = 0; i < 10; ++i) rig.stage.send(mk(net::ecn::ect1));
    EXPECT_EQ(rig.stage.stats().stripped, 0u);

    impairment_spec stripping;
    stripping.strip_ect = 1.0;
    rig.stage.set_spec(stripping);
    EXPECT_EQ(rig.stage.spec().strip_ect, 1.0);
    for (int i = 0; i < 10; ++i) rig.stage.send(mk(net::ecn::ect1));

    // Stats carry across the reroute: one stage, one cumulative history.
    EXPECT_EQ(rig.stage.stats().input, 20u);
    EXPECT_EQ(rig.stage.stats().stripped, 10u);
    EXPECT_EQ(rig.out.size(), 20u);
    expect_conservation(rig.stage);

    impairment_spec bad;
    bad.loss = 2.0;
    EXPECT_THROW(rig.stage.set_spec(bad), std::invalid_argument);
}

TEST(set_spec, held_packets_release_under_their_original_counters)
{
    impairment_spec reordering;
    reordering.reorder = 1.0;
    reordering.reorder_gap = 1;
    rigged_stage rig(reordering);
    rig.stage.send(mk(net::ecn::ect0, /*id=*/1));
    ASSERT_EQ(rig.stage.held_packets(), 1u);

    impairment_spec clean;
    clean.force_stage = true;
    rig.stage.set_spec(clean);
    EXPECT_EQ(rig.stage.held_packets(), 1u);  // the hold buffer survives
    // The next passing packet (no longer reordered under the new spec)
    // advances the held packet's gap counter and releases it behind itself.
    rig.stage.send(mk(net::ecn::ect0, /*id=*/2));
    ASSERT_EQ(rig.out.size(), 2u);
    EXPECT_EQ(rig.out[0].pkt_id, 2u);
    EXPECT_EQ(rig.out[1].pkt_id, 1u);
    EXPECT_EQ(rig.stage.held_packets(), 0u);
    expect_conservation(rig.stage);
}

TEST(impairment_scenario, stripped_tcp_with_drop_fallback_keeps_owd_bounded)
{
    // Regression for the ECN-impairment bench's tcp-prague strip rows: a
    // fully stripped flow under short-circuiting got no congestion signal
    // at all (the short-circuit branch ignored drop_non_ecn), so it sat in
    // a ~1.2 s deep RLC queue. With the drop fallback honored, the queue
    // stays in the normal operating regime.
    auto run_strip = [](bool drop_non_ecn) {
        scenario::cell_spec cell;
        cell.channel = "static";
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = 5;
        cell.l4s.drop_non_ecn = drop_non_ecn;
        cell.impair_dl.strip_ect = 1.0;
        scenario::cell_scenario s(cell);
        scenario::flow_spec f;
        f.cca = "cubic";
        f.ue = 0;
        const int h = s.add_flow(f);
        s.run(sim::from_sec(3));
        return std::make_pair(s.owd_ms(h).percentile(90),
                              s.l4span_layer()->drops());
    };
    const auto [owd_with_drop, drops] = run_strip(true);
    EXPECT_GT(drops, 0u);
    EXPECT_LT(owd_with_drop, 300.0)
        << "drop feedback must keep the stripped flow out of the deep queue";
    const auto [owd_without, no_drops] = run_strip(false);
    EXPECT_EQ(no_drops, 0u);
    EXPECT_GT(owd_without, owd_with_drop)
        << "without any feedback the stripped flow queues strictly deeper";
}

// --------------------------------------------- uplink return-path loading --

TEST(impairment_scenario, uplink_cross_traffic_requires_ul_bottleneck)
{
    scenario::cell_spec cell;
    topo::cross_traffic_spec ct;
    ct.rate_bps = 1e6;
    ct.uplink = true;
    cell.cross_traffic.push_back(ct);
    try {
        scenario::cell_scenario s(cell);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("ul_bottleneck_bps"),
                  std::string::npos)
            << e.what();
    }
    scenario::cell_spec neg;
    neg.ul_bottleneck_bps = -1.0;
    EXPECT_THROW(scenario::cell_scenario{neg}, std::invalid_argument);
}

TEST(impairment_scenario, uplink_cross_traffic_congests_the_ack_path)
{
    // A loaded return hop delays the download's ACK clock: same radio, same
    // flow, but RTT inflates once background senders squeeze the uplink
    // bottleneck. The downlink data path is untouched in both runs.
    auto run_dl = [](double cross_bps) {
        scenario::cell_spec cell;
        cell.channel = "static";
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = 5;
        cell.ul_bottleneck_bps = 3e6;  // ACK stream alone fits comfortably
        if (cross_bps > 0.0) {
            topo::cross_traffic_spec ct;
            ct.rate_bps = cross_bps;
            ct.pkt_bytes = 1200;
            ct.uplink = true;
            cell.cross_traffic.push_back(ct);
        }
        scenario::cell_scenario s(cell);
        scenario::flow_spec f;
        f.cca = "cubic";
        f.ue = 0;
        const int h = s.add_flow(f);
        s.run(sim::from_sec(3));
        return std::make_tuple(s.rtt_ms(h).percentile(50), s.delivered_bytes(h),
                               s.cross_traffic_packets());
    };
    const auto [rtt_clean, bytes_clean, pkts_clean] = run_dl(0.0);
    const auto [rtt_loaded, bytes_loaded, pkts_loaded] = run_dl(2.5e6);
    EXPECT_EQ(pkts_clean, 0u);
    EXPECT_GT(pkts_loaded, 100u);
    EXPECT_GT(rtt_loaded, rtt_clean + 1.0)
        << "a ~2.5 Mb/s background load on a 3 Mb/s return hop must visibly "
           "delay the ACK stream";
    // The flow survives the loaded feedback path.
    EXPECT_GT(bytes_loaded, 1u << 20);
    EXPECT_GT(bytes_clean, 1u << 20);
}

TEST(impairment_scenario, ul_bottleneck_composes_with_uplink_impairment)
{
    // Return path order: RAN -> bottleneck -> impairment stage -> sender.
    // An ACK-path bleacher after the bottleneck still sees every packet.
    scenario::cell_spec cell;
    cell.channel = "static";
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 5;
    cell.ul_bottleneck_bps = 10e6;
    cell.impair_ul.force_stage = true;
    scenario::cell_scenario s(cell);
    scenario::flow_spec f;
    f.cca = "prague";
    f.ue = 0;
    const int h = s.add_flow(f);
    s.run(sim::from_sec(1));
    ASSERT_NE(s.ul_bottleneck(), nullptr);
    ASSERT_NE(s.impair_ul(), nullptr);
    EXPECT_GT(s.impair_ul()->stats().input, 0u);
    EXPECT_GT(s.delivered_bytes(h), 100u << 10);
}
