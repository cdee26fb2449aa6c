// Multi-cell topology layer: shard_group lockstep windows and mailbox
// determinism, mobility-model planning, X2/Xn handover state migration
// (in-flight RLC SDUs and L4Span marking state), and jobs-independence of
// the sharded run (byte-identical metric streams for --jobs 1 vs 4).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/l4span.h"
#include "ran/rlc.h"
#include "scenario/topology.h"
#include "sim/shard_group.h"
#include "topo/mobility_model.h"

using namespace l4span;

// --- sim::shard_group -------------------------------------------------------

TEST(shard_group, windows_advance_all_loops)
{
    sim::shard_group g(3, sim::from_ms(1), 1);
    int fired = 0;
    for (std::size_t s = 0; s < g.size(); ++s)
        g.loop(s).schedule_at(sim::from_ms(5), [&fired] { ++fired; });
    g.run_until(sim::from_ms(10));
    EXPECT_EQ(fired, 3);
    for (std::size_t s = 0; s < g.size(); ++s)
        EXPECT_EQ(g.loop(s).now(), sim::from_ms(10));
    EXPECT_EQ(g.processed(), 3u);
}

TEST(shard_group, cross_shard_post_delivers_at_requested_time)
{
    sim::shard_group g(2, sim::from_ms(1), 1);
    std::vector<sim::tick> arrivals;
    // Shard 0 pings shard 1 with one-quantum latency; shard 1 pongs back.
    g.loop(0).schedule_at(sim::from_ms(2), [&] {
        g.post(1, sim::from_ms(3), [&] {
            arrivals.push_back(g.loop(1).now());
            g.post(0, sim::from_ms(4), [&] { arrivals.push_back(g.loop(0).now()); });
        });
    });
    g.run_until(sim::from_ms(10));
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], sim::from_ms(3));
    EXPECT_EQ(arrivals[1], sim::from_ms(4));
}

TEST(shard_group, worker_count_does_not_change_event_interleaving)
{
    // A deterministic cross-shard traffic pattern; the per-shard sequence of
    // (time, value) observations must be identical for 1 and 4 workers.
    auto run = [](int jobs) {
        sim::shard_group g(4, sim::from_ms(1), jobs);
        std::vector<std::vector<std::pair<sim::tick, int>>> seen(4);
        for (std::size_t s = 0; s < 4; ++s) {
            for (int k = 1; k <= 50; ++k) {
                g.loop(s).schedule_at(sim::from_ms(k), [&g, &seen, s, k] {
                    seen[s].emplace_back(g.loop(s).now(), k);
                    const std::size_t peer = (s + static_cast<std::size_t>(k)) % 4;
                    if (peer != s)
                        g.post(peer, g.loop(s).now() + sim::from_ms(1),
                               [&g, &seen, peer, k] {
                                   seen[peer].emplace_back(g.loop(peer).now(), 1000 + k);
                               });
                });
            }
        }
        g.run_until(sim::from_ms(60));
        return seen;
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(serial[s], parallel[s]) << "shard " << s;
}

TEST(shard_group, late_message_is_rejected)
{
    sim::shard_group g(2, sim::from_ms(5), 1);
    // Posted with sub-quantum latency: lands in the past of the target's
    // completed window and must throw, not silently reorder.
    g.loop(0).schedule_at(sim::from_ms(7), [&] {
        g.post(1, sim::from_ms(7) + sim::from_us(100), [] {});
    });
    EXPECT_THROW(g.run_until(sim::from_ms(20)), std::logic_error);
}

TEST(shard_group, late_message_stops_parallel_run_without_rescheduling)
{
    sim::shard_group g(2, sim::from_ms(5), 2);
    std::atomic<int> good_fired{0};
    g.loop(0).schedule_at(sim::from_ms(7), [&] {
        // One valid message followed by one late one in the same lane: the
        // valid one must fire exactly once (no re-drain of a moved-from
        // callback), the late one must surface as the error after the
        // workers wind down their current window.
        g.post(1, sim::from_ms(13), [&] { good_fired.fetch_add(1); });
        g.post(1, sim::from_ms(7) + sim::from_us(100), [] {});
    });
    EXPECT_THROW(g.run_until(sim::from_ms(1000)), std::logic_error);
    EXPECT_LE(good_fired.load(), 1);
}

// --- topo::mobility_model ---------------------------------------------------

TEST(mobility_model, schedule_is_deterministic_and_well_formed)
{
    topo::mobility_config cfg;
    cfg.num_cells = 4;
    cfg.ues_per_cell = 8;
    cfg.handovers_per_ue_per_sec = 1.0;
    cfg.start = sim::from_ms(500);
    cfg.end = sim::from_sec(10);
    cfg.seed = 42;
    const topo::mobility_model a(cfg);
    const topo::mobility_model b(cfg);
    ASSERT_FALSE(a.schedule().empty());
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    sim::tick prev = 0;
    for (std::size_t i = 0; i < a.schedule().size(); ++i) {
        const auto& ev = a.schedule()[i];
        EXPECT_EQ(ev.when, b.schedule()[i].when);
        EXPECT_EQ(ev.ue, b.schedule()[i].ue);
        EXPECT_EQ(ev.target_cell, b.schedule()[i].target_cell);
        EXPECT_GE(ev.when, cfg.start);
        EXPECT_LT(ev.when, cfg.end);
        EXPECT_GE(ev.when, prev);  // sorted
        prev = ev.when;
        EXPECT_GE(ev.ue, 0);
        EXPECT_LT(ev.ue, cfg.num_cells * cfg.ues_per_cell);
        EXPECT_GE(ev.target_cell, 0);
        EXPECT_LT(ev.target_cell, cfg.num_cells);
    }
    // ~ rate * ues * horizon events, within loose bounds.
    const double expect = 1.0 * 32 * 9.5;
    EXPECT_GT(static_cast<double>(a.schedule().size()), expect * 0.5);
    EXPECT_LT(static_cast<double>(a.schedule().size()), expect * 1.5);
}

TEST(mobility_model, single_cell_or_zero_rate_means_no_handovers)
{
    topo::mobility_config cfg;
    cfg.num_cells = 1;
    cfg.end = sim::from_sec(10);
    EXPECT_TRUE(topo::mobility_model(cfg).schedule().empty());
    cfg.num_cells = 4;
    cfg.handovers_per_ue_per_sec = 0.0;
    EXPECT_TRUE(topo::mobility_model(cfg).schedule().empty());
}

// --- rlc handover context ---------------------------------------------------

namespace {

ran::pdcp_sdu mk_sdu(ran::pdcp_sn_t sn, std::uint32_t size)
{
    ran::pdcp_sdu s;
    s.sn = sn;
    s.size = size;
    // No transport header on these synthetic packets, so size_bytes() (IP
    // header + payload) matches `size` exactly — the export path recomputes
    // SDU sizes from the packet.
    s.pkt.payload_bytes = size > 20 ? size - 20 : 0;
    s.pkt.pkt_id = sn;
    return s;
}

}  // namespace

TEST(rlc_handover, export_carries_unacked_and_fresh_sdus_in_sn_order)
{
    ran::rlc_config cfg;
    cfg.mode = ran::rlc_mode::am;
    net::packet_pool pool;
    ran::rlc_tx src(1, 1, cfg, pool);
    for (ran::pdcp_sn_t sn = 1; sn <= 6; ++sn) src.enqueue(mk_sdu(sn, 1000), 0);
    // Fully transmit SDUs 1-2 (now awaiting delivery), confirm SDU 1,
    // partially transmit SDU 3, leave 4-6 fresh.
    (void)src.pull(2000, 1);
    src.on_delivery_confirmed(1, 2);
    (void)src.pull(500, 3);

    auto ctx = src.export_context();
    EXPECT_EQ(src.backlog_bytes(), 0u);
    EXPECT_EQ(ctx.delivered_watermark, 1u);
    ASSERT_EQ(ctx.forwarded.size(), 5u);  // 2 (unacked) + 3..6 minus delivered 1
    for (std::size_t i = 0; i < ctx.forwarded.size(); ++i)
        EXPECT_EQ(ctx.forwarded[i].sn, i + 2);  // SNs 2,3,4,5,6 in order

    net::packet_pool pool2;
    ran::rlc_tx dst(2, 1, cfg, pool2);
    dst.restore(std::move(ctx), sim::from_ms(50));
    EXPECT_EQ(dst.queued_sdus(), 5u);
    EXPECT_EQ(dst.backlog_bytes(), 5000u);  // partial send of SN 3 re-sent whole
    EXPECT_EQ(dst.highest_delivered(), 1u);
    // The target re-transmits from SN 2 up; watermarks stay monotone.
    const auto chunks = dst.pull(10000, sim::from_ms(51));
    ASSERT_FALSE(chunks.empty());
    EXPECT_EQ(chunks.front().sn, 2u);
    EXPECT_EQ(dst.highest_transmitted(), 6u);
}

TEST(rlc_handover, rx_context_preserves_inorder_point_and_skips)
{
    net::packet_pool pool;
    ran::rlc_rx src(ran::rlc_mode::am, pool);
    std::vector<ran::pdcp_sn_t> delivered;
    src.set_deliver_handler([&](net::packet p, sim::tick) {
        delivered.push_back(static_cast<ran::pdcp_sn_t>(p.pkt_id));
    });
    // Deliver SNs 1-3 in order, skip 4 (DU discard), leave a partial at 6.
    for (ran::pdcp_sn_t sn = 1; sn <= 3; ++sn) {
        ran::tb_chunk c;
        c.sn = sn;
        c.bytes = 100;
        c.sdu_total = 100;
        c.carries_last = true;
        c.pkt = pool.put(mk_sdu(sn, 100).pkt);
        src.on_chunk(c, 0);
    }
    src.skip(4, 1);
    ran::tb_chunk partial;
    partial.sn = 6;
    partial.bytes = 40;
    partial.sdu_total = 100;
    src.on_chunk(partial, 2);
    EXPECT_EQ(delivered.size(), 3u);

    auto ctx = src.export_context();
    EXPECT_EQ(ctx.next_expected, 5u);  // 1-3 delivered, 4 skipped
    EXPECT_TRUE(ctx.skipped.empty());  // 4 was consumed by the skip

    net::packet_pool pool2;
    ran::rlc_rx dst(ran::rlc_mode::am, pool2);
    std::vector<ran::pdcp_sn_t> delivered2;
    dst.set_deliver_handler([&](net::packet p, sim::tick) {
        delivered2.push_back(static_cast<ran::pdcp_sn_t>(p.pkt_id));
    });
    dst.restore(ctx);
    // The target re-sends 5 and 6 whole (they were unacknowledged).
    for (ran::pdcp_sn_t sn = 5; sn <= 6; ++sn) {
        ran::tb_chunk c;
        c.sn = sn;
        c.bytes = 100;
        c.sdu_total = 100;
        c.carries_last = true;
        c.pkt = pool2.put(mk_sdu(sn, 100).pkt);
        dst.on_chunk(c, 10);
    }
    EXPECT_EQ(delivered2, (std::vector<ran::pdcp_sn_t>{5, 6}));
    // A duplicate below the in-order point is ignored.
    ran::tb_chunk dup;
    dup.sn = 2;
    dup.bytes = 100;
    dup.sdu_total = 100;
    dup.carries_last = true;
    dup.pkt = pool2.put(mk_sdu(2, 100).pkt);
    dst.on_chunk(dup, 11);
    EXPECT_EQ(delivered2.size(), 2u);
}

// --- core::l4span state migration -------------------------------------------

TEST(l4span_handover, drb_and_flow_state_rekeyed_to_new_rnti)
{
    core::l4span_config cfg;
    core::l4span ent(cfg);
    net::packet pkt;
    pkt.ft.src_ip = 1;
    pkt.ft.dst_ip = 2;
    pkt.ft.src_port = 443;
    pkt.ft.dst_port = 5000;
    pkt.ecn_field = net::ecn::ect1;
    pkt.payload_bytes = 1400;
    for (ran::pdcp_sn_t sn = 1; sn <= 20; ++sn)
        ent.on_dl_packet(pkt, /*ue=*/3, /*drb=*/1, sn, sim::from_ms(sn));
    ran::dl_delivery_status st;
    st.ue = 3;
    st.drb = 1;
    st.highest_transmitted_sn = 10;
    st.has_transmitted = true;
    st.timestamp = sim::from_ms(21);
    ent.on_delivery_status(st, sim::from_ms(21));

    const auto before = ent.view(3, 1);
    EXPECT_GT(before.standing_bytes, 0u);
    EXPECT_TRUE(before.has_l4s);

    auto state = ent.detach_ue(3);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(ent.view(3, 1).standing_bytes, 0u);  // gone from the source

    core::l4span target(cfg);
    target.attach_ue(9, std::move(state));
    const auto after = target.view(9, 1);
    EXPECT_EQ(after.standing_bytes, before.standing_bytes);
    EXPECT_EQ(after.rate_hat_Bps, before.rate_hat_Bps);
    EXPECT_TRUE(after.has_l4s);

    // The migrated flow keeps feeding the same DRB state under the new RNTI.
    target.on_dl_packet(pkt, 9, 1, 21, sim::from_ms(30));
    EXPECT_GT(target.view(9, 1).standing_bytes, after.standing_bytes);
}

// --- scenario::topology: handover correctness -------------------------------

namespace {

scenario::topology_spec two_cell_spec(scenario::cu_mode cu, int jobs = 1)
{
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 1;
    spec.cell.cu = cu;
    spec.cell.channel = "static";
    spec.cell.seed = 5;
    spec.jobs = jobs;
    return spec;
}

}  // namespace

TEST(topology, handover_preserves_inflight_rlc_sdus)
{
    // A deep-queue CUBIC download (vanilla RAN, no signaling) guarantees a
    // large standing RLC queue at handover time. AM forwarding must carry
    // it: the flow keeps delivering with zero TCP-level retransmissions.
    auto spec = two_cell_spec(scenario::cu_mode::none);
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "cubic";
    f.ue = 0;
    f.max_cwnd = 1536 * 1024;
    const int h = topo.add_flow(f);
    topo.schedule_handover(sim::from_ms(1500), 0, 1);
    topo.run(sim::from_sec(3));

    EXPECT_EQ(topo.handovers_started(), 1u);
    EXPECT_EQ(topo.handovers_completed(), 1u);
    EXPECT_EQ(topo.serving_cell(0), 1);
    EXPECT_FALSE(topo.cell_at(0).gnb().has_ue(1));  // detached from the source
    EXPECT_TRUE(topo.cell_at(1).gnb().has_ue(topo.ue_rnti(0)));
    // Nothing the source admitted was lost end-to-end.
    EXPECT_EQ(topo.flow_retransmits(h), 0u);
    EXPECT_GT(topo.delivered_bytes(h), 2u << 20);
    // The target's RLC actually transmitted forwarded + new data.
    const auto& tgt_rlc = topo.cell_at(1).gnb().rlc(topo.ue_rnti(0), 1);
    EXPECT_GT(tgt_rlc.total_txed_bytes(), 0u);
    // Delivery kept flowing after the handover completed.
    EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(2500)), 1.0);
}

TEST(topology, handover_migrates_l4span_marking_state_without_ce_burst)
{
    auto spec = two_cell_spec(scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "prague";
    f.ue = 0;
    const int h = topo.add_flow(f);
    const sim::tick ho_at = sim::from_ms(2000);
    topo.schedule_handover(ho_at, 0, 1);
    topo.run(sim::from_sec(4));
    ASSERT_EQ(topo.handovers_completed(), 1u);

    core::l4span* src = topo.cell_at(0).l4span_layer();
    core::l4span* tgt = topo.cell_at(1).l4span_layer();
    ASSERT_NE(src, nullptr);
    ASSERT_NE(tgt, nullptr);
    // The signal stayed alive across the move: the source marked before the
    // handover, the target after (its estimator arrived pre-warmed).
    EXPECT_GT(src->marks(), 0u);
    EXPECT_GT(tgt->marks(), 0u);
    // No spurious CE burst: the target's marking rate stays within a small
    // factor of the source's steady-state rate (a fresh entity would first
    // under-mark, overshoot, then burst against the re-learned queue).
    const double src_rate = static_cast<double>(src->marks()) / sim::to_sec(ho_at);
    const double tgt_rate = static_cast<double>(tgt->marks()) /
                            sim::to_sec(sim::from_sec(4) - ho_at);
    EXPECT_LT(tgt_rate, 3.0 * src_rate + 5.0);
    // And the flow's delay stays in the L4Span operating regime after the
    // handover: Prague would sit at seconds of OWD without working marks.
    EXPECT_LT(topo.owd_ms(h).percentile(90), 200.0);
    EXPECT_GT(topo.goodput_mbps(h), 5.0);
}

TEST(topology, handover_to_serving_cell_is_skipped)
{
    auto spec = two_cell_spec(scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.ue = 0;
    topo.add_flow(f);
    topo.schedule_handover(sim::from_ms(800), 0, 0);  // already serving
    topo.run(sim::from_sec(1));
    EXPECT_EQ(topo.handovers_started(), 0u);
    EXPECT_EQ(topo.handovers_completed(), 0u);
    EXPECT_EQ(topo.serving_cell(0), 0);
}

TEST(topology, invalid_inputs_rejected)
{
    auto spec = two_cell_spec(scenario::cu_mode::l4span);
    scenario::topology topo(spec);
    scenario::flow_spec bad_ue;
    bad_ue.ue = 7;
    EXPECT_THROW(topo.add_flow(bad_ue), std::out_of_range);
    scenario::flow_spec bad_owd;
    bad_owd.ue = 0;
    bad_owd.wired_owd_ms = 0.1;  // below the sync quantum
    EXPECT_THROW(topo.add_flow(bad_owd), std::invalid_argument);
    EXPECT_THROW(topo.schedule_handover(0, 99, 1), std::out_of_range);
    EXPECT_THROW(topo.schedule_handover(0, 0, 9), std::out_of_range);
}

// --- scenario::topology: sharded determinism --------------------------------

namespace {

struct topo_metrics {
    std::vector<double> owd;
    std::vector<double> rtt;
    std::vector<std::uint64_t> delivered;
    std::uint64_t handovers = 0;
    std::uint64_t events = 0;

    bool operator==(const topo_metrics&) const = default;
};

topo_metrics run_sharded(int jobs)
{
    scenario::topology_spec spec;
    spec.num_cells = 4;
    spec.ues_per_cell = 2;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "mobile";
    spec.cell.seed = 11;
    spec.jobs = jobs;
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = ue % 2 ? "cubic" : "prague";
        f.ue = ue;
        handles.push_back(topo.add_flow(f));
    }
    topo::mobility_config mob;
    mob.num_cells = 4;
    mob.ues_per_cell = 2;
    mob.handovers_per_ue_per_sec = 1.0;
    mob.start = sim::from_ms(400);
    mob.end = sim::from_ms(1800);
    mob.seed = 3;
    topo.apply(topo::mobility_model(mob).schedule());
    topo.run(sim::from_sec(2));

    topo_metrics m;
    for (const int h : handles) {
        for (double v : topo.owd_ms(h).raw()) m.owd.push_back(v);
        for (double v : topo.rtt_ms(h).raw()) m.rtt.push_back(v);
        m.delivered.push_back(topo.delivered_bytes(h));
    }
    m.handovers = topo.handovers_completed();
    m.events = topo.processed_events();
    return m;
}

}  // namespace

TEST(topology, sharded_run_is_byte_identical_for_any_worker_count)
{
    const topo_metrics serial = run_sharded(1);
    const topo_metrics parallel = run_sharded(4);
    EXPECT_GT(serial.handovers, 0u);
    EXPECT_FALSE(serial.owd.empty());
    EXPECT_EQ(serial, parallel);
}
