// gNB end-to-end: DL path through PDCP/RLC/MAC/HARQ to the UE, F1-U
// feedback, uplink return path.
#include <gtest/gtest.h>

#include "ran/gnb.h"

using namespace l4span;
using namespace l4span::ran;

namespace {

net::packet data_packet(std::uint32_t payload, std::uint64_t id = 1)
{
    net::packet p;
    p.ft.proto = net::ip_proto::udp;
    p.payload_bytes = payload;
    p.pkt_id = id;
    p.sent_time = 0;
    return p;
}

struct test_rig {
    sim::event_loop loop;
    std::unique_ptr<gnb> g;
    std::vector<net::packet> delivered;
    std::vector<net::packet> uplinked;
    std::vector<dl_delivery_status> statuses;

    struct hook : cu_hook {
        test_rig* rig;
        explicit hook(test_rig* r) : rig(r) {}
        bool on_dl_packet(net::packet&, rnti_t, drb_id_t, pdcp_sn_t, sim::tick) override
        {
            return true;
        }
        bool on_ul_packet(net::packet&, rnti_t, sim::tick) override { return true; }
        void on_delivery_status(const dl_delivery_status& st, sim::tick) override
        {
            rig->statuses.push_back(st);
        }
    };
    hook h{this};

    explicit test_rig(rlc_config rlc = {})
    {
        g = std::make_unique<gnb>(loop, sched_policy::round_robin, sim::rng(5));
        const rnti_t ue = g->add_ue(chan::channel_profile::static_channel());
        g->add_drb(ue, rlc);
        g->set_cu_hook(&h);
        g->set_deliver_handler([this](rnti_t, drb_id_t, net::packet p, sim::tick) {
            delivered.push_back(std::move(p));
        });
        g->set_uplink_handler([this](rnti_t, net::packet p, sim::tick) {
            uplinked.push_back(std::move(p));
        });
        g->start();
    }
};

}  // namespace

TEST(gnb, delivers_downlink_to_ue)
{
    test_rig rig;
    for (int i = 0; i < 20; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(100));
    EXPECT_EQ(rig.delivered.size(), 20u);
}

TEST(gnb, preserves_order_in_am)
{
    test_rig rig;
    for (std::uint64_t i = 0; i < 200; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_sec(2));
    ASSERT_EQ(rig.delivered.size(), 200u);
    for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(rig.delivered[i].pkt_id, i);
}

TEST(gnb, emits_f1u_transmit_and_delivery_feedback)
{
    test_rig rig;
    for (int i = 0; i < 10; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(200));
    ASSERT_FALSE(rig.statuses.empty());
    bool any_txed = false, any_delivered = false;
    for (const auto& st : rig.statuses) {
        if (st.has_transmitted) any_txed = true;
        if (st.has_delivered) any_delivered = true;
    }
    EXPECT_TRUE(any_txed);
    EXPECT_TRUE(any_delivered) << "RLC AM must confirm delivery";
    EXPECT_EQ(rig.statuses.back().highest_delivered_sn, 10u);
}

TEST(gnb, um_mode_reports_transmit_only)
{
    rlc_config cfg;
    cfg.mode = rlc_mode::um;
    test_rig rig(cfg);
    for (int i = 0; i < 10; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(200));
    ASSERT_FALSE(rig.statuses.empty());
    for (const auto& st : rig.statuses) EXPECT_FALSE(st.has_delivered);
    EXPECT_GE(rig.delivered.size(), 9u) << "UM still delivers (HARQ hides most loss)";
}

TEST(gnb, queue_overflow_drops_at_admission)
{
    rlc_config cfg;
    cfg.max_queue_sdus = 8;
    test_rig rig(cfg);
    for (int i = 0; i < 100; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    // Queue admits only 8 before the MAC drains anything (first slot at 0.5 ms).
    EXPECT_LE(rig.g->rlc(1, 1).queued_sdus(), 8u);
    rig.loop.run_until(sim::from_ms(100));
    EXPECT_LT(rig.delivered.size(), 100u);
    EXPECT_GE(rig.delivered.size(), 8u);
}

TEST(gnb, uplink_reaches_core_in_order)
{
    test_rig rig;
    for (std::uint64_t i = 0; i < 50; ++i) {
        net::packet ack;
        ack.ft.proto = net::ip_proto::tcp;
        ack.tcp = net::tcp_header{};
        ack.tcp->flags.ack = true;
        ack.pkt_id = i;
        rig.g->send_uplink(1, std::move(ack));
    }
    rig.loop.run_until(sim::from_ms(100));
    ASSERT_EQ(rig.uplinked.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(rig.uplinked[i].pkt_id, i);
}

TEST(gnb, uplink_waits_for_ul_slot)
{
    test_rig rig;
    net::packet ack;
    ack.ft.proto = net::ip_proto::udp;
    rig.g->send_uplink(1, std::move(ack));
    rig.loop.run_until(sim::from_us(100));
    EXPECT_TRUE(rig.uplinked.empty()) << "no UL opportunity yet";
    rig.loop.run_until(sim::from_ms(20));
    EXPECT_EQ(rig.uplinked.size(), 1u);
}

TEST(gnb, throughput_close_to_calibrated_capacity)
{
    test_rig rig;
    // Saturate: a deep backlog, then measure delivered bytes over 2 s.
    for (int i = 0; i < 12000; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_sec(2));
    std::uint64_t bytes = 0;
    for (const auto& p : rig.delivered) bytes += p.payload_bytes;
    const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
    EXPECT_GT(mbps, 28.0) << "calibrated cell should carry ~40 Mbit/s";
    EXPECT_LT(mbps, 50.0);
}

TEST(gnb, unknown_rnti_throws)
{
    test_rig rig;
    EXPECT_THROW(rig.g->rlc(99, 1), std::out_of_range);
}

TEST(gnb, qfi_map_survives_detach_and_attach)
{
    // Source cell: UE 1 with two DRBs and QoS flows mapped across both.
    test_rig src;
    ASSERT_EQ(src.g->add_drb(1, {}), drb_id_t{2});
    src.g->map_qos_flow(1, 1, 2);
    src.g->map_qos_flow(1, 2, 1);
    src.g->map_qos_flow(1, 5, 2);
    ue_handover_context ctx = src.g->detach_ue(1);
    const std::vector<std::pair<qfi_t, drb_id_t>> want = {{1, 2}, {2, 1}, {5, 2}};
    EXPECT_EQ(ctx.qfi_map, want);

    // Target cell (its own UE holds RNTI 1): every QFI lands on the DRB it
    // mapped to at the source; an unmapped QFI falls back to DRB 1.
    test_rig dst;
    const rnti_t rnti = dst.g->attach_ue(std::move(ctx));
    ASSERT_TRUE(dst.g->has_ue(rnti));
    std::vector<std::pair<std::uint64_t, drb_id_t>> seen;
    dst.g->set_deliver_handler([&](rnti_t ue, drb_id_t drb, net::packet p, sim::tick) {
        if (ue == rnti) seen.emplace_back(p.pkt_id, drb);
    });
    const std::vector<std::pair<qfi_t, drb_id_t>> probes = {{1, 2}, {2, 1}, {5, 2}, {7, 1}};
    for (std::size_t i = 0; i < probes.size(); ++i)
        dst.g->deliver_downlink(data_packet(1400, i), rnti, probes[i].first);
    dst.loop.run_until(sim::from_ms(100));
    ASSERT_EQ(seen.size(), probes.size());
    for (const auto& [id, drb] : seen)
        EXPECT_EQ(int{drb}, int{probes[id].second}) << "pkt " << id;

    // A second handover exports the same map.
    EXPECT_EQ(dst.g->detach_ue(rnti).qfi_map, want);
}

TEST(gnb, qos_flow_allocation_continues_after_a_handover)
{
    test_rig src;
    ASSERT_EQ(src.g->add_drb(1, {}), drb_id_t{2});
    EXPECT_EQ(int{src.g->add_qos_flow(1, 2)}, 1);
    EXPECT_EQ(int{src.g->add_qos_flow(1, 1)}, 2);
    // The target allocates above the restored map instead of reusing QFI 1.
    test_rig dst;
    const rnti_t rnti = dst.g->attach_ue(src.g->detach_ue(1));
    EXPECT_EQ(int{dst.g->add_qos_flow(rnti, 2)}, 3);
    const std::vector<std::pair<qfi_t, drb_id_t>> want = {{1, 2}, {2, 1}, {3, 2}};
    EXPECT_EQ(dst.g->detach_ue(rnti).qfi_map, want);
}
