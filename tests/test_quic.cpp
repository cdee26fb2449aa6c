// QUIC engine over an ideal in-memory pipe plus the multi-cell topology:
// handshake, ACK-range loss recovery, ECN-count feedback to Prague, CID
// path migration across X2/Xn handover, and the ACK-frame wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "net/quic_wire.h"
#include "scenario/topology.h"
#include "topo/path_impairment.h"
#include "transport/prague.h"
#include "transport/quic_engine.h"

using namespace l4span;
using namespace l4span::transport;

// --- ACK-frame wire format ---------------------------------------------------

TEST(quic_wire, varint_boundaries_round_trip)
{
    const std::uint64_t cases[] = {0,
                                   1,
                                   63,
                                   64,
                                   16383,
                                   16384,
                                   (1ull << 30) - 1,
                                   1ull << 30,
                                   net::quic::k_varint_max};
    const std::size_t sizes[] = {1, 1, 1, 2, 2, 4, 4, 8, 8};
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        std::vector<std::uint8_t> buf;
        net::quic::put_varint(buf, cases[i]);
        EXPECT_EQ(buf.size(), sizes[i]) << cases[i];
        const std::uint8_t* p = buf.data();
        std::uint64_t v = 0;
        ASSERT_TRUE(net::quic::get_varint(p, buf.data() + buf.size(), v));
        EXPECT_EQ(v, cases[i]);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(quic_wire, ack_frame_round_trip_with_ranges_and_ecn)
{
    net::quic::ack_frame f;
    f.largest = 1000;
    f.ack_delay_us = 25;
    f.ranges = {{990, 1000}, {700, 900}, {5, 5}};  // descending, gappy
    f.ecn_present = true;
    f.ecn = {123456, 789, 4242};

    const auto bytes = net::quic::encode_ack(f);
    net::quic::ack_frame out;
    ASSERT_TRUE(net::quic::decode_ack(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out, f);
    // The allocation-free size used on the ACK hot path matches the bytes.
    EXPECT_EQ(net::quic::encoded_ack_size(f), bytes.size());
}

TEST(quic_wire, single_range_no_ecn)
{
    net::quic::ack_frame f;
    f.largest = 7;
    f.ranges = {{0, 7}};
    const auto bytes = net::quic::encode_ack(f);
    net::quic::ack_frame out;
    ASSERT_TRUE(net::quic::decode_ack(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out, f);
    EXPECT_FALSE(out.ecn_present);
    EXPECT_EQ(net::quic::encoded_ack_size(f), bytes.size());
}

TEST(quic_wire, rejects_truncation_and_garbage)
{
    net::quic::ack_frame f;
    f.largest = 300;
    f.ranges = {{100, 300}};
    f.ecn_present = true;
    f.ecn = {10, 20, 30};
    const auto bytes = net::quic::encode_ack(f);
    net::quic::ack_frame out;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut)
        EXPECT_FALSE(net::quic::decode_ack(bytes.data(), cut, out)) << cut;
    const std::uint8_t not_ack[] = {0x06, 0x01};
    EXPECT_FALSE(net::quic::decode_ack(not_ack, sizeof(not_ack), out));
    // A first range reaching below packet number 0 is malformed.
    const std::uint8_t bad_range[] = {0x02, 0x05, 0x00, 0x00, 0x09};
    EXPECT_FALSE(net::quic::decode_ack(bad_range, sizeof(bad_range), out));
}

// --- engine over an in-memory pipe -------------------------------------------

namespace {

struct quic_pipe_rig {
    sim::event_loop loop;
    quic::quic_config cfg;
    std::unique_ptr<quic_sender> snd;
    std::unique_ptr<quic_receiver> rcv;
    sim::tick one_way = sim::from_ms(10);
    int drop_every_n_data = 0;  // 0: no drops
    int mark_every_n_data = 0;  // 0: no periodic CE marks
    int data_count = 0;
    bool mark_all_ce = false;
    // Sees every sender packet before the pipe does; true drops it.
    std::function<bool(const net::packet&)> drop_if;
    std::unique_ptr<topo::path_impairment> impair;  // data direction only

    explicit quic_pipe_rig(const std::string& cca, std::uint64_t flow_bytes = 0,
                           bool app_limited = false)
    {
        cfg.flow_bytes = flow_bytes;
        cfg.app_limited = app_limited;
        cfg.ft.proto = net::ip_proto::udp;
        auto cc = make_cc(cca, cfg.mtu_payload);
        snd = std::make_unique<quic_sender>(loop, cfg, std::move(cc),
                                            [this](net::packet p) {
            ++data_count;
            if (drop_if && drop_if(p)) return;
            if (drop_every_n_data > 0 && data_count % drop_every_n_data == 0)
                return;  // drop
            const bool mark = mark_all_ce || (mark_every_n_data > 0 &&
                                              data_count % mark_every_n_data == 0);
            if (mark && net::is_ect(p.ecn_field)) p.ecn_field = net::ecn::ce;
            if (impair) {
                impair->send(std::move(p));
                return;
            }
            loop.schedule_after(one_way, [this, p = std::move(p)] { rcv->on_packet(p); });
        });
        rcv = std::make_unique<quic_receiver>(loop, cfg, [this](net::packet p) {
            loop.schedule_after(one_way, [this, p = std::move(p)] { snd->on_packet(p); });
        });
    }

    // Mounts an impairment stage on the data direction, in front of the
    // propagation delay, the way the scenarios mount one on the wired hop.
    void install_impairment(const topo::impairment_spec& spec)
    {
        impair = std::make_unique<topo::path_impairment>(loop, spec, 42);
        impair->set_deliver([this](net::packet p) {
            loop.schedule_after(one_way,
                                [this, p = std::move(p)] { rcv->on_packet(p); });
        });
    }

    void run(sim::tick t) { loop.run_until(t); }
};

}  // namespace

TEST(quic, handshake_establishes_and_measures_rtt)
{
    quic_pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_ms(100));
    EXPECT_EQ(rig.snd->handshake_rtt(), sim::from_ms(20));
}

TEST(quic, clean_link_bulk_has_zero_spurious_retransmits)
{
    // Acceptance (a): ACK-range loss detection must never fire on a clean
    // in-order link — no packet or time threshold can trip.
    quic_pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_sec(3));
    EXPECT_GT(rig.rcv->received_bytes(), 2u << 20);
    EXPECT_EQ(rig.snd->retransmits(), 0u);
    EXPECT_EQ(rig.snd->lost_packets(), 0u);
    // In-order arrival keeps the ACK state in one contiguous range.
    EXPECT_EQ(rig.rcv->ack_range_count(), 1u);
}

TEST(quic, finite_flow_finishes_and_reports_fct)
{
    quic_pipe_rig rig("cubic", 50000);
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_TRUE(rig.snd->finished());
    EXPECT_GT(rig.snd->finish_time(), 0);
    EXPECT_GE(rig.rcv->received_bytes(), 50000u);
}

TEST(quic, ack_ranges_recover_from_periodic_loss)
{
    quic_pipe_rig rig("reno");
    rig.drop_every_n_data = 50;  // 2% loss
    rig.snd->start();
    rig.run(sim::from_sec(5));
    EXPECT_GT(rig.rcv->received_bytes(), 2u << 20)
        << "RACK-style detection + new-PN re-sends must sustain progress";
    EXPECT_GT(rig.snd->retransmits(), 0u);
    EXPECT_GT(rig.snd->lost_packets(), 0u);
}

TEST(quic, ecn_counts_reach_prague_without_loss)
{
    // Acceptance (b): CE marks flow back as cumulative ACK_ECN counters and
    // move Prague's alpha, with zero loss or retransmission involved.
    quic_pipe_rig rig("prague");
    rig.snd->start();
    rig.run(sim::from_ms(200));
    const auto w_before = rig.snd->cwnd_bytes();
    rig.mark_all_ce = true;
    rig.run(sim::from_ms(600));
    const auto* pr = dynamic_cast<const prague*>(&rig.snd->cc());
    ASSERT_NE(pr, nullptr);
    EXPECT_GT(pr->alpha(), 0.1) << "alpha EWMA must absorb the CE fraction";
    EXPECT_LT(rig.snd->cwnd_bytes(), w_before);
    EXPECT_GT(rig.rcv->ce_packets(), 0u);
    EXPECT_EQ(rig.snd->retransmits(), 0u);
    EXPECT_EQ(rig.snd->lost_packets(), 0u);
    // And the flow keeps moving at 100% marking (scalable response).
    const auto before = rig.rcv->received_bytes();
    rig.run(sim::from_sec(2));
    EXPECT_GT(rig.rcv->received_bytes(), before);
}

TEST(quic, classic_cc_over_quic_reacts_to_ce_once_per_rtt)
{
    quic_pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_ms(300));
    const auto w_before = rig.snd->cwnd_bytes();
    rig.mark_all_ce = true;
    rig.run(sim::from_ms(500));
    EXPECT_LT(rig.snd->cwnd_bytes(), w_before)
        << "a CE increment must shrink a classic sender's window";
    EXPECT_EQ(rig.snd->retransmits(), 0u);
}

TEST(quic, stream_multiplexing_completes_streams_out_of_order_under_loss)
{
    quic_pipe_rig rig("cubic", 0, /*app_limited=*/true);
    std::vector<quic::stream_id_t> completed;
    rig.rcv->set_stream_complete_handler(
        [&](quic::stream_id_t s, sim::tick) { completed.push_back(s); });
    rig.snd->start();
    rig.run(sim::from_ms(50));  // handshake done
    rig.snd->write(1, 40000, true);
    rig.snd->write(2, 1400, true);
    // Drop one early packet: stream 1 repairs while stream 2 sails through.
    rig.drop_every_n_data = 7;
    rig.run(sim::from_ms(100));
    rig.drop_every_n_data = 0;
    rig.run(sim::from_sec(3));
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_GT(rig.snd->retransmits(), 0u);
    EXPECT_EQ(rig.rcv->received_bytes(), 41400u);
}

TEST(quic, per_stream_flow_control_caps_a_stream)
{
    quic_pipe_rig rig("cubic", 0, /*app_limited=*/true);
    rig.cfg.stream_flow_window = 8192;
    rig.snd = std::make_unique<quic_sender>(rig.loop, rig.cfg,
                                            make_cc("cubic", rig.cfg.mtu_payload),
                                            [&rig](net::packet p) {
        rig.loop.schedule_after(rig.one_way,
                                [&rig, p = std::move(p)] { rig.rcv->on_packet(p); });
    });
    rig.rcv = std::make_unique<quic_receiver>(rig.loop, rig.cfg, [&rig](net::packet p) {
        rig.loop.schedule_after(rig.one_way,
                                [&rig, p = std::move(p)] { rig.snd->on_packet(p); });
    });
    rig.snd->start();
    rig.run(sim::from_ms(50));
    rig.snd->write(1, 1u << 20, true);
    rig.run(sim::from_sec(5));
    // The stream window is granted back as data is consumed, so the whole
    // megabyte eventually lands — but never more than window bytes per RTT.
    EXPECT_EQ(rig.rcv->received_bytes(), 1u << 20);
    const double rtt_s = 0.02;
    const double cap_mbps = 8192 * 8.0 / rtt_s / 1e6;
    const double got_mbps = static_cast<double>(rig.rcv->received_bytes()) * 8.0 / 5.0 / 1e6;
    EXPECT_LT(got_mbps, cap_mbps) << "flow control must bound the rate";
}

TEST(quic, foreign_cid_is_dropped_known_cids_survive_rotation)
{
    quic_pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_ms(500));
    const auto delivered = rig.rcv->received_bytes();
    EXPECT_EQ(rig.rcv->cid_drops(), 0u);

    // Rotate to the next issued CID mid-flight: traffic keeps flowing.
    rig.snd->on_path_switch();
    EXPECT_EQ(rig.snd->path_migrations(), 1u);
    rig.run(sim::from_ms(800));
    EXPECT_GT(rig.rcv->received_bytes(), delivered);
    EXPECT_EQ(rig.rcv->cid_drops(), 0u);

    // A packet with a CID outside the issued set is not this connection.
    net::packet alien;
    alien.ft = rig.cfg.ft;
    alien.ft.proto = net::ip_proto::udp;
    auto payload = std::make_shared<quic::packet_payload>();
    payload->dcid = quic::k_cid_base + 100;
    payload->pn = 9999;
    alien.app_data = payload;
    rig.rcv->on_packet(alien);
    EXPECT_EQ(rig.rcv->cid_drops(), 1u);
}

// --- QUIC across an X2/Xn handover -------------------------------------------

TEST(quic, survives_handover_with_zero_transport_retransmissions)
{
    // Acceptance (c): a QUIC bulk flow rides through a mid-transfer X2/Xn
    // handover on CID semantics alone — the RLC AM forwarding underneath
    // preserves every admitted SDU, so the transport never re-sends.
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 1;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "static";
    spec.cell.seed = 5;
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "quic-prague";
    f.ue = 0;
    f.max_cwnd = 1536 * 1024;
    const int h = topo.add_flow(f);
    topo.schedule_handover(sim::from_ms(1500), 0, 1);
    topo.run(sim::from_sec(3));

    EXPECT_EQ(topo.handovers_completed(), 1u);
    EXPECT_EQ(topo.serving_cell(0), 1);
    EXPECT_EQ(topo.flow_retransmits(h), 0u);
    EXPECT_GT(topo.delivered_bytes(h), 2u << 20);
    const transport::quic_sender* q = topo.quic_flow(h);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->path_migrations(), 1u);
    EXPECT_EQ(q->active_cid(), 2u);  // rotated off the initial CID
    // Delivery kept flowing after the path switch.
    EXPECT_GT(topo.goodput_series(h).mbps_at(sim::from_ms(2500)), 1.0);
}

TEST(quic, interactive_frames_keep_low_owd_across_handover)
{
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 1;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "static";
    spec.cell.seed = 7;
    scenario::topology topo(spec);
    scenario::flow_spec f;
    f.cca = "quic-prague";
    f.ue = 0;
    f.fps = 60.0;
    f.frame_bitrate_bps = 6e6;
    f.frame_deadline_ms = 100.0;
    const int h = topo.add_flow(f);
    topo.schedule_handover(sim::from_ms(1500), 0, 1);
    topo.run(sim::from_sec(3));

    const media::frame_source* fr = topo.frame_stats(h);
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(topo.handovers_completed(), 1u);
    EXPECT_GT(fr->frames_completed(), 150u);
    // An app-limited 6 Mb/s source in an otherwise empty cell completes
    // nearly every frame inside a generous 100 ms budget, handover included
    // (the allowance covers the handshake/slow-start transient).
    EXPECT_LT(fr->stall_fraction(), 0.10);
    EXPECT_EQ(topo.flow_retransmits(h), 0u);
}

// --- ECN validation / fallback under adversarial paths (path_impairment) -----

TEST(quic_ecn_fallback, clean_link_never_falls_back)
{
    quic_pipe_rig rig("prague");
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_FALSE(rig.snd->ecn_fallback());
    EXPECT_EQ(rig.snd->retransmits(), 0u);
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20);
}

TEST(quic_ecn_fallback, ect_strip_triggers_fallback_without_spurious_retx)
{
    // RFC 9000 §13.4.2 ECN validation: the peer's ECN counts never move when
    // a middlebox zeroes the field, so the sender must mark the path as not
    // ECN-capable and send subsequent packets Not-ECT — with zero data
    // re-sends on this loss-free link.
    quic_pipe_rig rig("prague");
    topo::impairment_spec strip;
    strip.strip_ect = 1.0;
    rig.install_impairment(strip);
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_TRUE(rig.snd->ecn_fallback())
        << "sender must detect that the path is not ECN-capable";
    EXPECT_EQ(rig.snd->retransmits(), 0u)
        << "fallback must not manufacture loss on a clean link";
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20)
        << "the transfer must keep progressing after fallback";
    EXPECT_EQ(rig.rcv->ce_packets(), 0u);
    // Post-fallback packets leave the sender Not-ECT already, so the strip
    // count stops well short of the input count.
    const auto& st = rig.impair->stats();
    EXPECT_LT(st.stripped, st.input / 2)
        << "sender kept stamping ECT after fallback";
}

TEST(quic_ecn_fallback, fallback_sender_still_recovers_from_loss)
{
    quic_pipe_rig rig("prague");
    topo::impairment_spec adversarial;
    adversarial.strip_ect = 1.0;
    adversarial.loss = 0.01;
    adversarial.loss_burst = 2.0;
    rig.install_impairment(adversarial);
    rig.snd->start();
    rig.run(sim::from_sec(3));
    EXPECT_TRUE(rig.snd->ecn_fallback());
    EXPECT_GT(rig.snd->retransmits(), 0u)
        << "ACK-range loss detection must keep repairing losses";
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20)
        << "loss-based control must sustain progress after fallback";
}

TEST(quic_ecn_fallback, reordering_alone_causes_no_fallback)
{
    // Mild reordering shuffles ECN-marked packets but the counts still
    // arrive; ECN validation must not be tripped by it.
    quic_pipe_rig rig("prague");
    topo::impairment_spec shuffle;
    shuffle.reorder = 0.05;
    shuffle.reorder_gap = 2;
    rig.install_impairment(shuffle);
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_FALSE(rig.snd->ecn_fallback());
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20);
}

// --- probe timer and pacing --------------------------------------------------

namespace {

const quic::packet_payload& payload_of(const net::packet& p)
{
    return *static_cast<const quic::packet_payload*>(p.app_data.get());
}

// Runs `rig` until `until`, blackholing every sender packet from `at` on,
// and returns the intervals between the sender's transmissions once the
// in-flight ACKs have drained: each is one PTO, with backoff.
std::vector<sim::tick> pto_intervals(quic_pipe_rig& rig, sim::tick at, sim::tick until)
{
    std::vector<sim::tick> sends;
    rig.drop_if = [&](const net::packet&) {
        sends.push_back(rig.loop.now());
        return rig.loop.now() >= at;
    };
    rig.snd->start();
    rig.run(until);
    rig.drop_if = nullptr;  // it refers to `sends`
    // The last transmission an ACK clocked out anchors the first timeout.
    const sim::tick drained = at + 2 * rig.one_way;
    std::size_t i = 0;
    while (i + 1 < sends.size() && sends[i + 1] <= drained) ++i;
    std::vector<sim::tick> gaps;
    for (; i + 1 < sends.size(); ++i) gaps.push_back(sends[i + 1] - sends[i]);
    return gaps;
}

}  // namespace

TEST(quic_timers, lost_initial_is_resent_after_200_ms)
{
    quic_pipe_rig rig("cubic");
    int initials = 0;
    rig.drop_if = [&](const net::packet& p) {
        return payload_of(p).handshake && ++initials == 1;
    };
    rig.snd->start();
    rig.run(sim::from_ms(250));
    // The handshake RTT runs from the first Initial, so it includes the PTO.
    EXPECT_EQ(rig.snd->handshake_rtt(), sim::from_ms(220));
    EXPECT_EQ(initials, 2);
}

TEST(quic_timers, pto_backs_off_from_the_floor_with_capped_shift)
{
    quic_pipe_rig rig("reno");
    const auto gaps = pto_intervals(rig, sim::from_sec(1), sim::from_sec(60));
    ASSERT_GE(gaps.size(), 9u);
    for (std::size_t k = 0; k < 9; ++k)
        EXPECT_EQ(gaps[k], sim::from_ms(200) << std::min<std::size_t>(k, 6)) << k;
}

TEST(quic_timers, pto_is_capped_at_sixty_seconds)
{
    // A 960 ms RTT puts the base timeout just above 60 s / 64, so the sixth
    // doubling hits the ceiling.
    quic_pipe_rig rig("reno");
    rig.one_way = sim::from_ms(480);
    const auto gaps = pto_intervals(rig, sim::from_sec(5), sim::from_sec(300));
    ASSERT_GE(gaps.size(), 8u);
    EXPECT_GT(gaps[0], sim::from_sec(60) / 64);
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(gaps[k], std::min(gaps[0] << std::min<std::size_t>(k, 6),
                                    sim::from_sec(60)))
            << k;
    EXPECT_EQ(gaps[7], sim::from_sec(60));
}

TEST(quic_timers, bbr_never_sends_data_faster_than_its_pacing_rate)
{
    quic_pipe_rig rig("bbr");
    sim::tick last_sent = -1;
    sim::tick min_gap = 0;
    std::size_t paced = 0;
    std::size_t too_close = 0;
    rig.drop_if = [&](const net::packet& p) {
        const quic::packet_payload& pl = payload_of(p);
        if (!pl.stream) return false;
        const sim::tick now = rig.loop.now();
        if (last_sent >= 0) {
            ++paced;
            if (now - last_sent < min_gap) ++too_close;
        }
        last_sent = now;
        const double pace = rig.snd->cc().pacing_bps();
        min_gap = pace > 0.0 ? sim::tx_time(pl.stream->len, pace) : 0;
        return false;
    };
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_GT(paced, 1000u);
    EXPECT_EQ(too_close, 0u);
}

// --- every controller over the engine: pinned outcomes -----------------------

TEST(quic_outcomes, each_controller_under_periodic_loss_and_marks)
{
    struct row {
        const char* cca;
        std::uint64_t delivered;
        std::uint32_t retransmits;
        std::uint64_t cwnd;
        std::size_t rtt_samples;
        bool ecn_fallback;
    };
    // Captured from the engine as it stood; a changed value is a changed
    // sender control path, not noise (the rig draws no randomness).
    const row rows[] = {
        {"reno", 652400, 4, 5621, 466, false},
        {"cubic", 597800, 4, 5572, 427, false},
        {"prague", 1482600, 10, 9158, 1059, false},
        {"bbr", 12145000, 90, 761600, 8675, false},
        {"bbr2", 918400, 6, 5600, 656, false},
    };
    for (const row& r : rows) {
        quic_pipe_rig rig(r.cca);
        rig.drop_every_n_data = 97;
        rig.mark_every_n_data = 13;
        rig.snd->start();
        rig.run(sim::from_sec(2));
        EXPECT_EQ(rig.snd->delivered_bytes(), r.delivered) << r.cca;
        EXPECT_EQ(rig.snd->retransmits(), r.retransmits) << r.cca;
        EXPECT_EQ(rig.snd->cwnd_bytes(), r.cwnd) << r.cca;
        EXPECT_EQ(rig.snd->rtt_samples().count(), r.rtt_samples) << r.cca;
        EXPECT_EQ(rig.snd->ecn_fallback(), r.ecn_fallback) << r.cca;
    }
}
