// TCP engine over an ideal in-memory pipe: handshake, delivery, recovery,
// ECN feedback paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "scenario/cell_scenario.h"
#include "topo/path_impairment.h"
#include "transport/prague.h"
#include "transport/tcp.h"

using namespace l4span;
using namespace l4span::transport;

namespace {

// Two endpoints joined by fixed-delay pipes with optional loss/marking.
struct pipe_rig {
    sim::event_loop loop;
    tcp_config cfg;
    std::unique_ptr<tcp_sender> snd;
    std::unique_ptr<tcp_receiver> rcv;
    sim::tick one_way = sim::from_ms(10);
    int drop_every_n_data = 0;  // 0: no drops
    int mark_every_n_data = 0;  // 0: no periodic CE marks
    int data_count = 0;
    bool mark_all_ce = false;
    // Sees every sender packet before the pipe does; true drops it.
    std::function<bool(const net::packet&)> drop_if;
    std::unique_ptr<topo::path_impairment> impair;  // data direction only

    explicit pipe_rig(const std::string& cca, std::uint64_t flow_bytes = 0)
    {
        cfg.flow_bytes = flow_bytes;
        cfg.ft.proto = net::ip_proto::tcp;
        auto cc = make_cc(cca, cfg.mss);
        const bool accecn = cc->uses_accecn();
        snd = std::make_unique<tcp_sender>(loop, cfg, std::move(cc), [this](net::packet p) {
            ++data_count;
            if (drop_if && drop_if(p)) return;
            if (drop_every_n_data > 0 && p.payload_bytes > 0 &&
                data_count % drop_every_n_data == 0)
                return;  // drop
            const bool mark = mark_all_ce || (mark_every_n_data > 0 &&
                                              data_count % mark_every_n_data == 0);
            if (mark && net::is_ect(p.ecn_field)) p.ecn_field = net::ecn::ce;
            if (impair) {
                impair->send(std::move(p));
                return;
            }
            loop.schedule_after(one_way,
                                [this, p = std::move(p)] { rcv->on_packet(p); });
        });
        rcv = std::make_unique<tcp_receiver>(loop, cfg, accecn, [this](net::packet p) {
            loop.schedule_after(one_way,
                                [this, p = std::move(p)] { snd->on_packet(p); });
        });
    }

    // Mounts an impairment stage on the data direction (sender -> receiver),
    // in front of the propagation delay, the way the scenarios mount one on
    // the wired hop.
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

TEST(tcp, handshake_establishes_and_measures_rtt)
{
    pipe_rig rig("reno");
    rig.snd->start();
    rig.run(sim::from_ms(100));
    EXPECT_EQ(rig.snd->handshake_rtt(), sim::from_ms(20));
}

TEST(tcp, bulk_transfer_delivers_in_order)
{
    pipe_rig rig("reno");
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20);
    EXPECT_EQ(rig.rcv->received_bytes(), rig.snd->delivered_bytes());
}

TEST(tcp, slow_start_doubles_per_rtt)
{
    pipe_rig rig("reno");
    rig.snd->start();
    rig.run(sim::from_ms(25));  // established + first flight acked
    const auto w1 = rig.snd->cwnd_bytes();
    rig.run(sim::from_ms(45));
    const auto w2 = rig.snd->cwnd_bytes();
    EXPECT_GE(w2, w1 + w1 / 2) << "slow start should roughly double per RTT";
}

TEST(tcp, finite_flow_finishes_and_reports_fct)
{
    pipe_rig rig("cubic", 50000);
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_TRUE(rig.snd->finished());
    EXPECT_GT(rig.snd->finish_time(), 0);
    EXPECT_GE(rig.rcv->received_bytes(), 50000u);
}

TEST(tcp, recovers_from_periodic_loss)
{
    pipe_rig rig("reno");
    rig.drop_every_n_data = 50;  // 2% loss
    rig.snd->start();
    rig.run(sim::from_sec(5));
    EXPECT_GT(rig.rcv->received_bytes(), 2u << 20)
        << "fast retransmit + RTO must sustain progress under loss";
    EXPECT_GT(rig.snd->retransmits(), 0u);
}

TEST(tcp, classic_ecn_echo_until_cwr)
{
    pipe_rig rig("reno");
    rig.snd->start();
    rig.run(sim::from_ms(60));
    const auto w_before = rig.snd->cwnd_bytes();
    rig.mark_all_ce = true;
    rig.run(sim::from_ms(120));
    rig.mark_all_ce = false;
    rig.run(sim::from_ms(200));
    EXPECT_LT(rig.snd->cwnd_bytes(), w_before)
        << "ECE feedback must shrink a classic sender's window";
    EXPECT_GT(rig.rcv->ce_packets(), 0u);
}

TEST(tcp, accecn_ce_fraction_reaches_prague)
{
    pipe_rig rig("prague");
    rig.snd->start();
    rig.run(sim::from_ms(200));
    rig.mark_all_ce = true;
    rig.run(sim::from_ms(400));
    const auto* pr = dynamic_cast<const prague*>(&rig.snd->cc());
    ASSERT_NE(pr, nullptr);
    EXPECT_GT(pr->alpha(), 0.1) << "alpha EWMA must absorb the CE fraction";
}

TEST(tcp, prague_survives_full_marking_without_collapse)
{
    pipe_rig rig("prague");
    rig.snd->start();
    rig.run(sim::from_ms(200));
    rig.mark_all_ce = true;
    rig.run(sim::from_sec(2));
    // Even at 100% marking, Prague's alpha-based MD floors at 2 MSS and the
    // flow keeps moving.
    EXPECT_GT(rig.snd->cwnd_bytes(), 0u);
    const auto before = rig.rcv->received_bytes();
    rig.run(sim::from_sec(3));
    EXPECT_GT(rig.rcv->received_bytes(), before);
}

TEST(tcp, rtt_samples_reflect_path)
{
    pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_sec(1));
    ASSERT_GT(rig.snd->rtt_samples().count(), 10u);
    EXPECT_NEAR(rig.snd->rtt_samples().median(), 20.0, 2.0);
}

TEST(tcp, receiver_counts_owd)
{
    pipe_rig rig("cubic");
    rig.snd->start();
    rig.run(sim::from_sec(1));
    ASSERT_GT(rig.rcv->owd_samples().count(), 10u);
    EXPECT_NEAR(rig.rcv->owd_samples().median(), 10.0, 1.0);
}

TEST(tcp, stop_halts_new_data)
{
    pipe_rig rig("reno");
    rig.snd->start();
    rig.run(sim::from_ms(500));
    rig.snd->stop();
    rig.run(sim::from_ms(600));
    const auto frozen = rig.rcv->received_bytes();
    rig.run(sim::from_sec(2));
    EXPECT_EQ(rig.rcv->received_bytes(), frozen);
}

// ---- ECN validation / fallback under adversarial paths (path_impairment) --

TEST(tcp_ecn_fallback, clean_link_never_falls_back)
{
    pipe_rig rig("prague");
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_FALSE(rig.snd->ecn_fallback());
    EXPECT_EQ(rig.snd->retransmits(), 0u);
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20);
}

TEST(tcp_ecn_fallback, ect_strip_triggers_fallback_without_spurious_retx)
{
    // A field-zeroing middlebox strips every ECT mark: the receiver's AccECN
    // counters never move, so after enough delivered data the sender must
    // declare ECN unusable and stop stamping ECT — while the transfer keeps
    // running on loss-based control with ZERO retransmits on this clean
    // (loss-free) link.
    pipe_rig rig("prague");
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
    // Post-fallback packets leave the sender as Not-ECT, so the stage has
    // nothing left to strip: strips stop well short of the input count.
    const auto& st = rig.impair->stats();
    EXPECT_LT(st.stripped, st.input / 2)
        << "sender kept stamping ECT after fallback";
}

TEST(tcp_ecn_fallback, fallback_sender_still_recovers_from_loss)
{
    // Loss-based control must stay fully functional after ECN fallback.
    pipe_rig rig("prague");
    topo::impairment_spec adversarial;
    adversarial.strip_ect = 1.0;
    adversarial.loss = 0.01;
    adversarial.loss_burst = 2.0;
    rig.install_impairment(adversarial);
    rig.snd->start();
    rig.run(sim::from_sec(3));
    EXPECT_TRUE(rig.snd->ecn_fallback());
    EXPECT_GT(rig.snd->retransmits(), 0u) << "losses must be repaired";
    // The receiver delivers a strict in-order prefix; acks for the tail can
    // still be in flight when the clock stops.
    EXPECT_GE(rig.rcv->received_bytes(), rig.snd->delivered_bytes())
        << "in-order delivery must survive loss recovery";
    EXPECT_GT(rig.rcv->received_bytes(), 1u << 20);
}

TEST(tcp_ecn_fallback, bleached_path_does_not_starve_prague_vs_cubic)
{
    // 100% CE-bleaching between a DualPi2 bottleneck and the RAN erases
    // every congestion mark the core AQM applies. Prague then leans on the
    // L4Span CU's short-circuit marking (applied after the wired path, so
    // it cannot be bleached) and must keep a healthy share against a
    // loss-based cubic competitor instead of starving.
    auto run_cell = [](bool bleach) {
        scenario::cell_spec cell;
        cell.num_ues = 2;
        cell.channel = "static";
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = 11;
        cell.bottleneck_bps = 60e6;
        cell.bottleneck_aqm = "dualpi2";
        if (bleach) cell.impair_dl.bleach_ce = 1.0;
        scenario::cell_scenario s(cell);
        scenario::flow_spec fp;
        fp.cca = "prague";
        fp.ue = 0;
        const int hp = s.add_flow(fp);
        scenario::flow_spec fc;
        fc.cca = "cubic";
        fc.ue = 1;
        const int hc = s.add_flow(fc);
        s.run(sim::from_sec(3));
        return std::pair<double, double>(
            static_cast<double>(s.delivered_bytes(hp)),
            static_cast<double>(s.delivered_bytes(hc)));
    };
    const auto [prague, cubic] = run_cell(true);
    EXPECT_GT(prague, 1e6) << "prague must keep moving data under bleaching";
    EXPECT_GT(prague, 0.25 * cubic)
        << "prague must not starve against cubic on a bleached path "
        << "(prague=" << prague << " cubic=" << cubic << ")";
    // Sanity: the run actually had both flows competing.
    EXPECT_GT(cubic, 1e6);
}

// ---- retransmission timer and pacing ---------------------------------------

namespace {

// Runs `rig` until `until`, blackholing every sender packet from `at` on,
// and returns the intervals between the sender's transmissions once the
// in-flight ACKs have drained: each is one RTO, with backoff.
std::vector<sim::tick> rto_intervals(pipe_rig& rig, sim::tick at, sim::tick until)
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

TEST(tcp_timers, lost_syn_is_resent_after_one_second)
{
    pipe_rig rig("reno");
    std::vector<sim::tick> syns;
    rig.drop_if = [&](const net::packet& p) {
        if (!p.tcp->flags.syn) return false;
        syns.push_back(rig.loop.now());
        return syns.size() == 1;
    };
    rig.snd->start();
    rig.run(sim::from_ms(1019));
    EXPECT_EQ(rig.snd->handshake_rtt(), -1) << "no SYN-ACK before the re-sent SYN's";
    rig.run(sim::from_ms(1021));
    // The re-sent SYN is timed afresh, so the measured RTT is the path's.
    EXPECT_EQ(rig.snd->handshake_rtt(), sim::from_ms(20));
    ASSERT_EQ(syns.size(), 2u);
    EXPECT_EQ(syns[1] - syns[0], sim::from_sec(1));
}

TEST(tcp_timers, rto_backs_off_from_the_floor_with_capped_shift)
{
    pipe_rig rig("reno");
    const auto gaps = rto_intervals(rig, sim::from_sec(1), sim::from_sec(60));
    ASSERT_GE(gaps.size(), 9u);
    for (std::size_t k = 0; k < 9; ++k)
        EXPECT_EQ(gaps[k], sim::from_ms(200) << std::min<std::size_t>(k, 6)) << k;
}

TEST(tcp_timers, rto_is_capped_at_sixty_seconds)
{
    // A 960 ms RTT puts the base timeout just above 60 s / 64, so the sixth
    // doubling hits the ceiling.
    pipe_rig rig("reno");
    rig.one_way = sim::from_ms(480);
    const auto gaps = rto_intervals(rig, sim::from_sec(5), sim::from_sec(300));
    ASSERT_GE(gaps.size(), 8u);
    EXPECT_GT(gaps[0], sim::from_sec(60) / 64);
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(gaps[k], std::min(gaps[0] << std::min<std::size_t>(k, 6),
                                    sim::from_sec(60)))
            << k;
    EXPECT_EQ(gaps[7], sim::from_sec(60));
}

TEST(tcp_timers, bbr_never_sends_data_faster_than_its_pacing_rate)
{
    pipe_rig rig("bbr");
    sim::tick last_sent = -1;
    sim::tick min_gap = 0;
    std::size_t paced = 0;
    std::size_t too_close = 0;
    rig.drop_if = [&](const net::packet& p) {
        if (p.payload_bytes == 0) return false;
        const sim::tick now = rig.loop.now();
        if (last_sent >= 0) {
            ++paced;
            if (now - last_sent < min_gap) ++too_close;
        }
        last_sent = now;
        const double pace = rig.snd->cc().pacing_bps();
        min_gap = pace > 0.0 ? sim::tx_time(p.payload_bytes, pace) : 0;
        return false;
    };
    rig.snd->start();
    rig.run(sim::from_sec(2));
    EXPECT_GT(paced, 1000u);
    EXPECT_EQ(too_close, 0u);
}

// ---- every controller over the engine: pinned outcomes ---------------------

TEST(tcp_outcomes, each_controller_under_periodic_loss_and_marks)
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
        {"reno", 599200, 4, 6300, 424, false},
        {"cubic", 616000, 4, 5848, 436, false},
        {"prague", 1391600, 10, 14384, 984, false},
        {"bbr", 11691400, 87, 399708, 8265, false},
        {"bbr2", 919800, 6, 6361, 651, false},
    };
    for (const row& r : rows) {
        pipe_rig rig(r.cca);
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
