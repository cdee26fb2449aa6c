// Media transport: sender pacing, receiver feedback, SCReAM / UDP Prague
// rate adaptation.
#include <gtest/gtest.h>

#include "media/media.h"

using namespace l4span;
using namespace l4span::media;

namespace {

struct media_rig {
    sim::event_loop loop;
    media_config cfg;
    std::unique_ptr<media_sender> snd;
    std::unique_ptr<media_receiver> rcv;
    sim::tick one_way = sim::from_ms(15);
    bool mark_ce = false;
    std::uint64_t data_packets = 0;

    explicit media_rig(const std::string& algo)
    {
        cfg.ft = {1, 2, 5004, 6004, net::ip_proto::udp};
        auto rc = algo == "scream" ? make_scream(cfg) : make_udp_prague(cfg);
        snd = std::make_unique<media_sender>(loop, cfg, std::move(rc),
                                             [this](net::packet p) {
                                                 ++data_packets;
                                                 if (mark_ce) p.ecn_field = net::ecn::ce;
                                                 loop.schedule_after(one_way, [this, p] {
                                                     rcv->on_packet(p);
                                                 });
                                             });
        rcv = std::make_unique<media_receiver>(loop, cfg, [this](net::packet p) {
            loop.schedule_after(one_way, [this, p] { snd->on_packet(p); });
        });
    }
};

}  // namespace

TEST(media, sender_paces_at_target_rate)
{
    media_rig rig("udp-prague");
    rig.snd->start();
    rig.loop.run_until(sim::from_ms(500));
    // start_rate 1 Mbit/s, 1200 B packets -> ~104 packets/s before ramping.
    EXPECT_GT(rig.data_packets, 20u);
}

TEST(media, receiver_reports_owd_and_goodput)
{
    media_rig rig("udp-prague");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(1));
    ASSERT_GT(rig.rcv->owd_samples().count(), 10u);
    EXPECT_NEAR(rig.rcv->owd_samples().median(), 15.0, 1.0);
    EXPECT_GT(rig.rcv->goodput().total_bytes(), 0);
}

TEST(media, udp_prague_ramps_without_congestion)
{
    media_rig rig("udp-prague");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(3));
    EXPECT_GT(rig.snd->current_rate_bps(), 5e6)
        << "clean feedback lets the rate climb well above the starting rate";
}

TEST(media, udp_prague_backs_off_on_ce)
{
    media_rig rig("udp-prague");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(2));
    const double before = rig.snd->current_rate_bps();
    rig.mark_ce = true;
    rig.loop.run_until(sim::from_sec(4));
    EXPECT_LT(rig.snd->current_rate_bps(), before * 0.7);
    EXPECT_GE(rig.snd->current_rate_bps(), media::k_min_rate_bps);
}

TEST(media, scream_backs_off_on_ce)
{
    media_rig rig("scream");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(2));
    const double before = rig.snd->current_rate_bps();
    rig.mark_ce = true;
    rig.loop.run_until(sim::from_sec(4));
    EXPECT_LT(rig.snd->current_rate_bps(), before * 0.8);
}

TEST(media, scream_recovers_after_congestion_clears)
{
    media_rig rig("scream");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(2));
    rig.mark_ce = true;
    rig.loop.run_until(sim::from_sec(3));
    const double low = rig.snd->current_rate_bps();
    rig.mark_ce = false;
    rig.loop.run_until(sim::from_sec(6));
    EXPECT_GT(rig.snd->current_rate_bps(), low * 1.2);
}

TEST(media, rtt_samples_accumulate)
{
    media_rig rig("scream");
    rig.snd->start();
    rig.loop.run_until(sim::from_sec(1));
    EXPECT_GT(rig.snd->rtt_samples().count(), 5u);
    // RTT ~ 2 x 15 ms.
    EXPECT_NEAR(rig.snd->rtt_samples().median(), 30.0, 35.0);
}

TEST(media, stop_halts_emission)
{
    media_rig rig("udp-prague");
    rig.snd->start();
    rig.loop.run_until(sim::from_ms(500));
    rig.snd->stop();
    const auto frozen = rig.data_packets;
    rig.loop.run_until(sim::from_sec(1));
    EXPECT_LE(rig.data_packets, frozen + 1);
}
