// MCS tables and fading channel statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "chan/fading.h"
#include "chan/mcs.h"

using namespace l4span;
using namespace l4span::chan;

TEST(mcs, monotone_in_snr)
{
    int prev = -1;
    for (double snr = -10.0; snr <= 30.0; snr += 0.5) {
        const int m = mcs_from_snr(snr);
        EXPECT_GE(m, prev) << "MCS must be non-decreasing in SNR";
        prev = m;
    }
    EXPECT_EQ(mcs_from_snr(-10.0), -1);
    EXPECT_EQ(mcs_from_snr(30.0), k_num_mcs - 1);
}

TEST(mcs, hinted_lookup_matches_the_scan)
{
    // Every hint, including out-of-range ones, against SNRs on, just below
    // and between the thresholds, the extremes and NaN.
    std::vector<double> snrs = {-1e9, 1e9, std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
    for (int m = -1; m < k_num_mcs; ++m) {
        const double thr = min_snr_db(m);
        snrs.push_back(thr);
        snrs.push_back(std::nextafter(thr, -1e9));
        snrs.push_back(thr + 0.37);
    }
    for (int hint = -3; hint <= k_num_mcs + 1; ++hint)
        for (const double snr : snrs)
            EXPECT_EQ(mcs_from_snr(snr, hint), mcs_from_snr(snr))
                << "snr " << snr << " hint " << hint;
}

TEST(mcs, spectral_efficiency_monotone)
{
    for (int m = 1; m < k_num_mcs; ++m)
        EXPECT_GT(spectral_efficiency(m), spectral_efficiency(m - 1));
    EXPECT_DOUBLE_EQ(spectral_efficiency(-1), 0.0);
}

TEST(mcs, tbs_scales_with_prbs)
{
    const auto one = tbs_bytes(15, 1);
    const auto ten = tbs_bytes(15, 10);
    EXPECT_NEAR(static_cast<double>(ten), 10.0 * one, 10.0);
    EXPECT_EQ(tbs_bytes(-1, 10), 0u);
    EXPECT_EQ(tbs_bytes(10, 0), 0u);
}

TEST(mcs, cell_capacity_matches_paper_calibration)
{
    // 51 PRB, MCS ~15, DDDSU TDD: the paper's 20 MHz cell delivers ~40 Mbit/s.
    const double bytes_per_slot = tbs_bytes(15, 51);
    const double dl_slots_per_sec = 2000.0 * 3.5 / 5.0;  // 3 DL + half special
    const double mbps = bytes_per_slot * dl_slots_per_sec * 8.0 / 1e6;
    EXPECT_GT(mbps, 33.0);
    EXPECT_LT(mbps, 48.0);
}

TEST(fading, static_channel_is_tight)
{
    fading_channel ch(channel_profile::static_channel(15.0), sim::rng(1));
    double lo = 1e9, hi = -1e9;
    for (int i = 0; i < 2000; ++i) {
        const double s = ch.snr_db(sim::from_ms(i));
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    EXPECT_GT(lo, 15.0 - 5.0);
    EXPECT_LT(hi, 15.0 + 5.0);
}

TEST(fading, mean_reversion)
{
    fading_channel ch(channel_profile::vehicular(12.0), sim::rng(2));
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += ch.snr_db(sim::from_ms(i));
    EXPECT_NEAR(sum / n, 12.0, 0.5);
}

TEST(fading, vehicular_varies_faster_than_pedestrian)
{
    // Mean absolute one-step (1 ms) delta should be larger for the channel
    // with the shorter coherence time.
    auto roughness = [](channel_profile p, std::uint64_t seed) {
        fading_channel ch(std::move(p), sim::rng(seed));
        double prev = ch.snr_db(0), acc = 0.0;
        for (int i = 1; i <= 20000; ++i) {
            const double s = ch.snr_db(sim::from_ms(i));
            acc += std::abs(s - prev);
            prev = s;
        }
        return acc / 20000.0;
    };
    EXPECT_GT(roughness(channel_profile::vehicular(), 3),
              2.0 * roughness(channel_profile::pedestrian(), 3));
}

TEST(fading, memoized_steps_and_mcs_match_the_direct_process)
{
    // Query gaps as a backlogged UE sees them under DDDSU (1, 1, 1, 2
    // slots), then irregular ones, against an unmemoized OU recursion on the
    // same seed: every SNR and MCS must be bit-identical.
    const channel_profile p = channel_profile::mobile(12.0);
    fading_channel ch(p, sim::rng(9));
    sim::rng ref_rng(9);
    double ref = p.mean_snr_db;
    sim::tick t = 0;
    const sim::tick slot = sim::from_us(500);
    for (int i = 0; i < 4000; ++i) {
        const sim::tick dt = i < 2000 ? (i % 4 == 3 ? 2 : 1) * slot
                                      : ((i * 7919) % 13 + 1) * slot / 3;
        t += dt;
        const double rho = std::exp(-static_cast<double>(dt) / static_cast<double>(p.coherence));
        ref = p.mean_snr_db + rho * (ref - p.mean_snr_db) +
              ref_rng.normal(0.0, p.sigma_db * std::sqrt(1.0 - rho * rho));
        ASSERT_EQ(ch.mcs(t), mcs_from_snr(ref)) << "query " << i;
        ASSERT_EQ(ch.snr_db(t), ref) << "query " << i;
    }
}

TEST(fading, time_must_not_rewind_state)
{
    fading_channel ch(channel_profile::vehicular(), sim::rng(4));
    const double a = ch.snr_db(sim::from_ms(100));
    // Same or earlier time returns the cached value without advancing.
    EXPECT_DOUBLE_EQ(ch.snr_db(sim::from_ms(100)), a);
    EXPECT_DOUBLE_EQ(ch.snr_db(sim::from_ms(50)), a);
}

TEST(fading, coherence_time_controls_autocorrelation)
{
    // Sampled at lag = coherence, autocorrelation ~ exp(-1); at lag >>
    // coherence it should be near zero.
    channel_profile p = channel_profile::vehicular(12.0);
    fading_channel ch(p, sim::rng(5));
    std::vector<double> xs;
    for (int i = 0; i < 40000; ++i) xs.push_back(ch.snr_db(i * sim::from_ms(1)));

    auto autocorr = [&](int lag_ms) {
        double m = 0;
        for (double v : xs) m += v;
        m /= static_cast<double>(xs.size());
        double num = 0, den = 0;
        for (std::size_t i = 0; i + static_cast<std::size_t>(lag_ms) < xs.size(); ++i)
            num += (xs[i] - m) * (xs[i + static_cast<std::size_t>(lag_ms)] - m);
        for (double v : xs) den += (v - m) * (v - m);
        return num / den;
    };
    EXPECT_NEAR(autocorr(25), std::exp(-1.0), 0.12);  // ~coherence (24.9 ms)
    EXPECT_LT(autocorr(250), 0.15);
}
