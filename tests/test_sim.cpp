// Event loop: ordering, cancellation, determinism. Random streams: the
// engine and transforms against the standard and libstdc++.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>
#ifdef __GLIBCXX__
#include <random>
#endif

#include "sim/event_loop.h"
#include "sim/rng.h"

using namespace l4span::sim;

TEST(event_loop, fires_in_time_order)
{
    event_loop loop;
    std::vector<int> order;
    loop.schedule_at(from_ms(30), [&] { order.push_back(3); });
    loop.schedule_at(from_ms(10), [&] { order.push_back(1); });
    loop.schedule_at(from_ms(20), [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), from_ms(30));
}

TEST(event_loop, equal_times_fire_in_schedule_order)
{
    event_loop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) loop.schedule_at(from_ms(5), [&, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(event_loop, run_until_stops_at_boundary)
{
    event_loop loop;
    int fired = 0;
    loop.schedule_at(from_ms(10), [&] { ++fired; });
    loop.schedule_at(from_ms(20), [&] { ++fired; });
    loop.schedule_at(from_ms(30), [&] { ++fired; });
    loop.run_until(from_ms(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(loop.now(), from_ms(20));
    loop.run_until(from_ms(40));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(loop.now(), from_ms(40));
}

TEST(event_loop, cancel_prevents_firing)
{
    event_loop loop;
    int fired = 0;
    const auto id = loop.schedule_at(from_ms(10), [&] { ++fired; });
    loop.schedule_at(from_ms(20), [&] { ++fired; });
    loop.cancel(id);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.processed(), 1u);
}

TEST(event_loop, cancel_unknown_id_is_noop)
{
    event_loop loop;
    loop.cancel(12345);
    loop.schedule_after(from_ms(1), [] {});
    loop.run();
    SUCCEED();
}

TEST(event_loop, events_scheduled_during_run_execute)
{
    event_loop loop;
    int fired = 0;
    loop.schedule_at(from_ms(10), [&] {
        loop.schedule_after(from_ms(5), [&] { ++fired; });
    });
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), from_ms(15));
}

TEST(event_loop, past_times_clamp_to_now)
{
    event_loop loop;
    loop.schedule_at(from_ms(10), [&] {
        loop.schedule_at(from_ms(1), [&] { EXPECT_EQ(loop.now(), from_ms(10)); });
    });
    loop.run();
}

TEST(event_loop, schedule_after_negative_clamps_to_zero)
{
    event_loop loop;
    bool fired = false;
    loop.schedule_after(-5, [&] { fired = true; });
    loop.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(loop.now(), 0);
}

TEST(time, conversions_roundtrip)
{
    EXPECT_EQ(from_ms(1.5), 1'500'000);
    EXPECT_DOUBLE_EQ(to_ms(from_ms(123.25)), 123.25);
    EXPECT_DOUBLE_EQ(to_sec(from_sec(2.5)), 2.5);
    EXPECT_EQ(from_us(3), 3'000);
}

TEST(time, tx_time_matches_rate)
{
    // 1500 bytes at 12 Mbit/s = 1 ms.
    EXPECT_EQ(tx_time(1500, 12e6), from_ms(1));
    // Zero rate is "never" but must not divide by zero.
    EXPECT_GT(tx_time(1, 0.0), from_sec(100));
}

TEST(rng, deterministic_for_seed)
{
    rng a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(rng, bernoulli_extremes)
{
    rng r(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(rng, normal_moments)
{
    rng r(3);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double stddev = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(stddev, 2.0, 0.1);
}

TEST(rng, fork_decorrelates_streams)
{
    rng parent(9);
    rng child = parent.fork();
    // Streams should differ (probability of coincidence is negligible).
    bool any_diff = false;
    rng parent2(9);
    for (int i = 0; i < 10; ++i)
        if (parent2.uniform() != child.uniform()) any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(rng, ten_thousandth_draw_matches_the_standard)
{
    // [rand.predef]: the 10000th output of a default-seeded (5489)
    // mt19937_64 is fixed by the standard.
    rng r(5489);
    for (int i = 0; i < 9999; ++i) r.next_u64();
    EXPECT_EQ(r.next_u64(), 9981545732273789042ull);
}

TEST(rng, uniform_int_rejects_inverted_range)
{
    rng r(1);
    EXPECT_THROW(r.uniform_int(1, 0), std::invalid_argument);
    EXPECT_EQ(r.uniform_int(4, 4), 4);
}

// The first outputs of each transform for one seed, captured from
// std::mt19937_64 and libstdc++ 12's distributions. They hold on any standard
// library; normal() and exponential() also go through libm's log.
TEST(rng, golden_vectors)
{
    const std::uint64_t seed = 20250917;
    const auto draw8 = [&](auto f) {
        rng r(seed);
        std::vector<decltype(f(r))> out;
        for (int i = 0; i < 8; ++i) out.push_back(f(r));
        return out;
    };
    EXPECT_EQ(draw8([](rng& r) { return r.next_u64(); }),
              (std::vector<std::uint64_t>{
                  0xe37aefe0c310cb19ull, 0xb6390513b7061f39ull, 0x2d649d8702521126ull,
                  0x01234c813b8b4e30ull, 0x52e3838d2fe754f5ull, 0x6a4ee3ba1a1c1b04ull,
                  0x2ebde4104aacb00cull, 0x1a58db481208f03full}));
    EXPECT_EQ(draw8([](rng& r) { return r.uniform(); }),
              (std::vector<double>{0x1.c6f5dfc186219p-1, 0x1.6c720a276e0c4p-1,
                                   0x1.6b24ec3812909p-3, 0x1.234c813b8b4e3p-8,
                                   0x1.4b8e0e34bf9d5p-2, 0x1.a93b8ee868707p-2,
                                   0x1.75ef208255658p-3, 0x1.a58db481208fp-4}));
    EXPECT_EQ(draw8([](rng& r) { return r.uniform(-3.0, 7.5); }),
              (std::vector<double>{0x1.9522b5ae000cp+2, 0x1.1e55ad53c0701p+2,
                                   -0x1.235f89f667a24p+0, -0x1.7a06ae598764ap+1,
                                   0x1.99539529dbf4p-2, 0x1.5c3c572212274p+0,
                                   -0x1.15362554efeacp+0, -0x1.eb5b018b42a22p+0}));
    EXPECT_EQ(draw8([](rng& r) { return r.normal(1.5, 4.0); }),
              (std::vector<double>{0x1.6b2e63d9850afp+1, -0x1.dbf7d983aa7dcp+0,
                                   0x1.0ca1c587fffdap+2, 0x1.ba3ba3cb19178p-3,
                                   -0x1.bf99ee4927748p-1, -0x1.97aa127acc7e4p+0,
                                   0x1.d2255b21fe41ep+1, -0x1.858aa168ca176p+2}));
    // At this mean, `* mean` in place of `/ (1 / mean)` moves two of the eight.
    EXPECT_EQ(draw8([](rng& r) { return r.exponential(0.1); }),
              (std::vector<double>{0x1.c1732d93b9d22p-3, 0x1.fd9826a15c403p-4,
                                   0x1.3fc9fed61688dp-6, 0x1.d31df7d11248ap-12,
                                   0x1.408192d40110ap-5, 0x1.b794e63a03fb5p-5,
                                   0x1.4a50ad2489bc3p-6, 0x1.63e351cc1e6d5p-7}));
    EXPECT_EQ(draw8([](rng& r) { return r.uniform_int(-5, 1000); }),
              (std::vector<std::int64_t>{888, 711, 173, -1, 320, 412, 178, 98}));
    EXPECT_EQ(draw8([](rng& r) { return r.bernoulli(0.3); }),
              (std::vector<bool>{false, false, true, true, false, false, true, true}));
    rng parent(seed);
    rng child = parent.fork();
    std::vector<double> forked;
    for (int i = 0; i < 8; ++i) forked.push_back(child.uniform());
    EXPECT_EQ(forked, (std::vector<double>{0x1.5d05a21d14e77p-1, 0x1.7a9ef8db5278bp-1,
                                           0x1.31554f55d7e09p-1, 0x1.b8bbb4f72f59bp-5,
                                           0x1.94af62dd6132dp-1, 0x1.13567f4114283p-2,
                                           0x1.2494356414ce9p-1, 0x1.d47532862fa79p-1}));
}

#ifdef __GLIBCXX__
// sim::rng reproduces std::mt19937_64 and libstdc++'s distributions bit for
// bit, so outcomes recorded with the standard library stay valid.
TEST(rng, matches_libstdcxx_engine_and_distributions)
{
    constexpr int k_draws = 100000;
    constexpr std::int64_t k_min = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t k_max = std::numeric_limits<std::int64_t>::max();
    for (const std::uint64_t seed : {1ull, 5489ull, 0xdeadbeefcafef00dull}) {
        const auto same = [&](const char* what, auto ours, auto theirs) {
            rng r(seed);
            std::mt19937_64 e(seed);
            int mismatches = 0;
            for (int i = 0; i < k_draws; ++i)
                if (ours(r) != theirs(e)) ++mismatches;
            EXPECT_EQ(mismatches, 0) << what << ", seed " << seed;
        };
        same("raw", [](rng& r) { return r.next_u64(); },
             [](std::mt19937_64& e) { return e(); });
        same("uniform", [](rng& r) { return r.uniform(); },
             [](std::mt19937_64& e) {
                 return std::uniform_real_distribution<double>(0.0, 1.0)(e);
             });
        same("uniform(-3, 7.5)", [](rng& r) { return r.uniform(-3.0, 7.5); },
             [](std::mt19937_64& e) {
                 return std::uniform_real_distribution<double>(-3.0, 7.5)(e);
             });
        for (const auto& [mean, sd] :
             {std::pair{0.0, 1.0}, std::pair{1.5, 4.0}, std::pair{-70.0, 0.01}})
            same("normal", [&](rng& r) { return r.normal(mean, sd); },
                 [&](std::mt19937_64& e) {
                     return std::normal_distribution<double>(mean, sd)(e);
                 });
        for (const double mean : {0.25, 1.0, 3e-3})
            same("exponential", [&](rng& r) { return r.exponential(mean); },
                 [&](std::mt19937_64& e) {
                     return std::exponential_distribution<double>(1.0 / mean)(e);
                 });
        using range = std::pair<std::int64_t, std::int64_t>;
        const std::int64_t big = std::int64_t{1} << 62;
        for (const auto& [lo, hi] : {range{7, 7}, range{0, 1}, range{0, 2},
                                     range{-5, 1000}, range{-big, big},
                                     range{k_min, k_max}})
            same("uniform_int", [&](rng& r) { return r.uniform_int(lo, hi); },
                 [&](std::mt19937_64& e) {
                     return std::uniform_int_distribution<std::int64_t>(lo, hi)(e);
                 });
    }
}
#endif
