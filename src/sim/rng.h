// Seeded random source. Every stochastic component owns one, derived from a
// scenario master seed, so experiments are reproducible.
//
// The engine and the transforms are written out here rather than taken from
// the standard library, so a seed yields the same values with any C++
// standard library. Each one reproduces, bit for bit, what libstdc++ 12
// (the toolchain that produced the committed goldens) returns for the
// standard engine and distribution named in its comment. The only platform
// dependency left is libm's `log` in normal() and exponential().
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace l4span::sim {

class rng {
public:
    // The standard's seeding: x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i.
    explicit rng(std::uint64_t seed = 1)
    {
        state_[0] = seed;
        for (std::size_t i = 1; i < k_n; ++i) {
            const std::uint64_t prev = state_[i - 1];
            state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
        }
    }

    // The engine's next raw 64-bit output. The engine is MT19937-64
    // (Nishimura, "Tables of 64-bit Mersenne Twisters", TOMACS 2000) with
    // the standard's [rand.predef] parameters: the 10000th output of a
    // 5489-seeded engine is 9981545732273789042.
    std::uint64_t next_u64()
    {
        if (pos_ >= k_n) refill();
        std::uint64_t z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

    // Uniform in [0, 1). generate_canonical<double, 53> over a 64-bit
    // engine takes one draw and divides by 2^64; a draw that rounds up to
    // 1.0 is replaced by the largest double below 1, nextafter(1.0, 0.0).
    // The draw is converted as two exact 32-bit halves whose sum rounds
    // once, which equals double(x) * 2^-64 but needs no branch on the top
    // bit (a 64-bit unsigned conversion mispredicts on half the draws).
    double uniform()
    {
        const std::uint64_t x = next_u64();
        const double u = static_cast<double>(x >> 32) * 0x1p-32 +
                         static_cast<double>(x & 0xffffffffu) * 0x1p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

    // Uniform in [lo, hi), as the standard's uniform real distribution.
    double uniform(double lo, double hi) { return uniform() * (hi - lo) + lo; }

    // Uniform integer in [lo, hi], as libstdc++'s uniform int distribution
    // draws it: Lemire's nearly divisionless downscale (Lemire, "Fast Random
    // Integer Generation in an Interval", ACM TOMACS 29(1), 2019) over a
    // 128-bit product; the full 64-bit range returns the raw draw. lo > hi
    // is rejected, where the standard leaves it undefined.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi)
    {
        if (lo > hi) throw std::invalid_argument("rng::uniform_int: lo > hi");
        using u128 = unsigned __int128;
        const auto base = static_cast<std::uint64_t>(lo);
        const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
        if (range == ~std::uint64_t{0})
            return static_cast<std::int64_t>(next_u64() + base);
        const std::uint64_t span = range + 1;
        u128 product = u128{next_u64()} * span;
        auto low = static_cast<std::uint64_t>(product);
        if (low < span) {
            const std::uint64_t threshold = -span % span;
            while (low < threshold) {
                product = u128{next_u64()} * span;
                low = static_cast<std::uint64_t>(product);
            }
        }
        const auto ret = static_cast<std::uint64_t>(product >> 64);
        return static_cast<std::int64_t>(ret + base);
    }

    // Normal(mean, stddev) by Marsaglia's polar method, as libstdc++'s
    // normal distribution draws it when a fresh one is made per call: the
    // second variate of each pair is discarded.
    double normal(double mean, double stddev)
    {
        if (stddev <= 0.0) return mean;
        for (;;) {
            const double x = 2.0 * uniform() - 1.0;
            const double y = 2.0 * uniform() - 1.0;
            const double r2 = x * x + y * y;
            if (r2 > 1.0 || r2 == 0.0) continue;
            return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
        }
    }

    // Exponential with the given mean, as libstdc++'s exponential
    // distribution draws it with rate 1 / mean. The rate is divided by, not
    // the mean multiplied by: the two differ in the last bit.
    double exponential(double mean)
    {
        if (mean <= 0.0) return 0.0;
        const double lambda = 1.0 / mean;
        return -std::log(1.0 - uniform()) / lambda;
    }

    bool bernoulli(double p)
    {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    // Derives an independent child stream (for per-UE / per-flow components).
    rng fork() { return rng(next_u64() ^ 0x9e3779b97f4a7c15ull); }

private:
    static constexpr std::size_t k_n = 312;  // state words
    static constexpr std::size_t k_m = 156;  // twist offset
    static constexpr std::uint64_t k_matrix_a = 0xb5026f5aa96619e9ull;
    static constexpr std::uint64_t k_upper_mask = ~std::uint64_t{0} << 31;
    static constexpr std::uint64_t k_lower_mask = ~k_upper_mask;

    // The recurrence on the upper 33 bits of `hi` and the lower 31 bits of `lo`,
    // with the conditional XOR of the twist matrix written branch-free.
    static std::uint64_t twist(std::uint64_t from, std::uint64_t hi, std::uint64_t lo)
    {
        const std::uint64_t y = (hi & k_upper_mask) | (lo & k_lower_mask);
        return from ^ (y >> 1) ^ ((0 - (y & 1)) & k_matrix_a);
    }

    // One full-state regeneration, split at the points where the index
    // k + k_m wraps so that each loop is straight-line and vectorizable.
    void refill()
    {
        for (std::size_t k = 0; k < k_n - k_m; ++k)
            state_[k] = twist(state_[k + k_m], state_[k], state_[k + 1]);
        for (std::size_t k = k_n - k_m; k < k_n - 1; ++k)
            state_[k] = twist(state_[k + k_m - k_n], state_[k], state_[k + 1]);
        state_[k_n - 1] = twist(state_[k_m - 1], state_[k_n - 1], state_[0]);
        pos_ = 0;
    }

    std::uint64_t state_[k_n];  // filled by the constructor
    std::size_t pos_ = k_n;     // next word to temper; k_n: refill first
};

}  // namespace l4span::sim
