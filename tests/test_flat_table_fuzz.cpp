// Differential fuzz of core::flat_table against std::unordered_map. Random
// streams of try_emplace / operator[] / find / erase / clear run on both,
// and after every operation the table must agree with the model on size(),
// on the looked-up key and value, and on the key/value set for_each visits.
//
// Keys come from a small domain, so one stream inserts and erases the same
// keys many times: tombstones are reused, the table rehashes in place under
// tombstone pressure and doubles at 7/8 occupancy. The suite runs with the
// L4Span mixer (u32_mix_hash) and with a hash that puts every key into the
// last three slots, so probe runs are long and wrap past the array's end.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/flat_table.h"

using l4span::core::flat_table;
using l4span::core::u32_mix_hash;

namespace {

std::uint64_t splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class prng {
public:
    explicit prng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() { return s_ = splitmix64(s_); }
    std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }

private:
    std::uint64_t s_;
};

// Three home slots at the top of the table: every probe run collides and
// wraps around to slot 0.
struct colliding_hash {
    std::size_t operator()(std::uint32_t x) const
    {
        return static_cast<std::size_t>(-1) - x % 3;
    }
};

template <class Hash>
void run_stream(std::uint64_t seed, std::uint32_t domain, int steps)
{
    flat_table<std::uint32_t, std::uint64_t, Hash> table;
    std::unordered_map<std::uint32_t, std::uint64_t> model;
    prng rng(seed);
    std::uint64_t next_value = 1;

    for (int step = 0; step < steps; ++step) {
        const std::uint32_t key = rng.below(domain);
        const std::uint32_t op = rng.below(100);
        std::string what;
        if (op < 35) {
            what = "try_emplace";
            const auto [v, inserted] = table.try_emplace(key);
            ASSERT_EQ(inserted, model.count(key) == 0) << what;
            ASSERT_EQ(*v, inserted ? 0 : model.at(key)) << what;
            *v = next_value;
            model[key] = next_value++;
        } else if (op < 45) {
            what = "operator[]";
            const bool present = model.count(key) != 0;
            ASSERT_EQ(table[key], present ? model.at(key) : 0) << what;
            model[key];  // the table default-constructed it too
        } else if (op < 75) {
            what = "erase";
            ASSERT_EQ(table.erase(key), model.erase(key) == 1) << what;
        } else if (op < 99) {
            what = "find";
            const auto it = model.find(key);
            const std::uint64_t* v = std::as_const(table).find(key);
            ASSERT_EQ(v != nullptr, it != model.end()) << what;
            if (v) {
                ASSERT_EQ(*v, it->second) << what;
            }
        } else {
            what = "clear";
            table.clear();
            model.clear();
        }

        ASSERT_EQ(table.size(), model.size()) << what << " at step " << step;
        ASSERT_EQ(table.empty(), model.empty()) << what << " at step " << step;
        std::map<std::uint32_t, std::uint64_t> seen;
        table.for_each([&](const std::uint32_t& k, std::uint64_t& v) {
            EXPECT_TRUE(seen.emplace(k, v).second) << "key " << k << " visited twice";
        });
        const std::map<std::uint32_t, std::uint64_t> want(model.begin(), model.end());
        ASSERT_EQ(seen, want) << what << " at step " << step;
        // Every key of the domain, present or not, looks up as in the model.
        for (std::uint32_t k = 0; k < domain; ++k) {
            const auto it = model.find(k);
            const std::uint64_t* v = table.find(k);
            ASSERT_EQ(v != nullptr, it != model.end()) << "key " << k << " after " << what;
            if (v) {
                ASSERT_EQ(*v, it->second) << "key " << k << " after " << what;
            }
        }
    }
}

// Domains below, around and above the first growth points (14 live slots
// of 16, 28 of 32, ...), each with a few fixed seeds.
constexpr std::uint32_t k_domains[] = {5, 15, 31, 100};
constexpr std::uint64_t k_seeds[] = {1, 2, 3, 0x5eed, 0xfeedbeef};
constexpr int k_steps = 3000;

}  // namespace

TEST(flat_table_fuzz, matches_unordered_map_with_mixed_hash)
{
    for (const std::uint32_t domain : k_domains)
        for (const std::uint64_t seed : k_seeds) {
            SCOPED_TRACE("domain " + std::to_string(domain) + " seed " +
                         std::to_string(seed));
            ASSERT_NO_FATAL_FAILURE(run_stream<u32_mix_hash>(seed, domain, k_steps));
        }
}

TEST(flat_table_fuzz, matches_unordered_map_with_colliding_hash)
{
    for (const std::uint32_t domain : k_domains)
        for (const std::uint64_t seed : k_seeds) {
            SCOPED_TRACE("domain " + std::to_string(domain) + " seed " +
                         std::to_string(seed));
            ASSERT_NO_FATAL_FAILURE(run_stream<colliding_hash>(seed, domain, k_steps));
        }
}
