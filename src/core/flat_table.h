// Open-addressed flat hash table for the L4Span per-DRB / per-flow state.
//
// std::unordered_map costs a heap node per entry and a pointer chase per
// lookup; on the marking hot path (one drbs_/flows_ probe per packet and
// per feedback report) that is most of the lookup cost. This table keeps
// keys and values in two parallel arrays with linear probing, tombstoned
// erase, and power-of-two growth at 7/8 occupancy. Iteration order is
// unspecified (as it was for unordered_map) — every deterministic consumer
// in l4span sorts afterwards.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace l4span::core {

template <class K, class V, class Hash>
class flat_table {
public:
    flat_table() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V* find(const K& key)
    {
        if (cap_ == 0) return nullptr;
        std::size_t i = Hash{}(key)&mask_;
        for (;;) {
            if (ctrl_[i] == k_empty) return nullptr;
            if (ctrl_[i] == k_full && keys_[i] == key) return &vals_[i];
            i = (i + 1) & mask_;
        }
    }
    const V* find(const K& key) const
    {
        return const_cast<flat_table*>(this)->find(key);
    }

    // Inserts a default-constructed value if absent; returns (value, inserted).
    std::pair<V*, bool> try_emplace(const K& key)
    {
        maybe_grow();
        std::size_t i = Hash{}(key)&mask_;
        std::size_t first_tomb = k_npos;
        for (;;) {
            if (ctrl_[i] == k_empty) {
                const std::size_t at = first_tomb != k_npos ? first_tomb : i;
                if (first_tomb != k_npos) --tombs_;
                ctrl_[at] = k_full;
                keys_[at] = key;  // vals_[at] is V{}, as in every non-full slot
                ++size_;
                return {&vals_[at], true};
            }
            if (ctrl_[i] == k_tomb) {
                if (first_tomb == k_npos) first_tomb = i;
            } else if (keys_[i] == key) {
                return {&vals_[i], false};
            }
            i = (i + 1) & mask_;
        }
    }

    V& operator[](const K& key) { return *try_emplace(key).first; }

    bool erase(const K& key)
    {
        if (cap_ == 0) return false;
        std::size_t i = Hash{}(key)&mask_;
        for (;;) {
            if (ctrl_[i] == k_empty) return false;
            if (ctrl_[i] == k_full && keys_[i] == key) {
                ctrl_[i] = k_tomb;
                vals_[i] = V{};
                ++tombs_;
                --size_;
                return true;
            }
            i = (i + 1) & mask_;
        }
    }

    template <class Fn>
    void for_each(Fn&& fn)
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (ctrl_[i] == k_full) fn(keys_[i], vals_[i]);
    }
    template <class Fn>
    void for_each(Fn&& fn) const
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (ctrl_[i] == k_full) fn(keys_[i], vals_[i]);
    }

    void clear()
    {
        ctrl_.assign(ctrl_.size(), k_empty);
        for (auto& v : vals_) v = V{};
        size_ = 0;
        tombs_ = 0;
    }

private:
    static constexpr std::uint8_t k_empty = 0, k_full = 1, k_tomb = 2;
    static constexpr std::size_t k_npos = static_cast<std::size_t>(-1);

    void maybe_grow()
    {
        if (cap_ != 0 && (size_ + tombs_ + 1) * 8 <= cap_ * 7) return;
        // Double only when live entries need the room; under tombstone
        // pressure rehash at the same capacity instead. Erase-heavy users
        // would otherwise double the table forever on dead slots.
        const std::size_t new_cap =
            cap_ == 0 ? 16 : ((size_ + 1) * 2 > cap_ ? cap_ * 2 : cap_);
        std::vector<std::uint8_t> ctrl(new_cap, k_empty);
        std::vector<K> keys(new_cap);
        std::vector<V> vals(new_cap);
        const std::size_t new_mask = new_cap - 1;
        for (std::size_t i = 0; i < cap_; ++i) {
            if (ctrl_[i] != k_full) continue;
            std::size_t j = Hash{}(keys_[i]) & new_mask;
            while (ctrl[j] == k_full) j = (j + 1) & new_mask;
            ctrl[j] = k_full;
            keys[j] = std::move(keys_[i]);
            vals[j] = std::move(vals_[i]);
        }
        ctrl_ = std::move(ctrl);
        keys_ = std::move(keys);
        vals_ = std::move(vals);
        cap_ = new_cap;
        mask_ = new_mask;
        tombs_ = 0;
    }

    std::vector<std::uint8_t> ctrl_;
    std::vector<K> keys_;
    std::vector<V> vals_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

// Mixer for small integer keys ((ue<<8)|drb): identity hashing would cluster
// sequential RNTIs into one probe run.
struct u32_mix_hash {
    std::size_t operator()(std::uint32_t x) const
    {
        std::uint64_t h = x;
        h *= 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
        return static_cast<std::size_t>(h);
    }
};

}  // namespace l4span::core
