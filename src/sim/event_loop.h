// Deterministic discrete-event loop.
//
// Events scheduled at equal times fire in scheduling order, so runs are
// reproducible bit-for-bit for a given seed set.
//
// The hot path is allocation-free: pending events live in a slab of pooled
// records recycled through a free list, and handlers are stored in a small-
// buffer-optimized `callback` whose inline buffer is sized so the
// simulator's largest common capture (a `this` pointer plus a `net::packet`
// by value) never touches the heap. Steady-state memory is bounded by the
// *peak pending* event count, not by the total number of events ever
// scheduled.
//
// The ready queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). Nothing is scheduled before the last time popped,
// `last_`, so a key is filed under bucket bit_width(key ^ last_) and only
// the lowest occupied bucket is ever redistributed; the cost does not depend
// on how many events share a timestamp. Equal keys always share a bucket and
// no step reorders a bucket, so equal-time events stay FIFO: the old
// (when, seq) order. See ARCHITECTURE.md, "The event loop".
//
// Thread-safety contract: an event_loop is single-threaded by design — one
// loop per thread, no internal locking. Parallel experiments give every
// scenario its own loop (see scenario::grid_runner).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace l4span::sim {

// Move-only callable with a small-buffer optimization. Captures up to
// `k_inline_bytes` are stored inline; larger ones fall back to a single
// heap allocation. Replaces std::function on the event hot path, where the
// type-erased copyable machinery and its allocation policy cost more than
// the handler bodies themselves.
class callback {
public:
    // Inline capacity: `this` + a by-value net::packet (~120 bytes) with room
    // to spare, so every handler the simulator schedules today stays inline.
    static constexpr std::size_t k_inline_bytes = 152;

    callback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, callback> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    callback(F&& f)  // NOLINT(google-explicit-constructor): handler sink
    {
        using fn_t = std::decay_t<F>;
        if constexpr (sizeof(fn_t) <= k_inline_bytes &&
                      alignof(fn_t) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(buf_)) fn_t(std::forward<F>(f));
            vt_ = &inline_vtable<fn_t>;
        } else {
            *reinterpret_cast<fn_t**>(buf_) = new fn_t(std::forward<F>(f));
            vt_ = &heap_vtable<fn_t>;
        }
    }

    callback(callback&& other) noexcept { move_from(other); }
    callback& operator=(callback&& other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }
    callback(const callback&) = delete;
    callback& operator=(const callback&) = delete;
    ~callback() { reset(); }

    void operator()() { vt_->invoke(buf_); }
    explicit operator bool() const { return vt_ != nullptr; }

    void reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    // Constructs the handler in place (no temporary callback, no relocate) —
    // the schedule hot path builds handlers directly in their slab slot.
    template <typename F>
    void emplace(F&& f)
    {
        reset();
        using fn_t = std::decay_t<F>;
        if constexpr (sizeof(fn_t) <= k_inline_bytes &&
                      alignof(fn_t) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(buf_)) fn_t(std::forward<F>(f));
            vt_ = &inline_vtable<fn_t>;
        } else {
            *reinterpret_cast<fn_t**>(buf_) = new fn_t(std::forward<F>(f));
            vt_ = &heap_vtable<fn_t>;
        }
    }

private:
    struct vtable {
        void (*invoke)(void*);
        // Move-constructs into dst and destroys src (pointer steal for the
        // heap case), so relocation is one indirect call.
        void (*relocate)(void* src, void* dst) noexcept;
        void (*destroy)(void*) noexcept;
    };

    template <typename F>
    static constexpr vtable inline_vtable = {
        [](void* p) { (*static_cast<F*>(p))(); },
        [](void* src, void* dst) noexcept {
            ::new (dst) F(std::move(*static_cast<F*>(src)));
            static_cast<F*>(src)->~F();
        },
        [](void* p) noexcept { static_cast<F*>(p)->~F(); },
    };

    template <typename F>
    static constexpr vtable heap_vtable = {
        [](void* p) { (**static_cast<F**>(p))(); },
        [](void* src, void* dst) noexcept {
            *static_cast<F**>(dst) = *static_cast<F**>(src);
        },
        [](void* p) noexcept { delete *static_cast<F**>(p); },
    };

    void move_from(callback& other) noexcept
    {
        vt_ = other.vt_;
        if (vt_) {
            vt_->relocate(other.buf_, buf_);
            other.vt_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[k_inline_bytes];
    const vtable* vt_ = nullptr;
};

class event_loop {
public:
    using handler = callback;
    using event_id = std::uint64_t;

    event_loop() { min_.fill(k_no_key); }
    event_loop(const event_loop&) = delete;
    event_loop& operator=(const event_loop&) = delete;

    tick now() const { return now_; }

    // Schedules `fn` at absolute time `when` (clamped to now()). The
    // handler is constructed directly in its pooled slab record — the
    // callable is touched exactly once on the way in.
    template <typename F>
    event_id schedule_at(tick when, F&& fn)
    {
        const std::uint32_t s = alloc_slot();
        slot& e = slab_[s];
        e.fn.emplace(std::forward<F>(fn));
        push({when < now_ ? now_ : when, s, e.gen});
        ++live_;
        return make_id(s, e.gen);
    }
    event_id schedule_at(tick when, handler fn)
    {
        const std::uint32_t s = alloc_slot();
        slot& e = slab_[s];
        e.fn = std::move(fn);
        push({when < now_ ? now_ : when, s, e.gen});
        ++live_;
        return make_id(s, e.gen);
    }

    // Schedules `fn` after a relative delay (clamped to zero).
    template <typename F>
    event_id schedule_after(tick delay, F&& fn)
    {
        return schedule_at(now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
    }

    // Cancels a pending event. Cancelling an already-fired, cancelled, or
    // unknown id is a safe no-op: ids carry the slot's generation counter,
    // which is bumped whenever the slot is reclaimed, so a stale id cannot
    // hit a recycled slot — unless a caller retains an id across ~2^32
    // reuses of one slot (32-bit generation wrap). Callers clear stored ids
    // on fire/cancel (see transport::sender_control's retransmission timer),
    // keeping stale ids short-lived.
    void cancel(event_id id)
    {
        const auto s = static_cast<std::uint32_t>(id & 0xffffffffu);
        const auto gen = static_cast<std::uint32_t>(id >> 32);
        if (gen == 0 || s >= slab_.size() || slab_[s].gen != gen) return;
        release_slot(s);  // the stale queue entry is skipped on pop (gen mismatch)
        --live_;
    }

    // Runs a single event; returns false when the queue is empty.
    bool run_one()
    {
        if (!next_ready(k_no_key)) {
            // Nothing live is left. Cancelled entries may have carried last_
            // past now_; with the queue empty it drops back, so scheduling
            // at now() stays legal.
            last_ = now_;
            return false;
        }
        fire_front();
        return true;
    }

    // Runs all events with time <= `until`; afterwards now() == until.
    void run_until(tick until);

    // Drains the queue completely.
    void run();

    std::size_t pending() const { return live_; }
    std::uint64_t processed() const { return processed_; }

    // --- slab statistics (memory-boundedness regression tests) ---
    // Pooled records ever created: bounded by peak concurrent pending events.
    std::size_t slab_slots() const { return slab_.size(); }
    // Records currently on the free list, awaiting reuse.
    std::size_t free_slots() const { return slab_.size() - live_; }

private:
    static constexpr std::uint32_t k_npos = 0xffffffffu;
    static constexpr tick k_no_key = std::numeric_limits<tick>::max();
    // Keys are non-negative int64 ticks, so key ^ last_ < 2^63 and
    // bit_width() is at most 63: buckets 0..63.
    static constexpr std::size_t k_buckets = 64;

    // One pooled record per pending event. `when` lives in the queue entry;
    // the slot only holds what fire/cancel need.
    struct slot {
        callback fn;
        std::uint32_t gen = 1;  // parity with the id; never 0, so id 0 is invalid
        std::uint32_t next_free = k_npos;
    };
    // A queued event: 16 bytes, POD. A cancelled event's entry stays queued
    // (redistribution moves it without looking at the slab) and is dropped
    // when it reaches the front of rq_[0] with a stale generation.
    struct entry {
        tick when;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    static event_id make_id(std::uint32_t s, std::uint32_t gen)
    {
        return (static_cast<event_id>(gen) << 32) | s;
    }

    // Grabs a free pooled record (or grows the slab).
    std::uint32_t alloc_slot()
    {
        if (free_head_ != k_npos) {
            const std::uint32_t s = free_head_;
            free_head_ = slab_[s].next_free;
            return s;
        }
        const auto s = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
        return s;
    }

    // Reclaims a slot: drop the handler, invalidate outstanding ids/queue
    // entries by bumping the generation, and chain onto the free list.
    void release_slot(std::uint32_t s)
    {
        slot& e = slab_[s];
        e.fn.reset();
        if (++e.gen == 0) e.gen = 1;
        e.next_free = free_head_;
        free_head_ = s;
    }

    // Files `e` under the bucket of the highest bit where it differs from
    // last_ (bucket 0: equal). Needs e.when >= last_, which holds because
    // schedule_at clamps to now_ and last_ <= now_ between calls.
    void push(const entry& e)
    {
        const auto b = static_cast<std::size_t>(
            std::bit_width(static_cast<std::uint64_t>(e.when ^ last_)));
        rq_[b].push_back(e);
        if (e.when < min_[b]) min_[b] = e.when;
        occupied_ |= std::uint64_t{1} << b;  // bit 0 and min_[0] are never read
    }

    // True when the front of rq_[0] is a live event at a time <= `limit`;
    // drops cancelled entries and refills rq_[0] on the way. Never moves
    // last_ past `limit`.
    bool next_ready(tick limit)
    {
        while (true) {
            std::vector<entry>& q = rq_[0];
            for (; head_ < q.size(); ++head_)
                if (slab_[q[head_].slot].gen == q[head_].gen) return last_ <= limit;
            q.clear();
            head_ = 0;
            if (!refill(limit)) return false;
        }
    }

    // Pops and runs the front of rq_[0], which next_ready() found live.
    void fire_front()
    {
        std::vector<entry>& q = rq_[0];
        const std::uint32_t s = q[head_].slot;
        if (++head_ == q.size()) {  // keeps a zero-delay chain from growing q
            q.clear();
            head_ = 0;
        }
        now_ = last_;
        callback fn = std::move(slab_[s].fn);
        // Free the slot before invoking: a handler that reschedules (the
        // per-slot MAC tick, RTO rearm, ...) reuses its own record.
        release_slot(s);
        --live_;
        ++processed_;
        fn();
    }

    // With rq_[0] empty: makes the lowest occupied bucket's minimum the new
    // last_ and redistributes that bucket, in stored order, into strictly
    // lower buckets (its keys all agree with the minimum above bit b-1).
    // Returns false, changing nothing, when that minimum is past `limit`.
    bool refill(tick limit);

    tick now_ = 0;
    std::size_t live_ = 0;
    std::uint64_t processed_ = 0;
    std::vector<slot> slab_;
    std::uint32_t free_head_ = k_npos;

    // Ready queue: the radix heap. rq_[0] is a FIFO of the entries at
    // last_, consumed from head_; rq_[b] holds keys whose highest bit
    // differing from last_ is b-1, with minimum min_[b]; for b >= 1, bit b
    // of occupied_ is set exactly when rq_[b] is non-empty.
    tick last_ = 0;
    std::size_t head_ = 0;
    std::uint64_t occupied_ = 0;
    std::array<std::vector<entry>, k_buckets> rq_;
    std::array<tick, k_buckets> min_;
};

}  // namespace l4span::sim
