// Differential fuzz of sim::event_loop against a reference queue: a
// std::map keyed on (when, seq), the textbook strict total order that the
// loop's equal-time FIFO guarantee promises to reproduce. Random driver
// sequences of schedule / cancel / run_one / run_until / run are applied to
// both, and event handlers react identically on both sides (reschedules,
// same-tick bursts, cancels), so any divergence in fire order, now(),
// pending() or processed() fails with the seed and step that produced it.
//
// The sequences stress what the queue's bookkeeping finds hard: zero-delay
// reschedules from handlers, same-tick bursts with interleaved cancels,
// run_until(T) followed by scheduling at exactly T and in the gap before
// the next pending event, far-future keys (tx_time's 3600 s "never" and
// values near 2^62 ns), past times that clamp to now(), and cancels of ids
// that have already fired or were never issued.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/time.h"

using namespace l4span::sim;

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
    // Uniform in [lo, hi] (modulo bias is irrelevant here).
    std::int64_t in(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
    }
    bool chance(int percent) { return in(0, 99) < percent; }

private:
    std::uint64_t s_;
};

constexpr tick k_far = k_second * 3600;  // tx_time()'s "never"
constexpr tick k_huge = tick{1} << 62;

// One fuzz run: the real loop and the reference model, driven in lockstep.
// Events are identified by tags handed out in scheduling order on each
// side; as long as both sides fire in the same order, the tags agree.
class harness {
public:
    explicit harness(std::uint64_t seed) : seed_(seed) {}

    // --- driver operations, applied to both sides ---

    void schedule_at(tick when)
    {
        real_schedule(when);
        ref_schedule(when);
    }
    void schedule_after(tick delay)
    {
        real_schedule_after(delay);
        ref_schedule(ref_now_ + std::max<tick>(delay, 0));
    }
    void cancel_tag(std::uint64_t tag)
    {
        real_cancel(tag);
        ref_cancel(tag);
    }
    void cancel_raw(event_loop::event_id id) { loop_.cancel(id); }
    bool run_one()
    {
        const bool real = loop_.run_one();
        const bool ref = ref_run_one();
        EXPECT_EQ(real, ref);
        return real;
    }
    void run_until(tick until)
    {
        loop_.run_until(until);
        ref_run_until(until);
    }
    void run()
    {
        loop_.run();
        while (ref_run_one()) {
        }
    }

    // --- inspection ---

    tick now() const { return ref_now_; }
    std::uint64_t tags() const { return ids_.size(); }
    // Earliest pending time in the reference, or -1 when it is empty.
    tick next_pending() const { return ref_q_.empty() ? -1 : ref_q_.begin()->first.first; }
    // Time of a random pending reference event, or now() when empty.
    tick some_pending_time(prng& r) const
    {
        if (ref_q_.empty()) return ref_now_;
        auto it = ref_q_.begin();
        std::advance(it, r.in(0, std::min<std::int64_t>(static_cast<std::int64_t>(ref_q_.size()) - 1, 7)));
        return it->first.first;
    }

    ::testing::AssertionResult agrees(int step)
    {
        auto fail = [&](const std::string& what) {
            return ::testing::AssertionFailure()
                   << "seed " << seed_ << " step " << step << ": " << what;
        };
        if (real_fired_.size() != ref_fired_.size())
            return fail("fired " + std::to_string(real_fired_.size()) + " events, reference " +
                        std::to_string(ref_fired_.size()));
        for (std::size_t i = checked_; i < real_fired_.size(); ++i)
            if (real_fired_[i] != ref_fired_[i])
                return fail("fire #" + std::to_string(i) + " is tag " +
                            std::to_string(real_fired_[i]) + ", reference tag " +
                            std::to_string(ref_fired_[i]));
        checked_ = real_fired_.size();
        if (loop_.now() != ref_now_)
            return fail("now " + std::to_string(loop_.now()) + ", reference " +
                        std::to_string(ref_now_));
        if (loop_.pending() != ref_q_.size())
            return fail("pending " + std::to_string(loop_.pending()) + ", reference " +
                        std::to_string(ref_q_.size()));
        if (loop_.processed() != ref_processed_)
            return fail("processed " + std::to_string(loop_.processed()) + ", reference " +
                        std::to_string(ref_processed_));
        return ::testing::AssertionSuccess();
    }

    std::uint64_t fired() const { return ref_processed_; }

private:
    using key = std::pair<tick, std::uint64_t>;  // (when, seq)

    // What event `tag` does when it fires, derived from (seed, tag) alone so
    // both sides react identically. The expected number of children per
    // event is below one, so every run drains.
    template <typename Side>
    void react(Side& side, std::uint64_t tag)
    {
        const std::uint64_t h = splitmix64(seed_ * 0x100000001b3ull ^ tag);
        const tick t = side.now();
        switch (h % 10) {
        case 0:  // zero-delay reschedule
            side.schedule(t);
            break;
        case 1:  // short hop: one slot, or a few ns
            side.schedule(t + ((h >> 8) & 1 ? 500 * k_microsecond : tick((h >> 9) % 4 + 1)));
            break;
        case 2: {  // same-tick burst with an interleaved cancel
            const tick at = t + ((h >> 8) & 1 ? 0 : k_millisecond);
            side.schedule(at);
            const std::uint64_t mid = side.schedule(at);
            side.schedule(at);
            side.cancel(mid);
            break;
        }
        case 3:  // cancel a recent tag: pending, fired or already cancelled
            if (tag > 0) side.cancel(tag - 1 - (h >> 8) % std::min<std::uint64_t>(tag, 6));
            break;
        case 4:  // past time: clamps to now
            side.schedule(t - tick((h >> 8) % 1000));
            break;
        case 5:  // far future, then cancelled half of the time
            if (const std::uint64_t c = side.schedule(t + k_far); (h >> 8) & 1) side.cancel(c);
            break;
        default:
            break;
        }
    }

    // The real side as seen by react().
    struct real_side {
        harness& h;
        tick now() const { return h.loop_.now(); }
        std::uint64_t schedule(tick when) { return h.real_schedule(when); }
        void cancel(std::uint64_t tag) { h.real_cancel(tag); }
    };
    struct ref_side {
        harness& h;
        tick now() const { return h.ref_now_; }
        std::uint64_t schedule(tick when) { return h.ref_schedule(when); }
        void cancel(std::uint64_t tag) { h.ref_cancel(tag); }
    };

    std::uint64_t real_schedule(tick when)
    {
        const std::uint64_t tag = ids_.size();
        ids_.push_back(loop_.schedule_at(when, [this, tag] { real_fire(tag); }));
        return tag;
    }
    std::uint64_t real_schedule_after(tick delay)
    {
        const std::uint64_t tag = ids_.size();
        ids_.push_back(loop_.schedule_after(delay, [this, tag] { real_fire(tag); }));
        return tag;
    }
    void real_cancel(std::uint64_t tag)
    {
        if (tag < ids_.size()) loop_.cancel(ids_[tag]);
    }
    void real_fire(std::uint64_t tag)
    {
        real_fired_.push_back(tag);
        real_side side{*this};
        react(side, tag);
    }

    std::uint64_t ref_schedule(tick when)
    {
        const std::uint64_t tag = ref_keys_.size();
        const key k{std::max(when, ref_now_), ref_seq_++};
        ref_q_.emplace(k, tag);
        ref_keys_.push_back(k);
        return tag;
    }
    void ref_cancel(std::uint64_t tag)
    {
        if (tag < ref_keys_.size()) ref_q_.erase(ref_keys_[tag]);
    }
    bool ref_run_one()
    {
        if (ref_q_.empty()) return false;
        const auto it = ref_q_.begin();
        const std::uint64_t tag = it->second;
        ref_now_ = it->first.first;
        ref_q_.erase(it);
        ++ref_processed_;
        ref_fired_.push_back(tag);
        ref_side side{*this};
        react(side, tag);
        return true;
    }
    void ref_run_until(tick until)
    {
        while (!ref_q_.empty() && ref_q_.begin()->first.first <= until) ref_run_one();
        if (ref_now_ < until) ref_now_ = until;
    }

    std::uint64_t seed_;

    event_loop loop_;
    std::vector<event_loop::event_id> ids_;  // by tag
    std::vector<std::uint64_t> real_fired_;

    tick ref_now_ = 0;
    std::uint64_t ref_seq_ = 0;
    std::uint64_t ref_processed_ = 0;
    std::map<key, std::uint64_t> ref_q_;  // (when, seq) -> tag
    std::vector<key> ref_keys_;           // by tag
    std::vector<std::uint64_t> ref_fired_;

    std::size_t checked_ = 0;
};

// A driver-chosen absolute time, mixing every key shape the loop must order.
tick pick_time(prng& r, const harness& h, const std::vector<tick>& hot)
{
    const tick now = h.now();
    switch (r.in(0, 9)) {
    case 0: return now;                                      // zero delay
    case 1: return now + r.in(1, 2000);                      // distinct, dense
    case 2: return now + r.in(1, 20) * 500 * k_microsecond;  // slot grid
    case 3: return hot[static_cast<std::size_t>(r.in(0, 3))];  // same-tick burst
    case 4: return now - r.in(1, 5 * k_millisecond);         // past: clamps
    case 5: return now + k_far;                              // tx_time "never"
    case 6: return k_huge - r.in(0, 1000);                   // near 2^62 ns
    case 7: return now + r.in(1, 1 << 20) * r.in(1, 1 << 20);  // wide spread
    default: return now + r.in(0, 3 * k_millisecond);
    }
}

void fuzz_one(std::uint64_t seed, int steps)
{
    prng r(seed);
    harness h(seed);
    std::vector<tick> hot(4);
    for (int step = 0; step < steps; ++step) {
        if (step % 64 == 0)
            for (tick& t : hot) t = h.now() + r.in(0, 4) * 250 * k_microsecond;
        const int op = static_cast<int>(r.in(0, 99));
        if (op < 30) {
            h.schedule_at(pick_time(r, h, hot));
        } else if (op < 34) {
            h.schedule_after(r.in(-2000, 2000));
        } else if (op < 38) {
            // Same-tick burst from the driver with interleaved cancels.
            const tick at = pick_time(r, h, hot);
            const std::uint64_t first = h.tags();
            const int n = static_cast<int>(r.in(2, 6));
            for (int i = 0; i < n; ++i) {
                h.schedule_at(at);
                if (r.chance(30)) h.cancel_tag(first + static_cast<std::uint64_t>(r.in(0, i)));
            }
        } else if (op < 46) {
            // Any tag: pending, already fired or already cancelled.
            if (h.tags() > 0) h.cancel_tag(static_cast<std::uint64_t>(r.in(0, static_cast<std::int64_t>(h.tags()) - 1)));
        } else if (op < 48) {
            // Ids the loop never issued: generation 0, or a slot past the slab.
            h.cancel_raw(r.chance(50) ? 0 : (r.next() << 32) | 0xfffffff0u);
        } else if (op < 72) {
            h.run_one();
        } else if (op < 94) {
            const tick next = h.next_pending();
            tick until;
            switch (r.in(0, 5)) {
            case 0: until = h.now() - r.in(0, 1000); break;  // behind now
            case 1: until = h.now(); break;
            case 2: until = next < 0 ? h.now() : next; break;  // exactly the next event
            case 3: until = next <= h.now() ? h.now() : next - r.in(1, next - h.now()); break;
            case 4: until = h.now() + r.in(0, 10 * k_millisecond); break;
            default: until = next < 0 ? h.now() + k_far : h.some_pending_time(r); break;
            }
            h.run_until(until);
            if (r.chance(60)) {
                // Schedule at exactly T, and in the gap before the next event.
                h.schedule_at(h.now());
                const tick gap_end = h.next_pending();
                if (gap_end > h.now() + 1) h.schedule_at(h.now() + r.in(1, gap_end - h.now() - 1));
                if (r.chance(30)) h.schedule_after(0);
            }
        } else if (op < 96) {
            h.run();
        } else {
            h.run_until(h.now() + k_far);
        }
        ASSERT_TRUE(h.agrees(step));
    }
    h.run();
    ASSERT_TRUE(h.agrees(steps));
    EXPECT_GT(h.fired(), 0u) << "seed " << seed;
}

}  // namespace

TEST(event_loop_fuzz, matches_reference_order)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        fuzz_one(seed, 1500);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(event_loop_fuzz, matches_reference_order_long_runs)
{
    for (std::uint64_t seed = 1000; seed < 1008; ++seed) {
        fuzz_one(seed, 40000);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

// The zero-delay livelock shape: one handler re-arming itself at now()
// many times must keep firing in order, from one reused slab slot, without
// the clock moving.
TEST(event_loop_fuzz, zero_delay_chain_stays_bounded)
{
    event_loop loop;
    int left = 100000;
    std::vector<int> order;
    std::function<void()> rearm = [&] {
        order.push_back(left);
        if (--left > 0) loop.schedule_after(0, [&] { rearm(); });
    };
    loop.schedule_at(from_ms(1), [&] { rearm(); });
    loop.run();
    ASSERT_EQ(order.size(), 100000u);
    EXPECT_EQ(loop.now(), from_ms(1));
    EXPECT_EQ(loop.slab_slots(), 1u);
}
