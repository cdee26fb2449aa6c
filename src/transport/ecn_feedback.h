// Wrap-aware cumulative-counter tracking shared by the AccECN (TCP) and
// QUIC feedback paths.
//
// Both feedback formats echo *cumulative* congestion counters that the
// sender differentiates: TCP AccECN carries 24-bit byte counters (plus the
// 3-bit ACE packet counter), QUIC ACK frames carry varint packet counters.
// The subtraction must survive wraparound at the counter's modulus, and the
// very first observation establishes a baseline instead of producing a
// spurious delta. Keeping one implementation here means the TCP and QUIC
// engines cannot drift apart on this arithmetic.
#pragma once

#include <algorithm>
#include <cstdint>

namespace l4span::transport {

// Tracks one cumulative counter reported modulo 2^bits. update() returns
// the increment since the previous report; the first report returns 0 and
// only establishes the baseline (the receiver's counters may start at a
// nonzero value, e.g. the ACE field's initial 5 per the AccECN draft).
class ecn_counter_tracker {
public:
    explicit ecn_counter_tracker(unsigned bits = 64)
        : mask_(bits >= 64 ? ~0ull : (1ull << bits) - 1)
    {
    }

    std::uint64_t update(std::uint64_t reported)
    {
        reported &= mask_;
        if (!have_prev_) {
            have_prev_ = true;
            prev_ = reported;
            return 0;
        }
        const std::uint64_t delta = (reported - prev_) & mask_;
        prev_ = reported;
        return delta;
    }

private:
    std::uint64_t mask_;
    std::uint64_t prev_ = 0;
    bool have_prev_ = false;
};

// The per-ACK CE fraction scalable controllers consume: marked units over
// newly acknowledged units (bytes for TCP AccECN, packets for QUIC), with
// the edge cases pinned down in one place — no acknowledged progress but a
// positive CE delta means "everything was marked", and the fraction is
// clamped so counter skew can never report more than full marking.
inline double ce_fraction(std::uint64_t ce_delta, std::uint64_t newly_acked)
{
    if (newly_acked == 0) return ce_delta > 0 ? 1.0 : 0.0;
    return std::min(1.0, static_cast<double>(ce_delta) / static_cast<double>(newly_acked));
}

}  // namespace l4span::transport
