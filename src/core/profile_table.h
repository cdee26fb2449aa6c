// Packet profile table (§4.3.2): tracks every admitted downlink packet's
// progress through the RLC with ingress / transmitted / delivered
// timestamps, keyed by PDCP sequence number.
//
// Feedback arrives as F1-U watermarks ("highest transmitted/delivered SN"),
// so transmit timestamps are applied to every not-yet-transmitted SN at or
// below the watermark — exactly the granularity a real CU observes.
//
// Storage is a struct-of-arrays ring: SNs are contiguous (entry i lives at
// logical index sn - first_sn_), so there is no per-SN key — each field
// (bytes, ingress/transmit/delivery timestamps, discard flag) sits in its
// own array and the watermark sweeps touch only the arrays they read.
// Both watermarks advance through monotone cursors, so a feedback report
// costs O(newly covered SNs), not O(table).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ran/types.h"
#include "sim/time.h"

namespace l4span::core {

// Materialized view of one tracked packet (find(); also the unit the
// Table 1 memory accounting charges per resident entry).
struct profile_entry {
    ran::pdcp_sn_t sn = 0;
    std::uint32_t bytes = 0;
    sim::tick t_ingress = -1;
    sim::tick t_transmitted = -1;
    sim::tick t_delivered = -1;
    bool discarded = false;
};

class profile_table {
public:
    // New admitted packet; SNs must arrive contiguous and increasing.
    void on_ingress(ran::pdcp_sn_t sn, std::uint32_t bytes, sim::tick now);

    // Takes back the entry on_ingress just added, for a packet the CU
    // dropped after profiling it. The gNB then hands the same SN to the next
    // packet, so a kept entry would shift every later SN and stand forever.
    // Throws std::logic_error if the newest entry is already transmitted.
    void retract_last();

    // F1-U transmit watermark. Invokes `txed` once per newly transmitted
    // packet (SN, bytes) — the estimator's Eq. (3) input.
    void on_transmitted(ran::pdcp_sn_t highest_sn, sim::tick ts,
                        const std::function<void(ran::pdcp_sn_t, std::uint32_t)>& txed);

    // F1-U delivery watermark (RLC AM only).
    void on_delivered(ran::pdcp_sn_t highest_sn, sim::tick ts);

    // The RAN discarded this SN before transmission completed.
    void on_discard(ran::pdcp_sn_t sn);

    // Bytes of the standing queue: admitted but not yet transmitted
    // (N_queue in Eq. (1) and Eq. (5)).
    std::uint64_t standing_bytes() const { return standing_bytes_; }
    std::size_t standing_packets() const { return standing_packets_; }

    // Queuing delay of the oldest standing packet (DualPi2-style sojourn).
    sim::tick head_age(sim::tick now) const;

    std::size_t size() const { return count_; }
    std::optional<profile_entry> find(ran::pdcp_sn_t sn) const;

    // Drops delivered/discarded entries older than `horizon` before `now`.
    void prune(sim::tick now, sim::tick horizon);

private:
    std::size_t phys(std::size_t i) const { return (head_ + i) & mask_; }
    void grow();

    // Parallel arrays, one slot per tracked SN; logical index i holds
    // sn = first_sn_ + i at physical slot (head_ + i) & mask_.
    std::vector<std::uint32_t> bytes_;
    std::vector<sim::tick> t_ingress_;
    std::vector<sim::tick> t_transmitted_;
    std::vector<sim::tick> t_delivered_;
    std::vector<std::uint8_t> discarded_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;  // capacity - 1; arrays are empty until first use

    ran::pdcp_sn_t first_sn_ = 0;
    bool has_entries_ = false;
    std::size_t tx_cursor_ = 0;  // logical index of first not-yet-transmitted entry
    std::size_t dl_cursor_ = 0;  // logical index of first entry above the
                                 // delivery watermark (watermarks are monotone)
    std::uint64_t standing_bytes_ = 0;
    std::size_t standing_packets_ = 0;
};

}  // namespace l4span::core
