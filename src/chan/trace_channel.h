// Trace-driven channel: replays per-slot DCI-style records (NR-Scope
// measurements of a commercial cell, or a recording of a fading run) as a
// UE's link-quality source. Fig. 18's marking-threshold coherence analysis
// is driven by measured DCI traces in the paper; this layer lets every
// scenario that takes a channel name run from replayed data instead of the
// synthetic fading model.
//
// Replay is a pure function of simulated time: the record in force at time
// t is the one with the largest timestamp <= offset + t * time_scale
// (modulo the trace duration when looping). That makes the cursor
// handover-safe by construction — the channel object migrates with the UE
// through ran::ue_handover_context and keeps answering from global time.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chan/link_model.h"
#include "sim/time.h"

namespace l4span::chan {

// One DCI-style observation: the slot's link-adaptation outcome.
struct dci_record {
    sim::tick timestamp = 0;  // trace-relative time of the slot
    int mcs = 0;              // -1 = below MCS0 (no transmission)
    int prbs = 0;             // PRBs allocated in the slot
    std::uint32_t tbs = 0;    // transport-block bytes reported

    bool operator==(const dci_record&) const = default;
};

// Widest NR carrier (FR1, 100 MHz @ 30 kHz SCS) — the PRB clamp ceiling.
inline constexpr int k_max_trace_prbs = 275;

struct trace_data {
    std::string name;
    std::vector<dci_record> records;  // strictly increasing timestamps
    sim::tick duration = 0;           // loop period; 0 = derive from records

    // Loop period actually used: `duration` when set, else the last
    // timestamp plus the first inter-record gap (one slot for a recording).
    sim::tick effective_duration() const;

    // Mean of min_snr_db(mcs) over the records, summed in record order: the
    // profile mean of every channel replaying this trace. Derived on the
    // first call and kept, so UEs that share a trace share one sum; the
    // records must not change after that. A copy derives its own.
    double mean_snr_db() const;

private:
    // Atomic: a trace is shared read-only across grid workers, and two of
    // them may derive the mean at once (both store the same value).
    struct memo {
        memo() = default;
        memo(const memo&) noexcept {}
        memo& operator=(const memo&) noexcept
        {
            value = k_unset;
            return *this;
        }
        static constexpr double k_unset = std::numeric_limits<double>::quiet_NaN();
        mutable std::atomic<double> value{k_unset};
    };
    memo mean_snr_;
};

// Per-UE replay knobs (cell_spec.ue_traces).
struct trace_config {
    std::shared_ptr<const trace_data> data;
    bool loop = true;        // wrap at effective_duration(); false = hold last
    sim::tick offset = 0;    // trace time at sim t = 0 (decorrelates UEs)
    double time_scale = 1.0; // 2.0 replays twice as fast, 0.5 half speed
};

// Throws std::invalid_argument with an actionable message (what was wrong
// and what a valid config looks like) on null/zero-length data or a
// non-positive time_scale.
void validate_trace_config(const trace_config& cfg);

class trace_channel final : public link_model {
public:
    explicit trace_channel(trace_config cfg);

    // Representative SNR of the replayed MCS (the table threshold), so
    // mcs_from_snr(snr_db(t)) == mcs(t) and SNR introspection keeps working.
    double snr_db(sim::tick t) override;
    int mcs(sim::tick t) override;
    int prb_cap(sim::tick t) override;
    const channel_profile& profile() const override { return profile_; }
    bool migrates_on_handover() const override { return true; }

    const trace_config& config() const { return cfg_; }
    // The record in force at `t` (advances the cursor; t non-decreasing,
    // earlier times return the current record).
    const dci_record& record_at(sim::tick t);

private:
    trace_config cfg_;
    channel_profile profile_;
    sim::tick last_ = -1;
    std::size_t cursor_ = 0;
    std::int64_t lap_ = 0;  // loop count at the cursor position
};

// Deterministic synthetic DCI-trace generator: samples a fading channel's
// link adaptation once per `slot` — exactly what the recorder would capture
// from an always-backlogged UE. Seeds its own RNG, so equal specs produce
// equal traces on every platform.
struct synth_trace_spec {
    std::string name = "synthetic";
    std::uint64_t seed = 1;
    std::size_t slots = 2000;
    sim::tick slot = sim::from_us(500);
    double mean_snr_db = 13.0;
    double sigma_db = 4.0;
    sim::tick coherence = sim::from_ms(34);
    int prbs = 51;  // the paper's 20 MHz cell
};

trace_data synth_trace(const synth_trace_spec& spec);

}  // namespace l4span::chan
