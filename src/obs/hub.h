// Observability hub: owns one tracer + metrics registry + snapshot buffer
// per shard, schedules periodic metric sampling on each shard's loop, and
// runs the fault flight recorder.
//
// Shard safety / determinism contract: every per-shard structure is written
// only by its own shard's loop thread (incident dumps included — they are
// triggered from that thread). The cross-shard merge happens once, after
// the simulation stops, in fixed (time, shard, sequence) order, so a
// jobs-1 and a jobs-4 run of the same scenario produce byte-identical
// metric snapshots and trace dumps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace l4span::obs {

struct config {
    bool enabled = false;
    // Metric snapshot cadence (sim time).
    sim::tick snapshot_period = sim::from_ms(100);
    // Per-shard trace ring slots (32 B each).
    std::size_t ring_capacity = 8192;
    // Flight recorder: events dumped per incident, and the per-shard
    // incident cap (a chaos run can fire hundreds of faults; the first
    // few dumps carry the diagnosis).
    std::size_t flight_last_n = 256;
    std::size_t max_incidents = 8;
    // Per-packet lifecycle mode: follow this flow id end to end
    // (~0 = off).
    std::uint64_t lifecycle_flow = ~0ull;
    // Output prefix for <prefix>.metrics.jsonl / <prefix>.trace.jsonl /
    // <prefix>.incident-*.jsonl. Empty: keep everything in memory
    // (tests read the accessors instead).
    std::string out_prefix;
};

class hub {
public:
    hub(std::size_t num_shards, config cfg);

    const config& cfg() const { return cfg_; }
    std::size_t num_shards() const { return shards_.size(); }

    tracer& shard_tracer(std::size_t shard) { return shards_[shard]->tr; }
    registry& shard_registry(std::size_t shard) { return shards_[shard]->reg; }

    // Schedules the self-rescheduling snapshot sampler for `shard` on its
    // loop. The sampler only reads shard-local state; it never perturbs
    // simulated behavior (it does add loop events, so processed-event
    // counts differ from an unobserved run — formatted results do not).
    void start_sampling(sim::event_loop& loop, std::size_t shard);

    // Flight-recorder triggers ------------------------------------------
    // Dump the shard ring's last N events. Must run on the shard's thread.
    void record_incident(std::size_t shard, sim::tick now, const char* why);
    // Emits an `invariant` trace event; a failed check also records an
    // incident.
    void note_invariant(std::size_t shard, const char* name, bool ok, sim::tick now);

    // Takes a final metric snapshot on every shard, merges the per-shard
    // buffers in deterministic order and, when cfg.out_prefix is set,
    // writes the JSONL artifacts. Throws std::runtime_error naming the
    // first artifact it cannot write.
    void finish(sim::tick now);

    // In-memory views (valid once the simulation has stopped; finish()
    // adds the final snapshot). Incidents are re-gathered from the shard
    // buffers on each call, in shard order.
    std::string metrics_text() const;
    std::string merged_trace_text() const;
    const std::vector<std::string>& incident_names();
    std::string incident_text(std::size_t i);
    std::size_t incident_count();

    // One trace event as a compact JSONL line (shared with the incident
    // dumps and tests).
    static std::string event_line(const trace_event& ev);

private:
    struct shard_state {
        tracer tr;
        registry reg;
        std::string snapshots;                 // JSONL lines, newline-terminated
        std::vector<std::string> inc_names;    // per-shard incident labels
        std::vector<std::string> inc_bodies;   // per-shard incident dumps
    };

    void sample(sim::event_loop& loop, std::size_t shard);
    void gather_incidents();

    config cfg_;
    std::vector<std::unique_ptr<shard_state>> shards_;
    // Deterministic cross-shard views built by finish() (shard order).
    std::vector<std::string> incident_names_;
    std::vector<std::string> incident_bodies_;
    bool finished_ = false;
};

}  // namespace l4span::obs
