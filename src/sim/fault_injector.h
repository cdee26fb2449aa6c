// Shard-safe fault-event arming and accounting. A fault schedule (e.g.
// topo::fault_plan) is known before the loops run, so every injection point
// can be armed directly on the loop that owns the state it touches — no
// cross-shard messaging is needed to *start* a fault, only for the recovery
// cascades the handlers themselves drive. The injector wraps each handler
// with per-class accounting so soak tests and benches can assert that every
// planned fault actually fired.
//
// The class is deliberately generic (classes are just small integers): sim/
// stays below topo/ in the layering, and any scheduler of chaos — not just
// the fault_plan — can use it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/event_loop.h"

namespace l4span::sim {

class fault_injector {
public:
    // `num_classes` sizes the accounting lanes; arming an out-of-range
    // class throws.
    explicit fault_injector(std::size_t num_classes);

    fault_injector(const fault_injector&) = delete;
    fault_injector& operator=(const fault_injector&) = delete;

    // Wraps `fire` with injection accounting and schedules it at `when` on
    // `loop`. Arm everything before the loops run; each event then fires on
    // the loop it was armed on, so no state is ever touched cross-shard and
    // sharded runs stay byte-identical for any --jobs.
    //
    // `observe`, when set, runs on the firing shard's thread immediately
    // before `fire` — the hook the observability layer uses to trace the
    // injection and snapshot a flight record without sim/ depending on obs/.
    void arm(event_loop& loop, tick when, std::size_t cls, callback fire,
             callback observe = {});

    std::size_t num_classes() const { return armed_.size(); }
    std::uint64_t armed(std::size_t cls) const;
    std::uint64_t injected(std::size_t cls) const;  // events that have fired

private:
    std::vector<std::uint64_t> armed_;  // mutated pre-run only
    // Incremented from whichever shard thread fires the event; relaxed
    // atomics — the counts are read after run_until joins the workers.
    std::vector<std::atomic<std::uint64_t>> injected_;
};

}  // namespace l4span::sim
