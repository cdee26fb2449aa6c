// Deterministic chaos schedules for a multi-cell topology: radio link
// failures, handover failures, whole-cell outages, wired-link flaps and
// mid-run impairment swaps. Real RANs fail constantly; L4Span's pitch is
// incremental deployability, so every scenario must be runnable with the
// infrastructure itself failing underneath it.
//
// Like topo::mobility_model, the plan is pure planning: it emits a sorted
// schedule of fault_events that scenario::topology::apply_faults arms on
// the shard loops. Each fault class draws from its own splitmix64-forked
// RNG stream (fault_seed), so enabling one class never shifts another's
// draws, plans are stable when classes are added, and runs stay
// byte-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "topo/path_impairment.h"

namespace l4span::topo {

enum class fault_class : std::uint8_t {
    rlf = 0,           // UE radio link goes to outage; gNB detects + detaches
    handover_failure,  // X2 context transfer dropped mid-flight
    cell_outage,       // whole cell down; UEs evacuated to neighbors
    link_flap,         // wired downlink hop down/up (bounded buffering)
    impairment_swap,   // reroute onto a different impairment profile mid-run
};
inline constexpr std::size_t k_num_fault_classes = 5;

const char* fault_class_name(fault_class cls);

// How a failed handover recovers (drawn per event by the plan).
enum class ho_failure_mode : std::uint8_t {
    rollback = 0,   // context returns to the source cell after the timeout
    reestablish,    // treated as RLF: hook state invalidated, re-attach to
                    // the original target after the re-establishment backoff
};

struct fault_event {
    sim::tick when = 0;
    fault_class cls = fault_class::rlf;
    int ue = -1;    // rlf, handover_failure (global topology UE index)
    int cell = -1;  // cell_outage, link_flap, impairment_swap
    // rlf: radio outage length; cell_outage: downtime; link_flap: stall.
    sim::tick duration = 0;
    ho_failure_mode mode = ho_failure_mode::rollback;  // handover_failure
    bool uplink = false;          // impairment_swap: which direction's stage
    impairment_spec impair;       // impairment_swap: the new profile
};

struct fault_plan_config {
    int num_cells = 2;
    int ues_per_cell = 1;
    sim::tick start = sim::from_ms(500);  // let flows establish first
    sim::tick end = 0;                    // planning horizon (exclusive)
    std::uint64_t seed = 1;

    // Rate-driven event streams (Poisson; 0 disables a class).
    double rlf_per_ue_per_sec = 0.0;
    double ho_failure_per_ue_per_sec = 0.0;
    double outages_per_cell_per_sec = 0.0;
    double flaps_per_cell_per_sec = 0.0;
    double swaps_per_cell_per_sec = 0.0;

    // Mean outage/stall lengths (exponential, floored at the minimum so an
    // event is always observable at slot granularity).
    sim::tick rlf_outage_mean = sim::from_ms(300);
    sim::tick rlf_outage_min = sim::from_ms(50);
    sim::tick cell_outage_mean = sim::from_ms(800);
    sim::tick cell_outage_min = sim::from_ms(200);
    sim::tick flap_mean = sim::from_ms(400);
    sim::tick flap_min = sim::from_ms(100);

    // Fraction of handover failures that recover via RLF re-establishment
    // (the rest roll back to the source cell).
    double ho_failure_reestablish_fraction = 0.5;

    // Profiles the impairment_swap stream cycles through (e.g. a clean spec
    // and a bleaching transit). Required non-empty when swaps are enabled.
    std::vector<impairment_spec> swap_profiles;
    bool swap_uplink = false;  // swap the uplink stage instead of downlink

    bool any_enabled() const
    {
        return rlf_per_ue_per_sec > 0.0 || ho_failure_per_ue_per_sec > 0.0 ||
               outages_per_cell_per_sec > 0.0 || flaps_per_cell_per_sec > 0.0 ||
               swaps_per_cell_per_sec > 0.0;
    }

    // Throws std::invalid_argument naming `where` with an actionable
    // message on any out-of-range knob.
    void validate(const std::string& where) const;
};

// Per-(class, lane) seed derivation, same splitmix64 finalizer family as
// impairment_seed: every fault class and every UE/cell lane draws an
// independent stream.
inline std::uint64_t fault_seed(std::uint64_t base, fault_class cls,
                                std::uint64_t lane)
{
    std::uint64_t x = base ^
                      (0x9e3779b97f4a7c15ull *
                       (k_num_fault_classes * (lane + 1) +
                        static_cast<std::uint64_t>(cls) + 1));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x | 1;
}

class fault_plan {
public:
    // Validates the config (see fault_plan_config::validate) and builds the
    // schedule. Deterministic: same config, same schedule, bit for bit.
    explicit fault_plan(fault_plan_config cfg);

    // Sorted by (when, cls, ue, cell). Per-cell outage streams never
    // overlap themselves (a cell must recover before failing again); other
    // classes are free-running and the runtime guards make overlaps benign.
    const std::vector<fault_event>& schedule() const { return schedule_; }
    const fault_plan_config& config() const { return cfg_; }

    // Events of one class (bench/test introspection).
    std::size_t count(fault_class cls) const;

private:
    fault_plan_config cfg_;
    std::vector<fault_event> schedule_;
};

}  // namespace l4span::topo
