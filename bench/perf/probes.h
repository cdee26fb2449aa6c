// Outside-in probes for the traced pass of l4span_perf. Everything here
// measures the library through its public surface: a ran::cu_hook decorator
// installed with gnb::set_cu_hook (Fig. 21 in situ), a gnb linklog handler
// that counts and samples channel queries, an offline replay of those
// queries through fresh chan::link_model objects, and an event-loop micro.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ran/cu_hook.h"
#include "scenario/cell.h"

namespace perf {

using steady = std::chrono::steady_clock;

inline double seconds_between(steady::time_point a, steady::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// Calls and summed in-span nanoseconds per CU hook event class (§4.1):
// downlink datagram, uplink packet, RAN feedback (delivery status + discard).
struct hook_stats {
    std::uint64_t dl_calls = 0;
    std::uint64_t ul_calls = 0;
    std::uint64_t fb_calls = 0;
    double dl_ns = 0.0;
    double ul_ns = 0.0;
    double fb_ns = 0.0;

    void add(const hook_stats& o);
};

// Times every call into the wrapped hook. One instance per cell, so in a
// sharded topology each accumulator is written by one shard thread only.
class timed_hook final : public l4span::ran::cu_hook {
public:
    explicit timed_hook(l4span::ran::cu_hook& inner) : inner_(inner) {}

    std::unique_ptr<ue_state> detach_ue(l4span::ran::rnti_t ue) override;
    void attach_ue(l4span::ran::rnti_t ue, std::unique_ptr<ue_state> state) override;
    bool on_dl_packet(l4span::net::packet& pkt, l4span::ran::rnti_t ue,
                      l4span::ran::drb_id_t drb, l4span::ran::pdcp_sn_t sn,
                      l4span::sim::tick now) override;
    bool on_ul_packet(l4span::net::packet& pkt, l4span::ran::rnti_t ue,
                      l4span::sim::tick now) override;
    void on_delivery_status(const l4span::ran::dl_delivery_status& status,
                            l4span::sim::tick now) override;
    void on_dl_discard(l4span::ran::rnti_t ue, l4span::ran::drb_id_t drb,
                       l4span::ran::pdcp_sn_t sn, l4span::sim::tick now) override;

    const hook_stats& stats() const { return stats_; }

private:
    l4span::ran::cu_hook& inner_;
    hook_stats stats_;
};

// What timed_hook records around a call that does nothing: the timer's own
// cost inside the span. The traced pass subtracts it from every per-call
// self time. Median of several batches.
double calibrate_hook_bias_ns();

// One scheduler channel query seen through gnb::set_linklog_handler.
struct link_query {
    l4span::ran::rnti_t ue = 0;
    l4span::sim::tick t = 0;
    bool granted = false;  // the scheduler also consulted prb_cap()
};

// Counts every channel query of one cell and keeps the first `cap` of them
// for replay (a full Fig. 9 grid issues tens of millions).
struct link_probe {
    std::uint64_t queries = 0;
    std::size_t cap = 0;
    std::vector<link_query> sample;

    void on_query(l4span::ran::rnti_t ue, l4span::sim::tick t, int prbs);
};

struct replay_cost {
    double ns = 0.0;
    std::uint64_t queries = 0;
};

// Replays the sampled queries of a cell built from `cell`, UE by UE, through
// fresh link models of the same kind (fading profile or DCI trace) and times
// the mcs()/prb_cap() calls.
replay_cost replay_link_queries(const link_probe& probe,
                                const l4span::scenario::cell_spec& cell);

// ns per schedule_at + run_one with ~50 events per tick, the shape of the
// RAN's slot-aligned event bursts. Median of several batches.
double schedule_fire_ns();

}  // namespace perf
