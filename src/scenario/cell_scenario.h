// End-to-end single-cell experiment harness: builds one scenario::cell on a
// private event loop, attaches TCP, QUIC or media flows with per-flow wired
// server paths, runs the simulation and collects the metrics the paper's
// figures report.
//
// The four examples and most single-cell benches drive this class, directly
// or through scenario_run; the multi-cell benches (mc_handover,
// quic_interactive, trace_replay, fault_chaos) run on scenario::topology.
// The cell wiring itself lives in scenario::cell so the topology layer
// reuses it unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/cell.h"
#include "sim/event_loop.h"
#include "stats/sample_set.h"
#include "stats/timeseries.h"
#include "topo/cross_traffic.h"
#include "topo/path_impairment.h"
#include "topo/wired_link.h"

namespace l4span::scenario {

class cell_scenario : public flow_table {
public:
    explicit cell_scenario(cell_spec spec);
    ~cell_scenario();

    // Returns the flow handle (index); the per-flow results are
    // flow_table's accessors.
    int add_flow(flow_spec spec);

    void run(sim::tick duration);

    // --- cell-level instrumentation ---
    const stats::sample_set& rlc_queue_sdus(int ue) const;  // sampled every 10 ms
    const stats::value_series& rlc_queue_series(int ue) const;
    core::l4span* l4span_layer() { return cell_->l4span_layer(); }
    ran::gnb& gnb() { return cell_->gnb(); }
    scenario::cell& cell() { return *cell_; }
    sim::event_loop& loop() { return loop_; }

    // --- path-impairment instrumentation ---
    // Mounted stages (nullptr when the spec's knobs are all off and
    // force_stage is false).
    const topo::path_impairment* impair_dl() const { return impair_dl_.get(); }
    const topo::path_impairment* impair_ul() const { return impair_ul_.get(); }
    // CE marks applied by the wired bottleneck AQM (0 without a bottleneck
    // or with a FIFO one). Together with l4span_layer()->marks() this is
    // the denominator of the CE-delivery ratio.
    std::uint64_t bottleneck_ce_marks() const
    {
        return bottleneck_ ? bottleneck_->queue().marks() : 0;
    }
    std::uint64_t cross_traffic_packets() const;
    // The uplink return-path bottleneck (nullptr when ul_bottleneck_bps
    // is 0 and the return path is latency-only).
    const topo::wired_link* ul_bottleneck() const { return ul_bottleneck_.get(); }

    // --- observability ---
    // The hub (nullptr unless cell_spec.obs.enabled). run() takes the final
    // snapshot and writes the JSONL artifacts when obs.out_prefix is set,
    // throwing std::runtime_error naming a file it cannot write; the
    // in-memory views stay readable either way.
    obs::hub* obs_hub() { return hub_.get(); }

private:
    ran::rnti_t rnti_at(int ue) const;
    void downlink_arrival(net::packet pkt);  // route into the RAN by flow_id
    void uplink_arrival(net::packet pkt);    // route feedback to the sender

    cell_spec spec_;
    sim::event_loop loop_;
    std::unique_ptr<obs::hub> hub_;
    std::unique_ptr<scenario::cell> cell_;
    std::unique_ptr<topo::wired_link> bottleneck_;
    std::unique_ptr<topo::wired_link> ul_bottleneck_;
    std::unique_ptr<topo::path_impairment> impair_dl_;
    std::unique_ptr<topo::path_impairment> impair_ul_;
    std::vector<std::unique_ptr<topo::cross_traffic>> cross_;
};

}  // namespace l4span::scenario
