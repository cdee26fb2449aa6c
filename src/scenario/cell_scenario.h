// End-to-end single-cell experiment harness: builds one scenario::cell on a
// private event loop, attaches TCP or media flows with per-flow wired server
// paths, runs the simulation and collects the metrics the paper's figures
// report.
//
// Every bench binary and example is a thin wrapper over this class; the
// cell wiring itself lives in scenario::cell so the multi-cell topology
// layer reuses it unchanged.
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

class cell_scenario {
public:
    explicit cell_scenario(cell_spec spec);
    ~cell_scenario();

    // Returns the flow handle (index).
    int add_flow(flow_spec spec);

    void run(sim::tick duration);

    // --- per-flow results (handles are bounds-checked: a bad handle throws
    // std::out_of_range instead of reading a stale or foreign flow) ---
    const stats::sample_set& owd_ms(int flow) const;       // one-way delay
    const stats::sample_set& rtt_ms(int flow) const;       // sender RTT samples
    double goodput_mbps(int flow) const;                   // over active period
    const stats::rate_series& goodput_series(int flow) const;
    double fct_ms(int flow) const;                         // -1 if not finished
    std::uint64_t delivered_bytes(int flow) const;
    std::uint64_t flow_cwnd(int flow) const;               // TCP/QUIC flows only
    const transport::tcp_sender* tcp_flow(int flow) const;
    const transport::quic_sender* quic_flow(int flow) const;   // quic-* flows
    const media::frame_source* frame_stats(int flow) const;    // fps > 0 flows
    std::uint64_t flow_retransmits(int flow) const;        // TCP/QUIC re-sends
    // CE-marked packets the flow's receiver actually saw (0 for media
    // flows) — the numerator of the CE-delivery ratio.
    std::uint64_t flow_ce_packets(int flow) const;
    // True when the TCP/QUIC sender's ECN path validation gave up and the
    // flow reverted to Not-ECT sending (false for media flows).
    bool flow_ecn_fallback(int flow) const;

    // --- cell-level instrumentation ---
    const stats::sample_set& rlc_queue_sdus(int ue) const;  // sampled every 10 ms
    const stats::value_series& rlc_queue_series(int ue) const;
    double mean_queuing_ms() const;
    double mean_scheduling_ms() const;
    core::l4span* l4span_layer() { return cell_->l4span_layer(); }
    ran::gnb& gnb() { return cell_->gnb(); }
    scenario::cell& cell() { return *cell_; }
    sim::event_loop& loop() { return loop_; }
    // Ground-truth MAC transmissions, (time, bytes), per UE index (Fig. 20).
    const std::vector<std::pair<sim::tick, std::uint32_t>>& tx_log(int ue) const;

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
    // snapshot and writes the JSONL artifacts when obs.out_prefix is set;
    // the in-memory views stay readable either way.
    obs::hub* obs_hub() { return hub_.get(); }

private:
    struct flow_rt {
        flow_spec spec;
        ran::rnti_t rnti = 0;
        ran::qfi_t qfi = 0;
        sim::tick wired_owd = 0;
        flow_endpoints ep;
    };

    flow_rt& flow_at(int flow) const;
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
    std::vector<std::unique_ptr<flow_rt>> flows_;
    sim::tick duration_ = 0;
};

}  // namespace l4span::scenario
