// One cell of a (possibly multi-cell) experiment: the gNB, its CU hook
// (L4Span or a baseline), per-UE DRB bookkeeping and instrumentation.
//
// A cell runs on an externally owned event loop, so a scenario can place
// one cell on its private loop (cell_scenario) or one cell per shard of a
// sim::shard_group (scenario::topology). X2/Xn handover moves a UE between
// two cells via detach_ue/attach_ue, carrying RLC/PDCP bearer state and the
// CU hook's marking state.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqm/wred_dualq.h"
#include "chan/trace_channel.h"
#include "core/l4span.h"
#include "media/frame_source.h"
#include "obs/hub.h"
#include "media/media.h"
#include "ran/gnb.h"
#include "scenario/baselines.h"
#include "sim/event_loop.h"
#include "stats/sample_set.h"
#include "stats/timeseries.h"
#include "topo/cross_traffic.h"
#include "topo/path_impairment.h"
#include "transport/quic_engine.h"
#include "transport/tcp.h"

namespace l4span::scenario {

enum class cu_mode : std::uint8_t {
    none,         // vanilla RAN: deep RLC queue, no signaling (the status quo)
    l4span,       // the paper's system
    dualpi2_ran,  // §6.3.1 microbenchmark baseline
    tcran,        // §6.2.2 comparison baseline
};

struct cell_spec {
    int num_ues = 1;
    // static | pedestrian | vehicular | mobile | trace (DCI replay).
    std::string channel = "static";
    // Trace-driven channels: with channel == "trace", UE i replays
    // ue_traces[i % ue_traces.size()] (per-UE loop/offset/time-scale knobs
    // live in chan::trace_config). Validated with actionable errors.
    std::vector<chan::trace_config> ue_traces;
    std::size_t rlc_queue_sdus = 16384;  // srsRAN default; the paper also uses 256
    ran::rlc_mode rlc_mode = ran::rlc_mode::am;
    ran::sched_policy sched = ran::sched_policy::round_robin;
    cu_mode cu = cu_mode::l4span;
    core::l4span_config l4s;
    tc_ran::config tcran;
    dualpi2_ran_hook::config dualpi2;
    std::uint64_t seed = 1;
    // Put L4S and classic flows of one UE on separate DRBs (§4.2.3 default
    // deployment; false models the low-end shared-DRB UE of §6.2.6).
    bool separate_drbs_per_class = false;
    // Optional shared wired bottleneck on the forward path (Fig. 2): rate
    // changes according to `bottleneck_schedule` (time, bps). Consumed by
    // cell_scenario only.
    double bottleneck_bps = 0.0;
    std::vector<std::pair<sim::tick, double>> bottleneck_schedule;
    // Queue discipline of the wired bottleneck: "fifo" (default),
    // "dualpi2" (an L4S-aware core router whose CE marks a downstream
    // impairment stage can bleach), or "wred" (occupancy-ramp dual queue,
    // parameters in `wred`). Consumed by cell_scenario only.
    std::string bottleneck_aqm = "fifo";
    // Parameters for bottleneck_aqm == "wred". No compiled-in bench sets
    // these — the scenario schema (docs/SCENARIOS.md) is the only producer.
    aqm::wred_dualq_config wred;
    // Optional uplink bottleneck on the server-side return path (FIFO):
    // ACKs and uplink feedback serialize through it, so a congested return
    // hop delays the downlink control loop. 0 keeps the return path
    // latency-only, exactly as before. Consumed by cell_scenario only.
    double ul_bottleneck_bps = 0.0;
    // Wired-path impairments (topo::path_impairment), per direction. The
    // downlink stage sits after the core bottleneck and before the RAN; the
    // uplink stage sits on the server-side return path. All-off specs mount
    // no stage (unless force_stage) and change nothing.
    topo::impairment_spec impair_dl;
    topo::impairment_spec impair_ul;
    // Unresponsive wired background senders sharing the core bottleneck
    // (requires bottleneck_bps > 0), or — per-entry, with spec.uplink — the
    // uplink return bottleneck (requires ul_bottleneck_bps > 0). Consumed
    // by cell_scenario only; scenario::topology has no shared wired
    // bottleneck and rejects these.
    std::vector<topo::cross_traffic_spec> cross_traffic;
    // Record the ground-truth per-TB MAC transmission log (cell::tx_log,
    // Fig. 20 estimator-error experiments). Off by default: the log costs a
    // lookup + append per transport block on the per-slot hot path, and
    // grows without bound over a run.
    bool record_tx_log = false;
    // Observability (src/obs): with obs.enabled the harness builds an
    // obs::hub (one shard per cell), wires every layer's tracer, samples
    // metric snapshots on the spec's cadence and arms the fault flight
    // recorder. Off by default: the only residue of the disabled state is
    // one null-pointer branch per trace site, and an enabled run's
    // simulated behavior stays byte-identical (tracing never draws RNG or
    // schedules sim-visible events). Consumed by cell_scenario and
    // scenario::topology.
    obs::config obs;
};

struct flow_spec {
    // reno|cubic|prague|bbr|bbr2 (TCP), scream|udp-prague (UDP media), or
    // quic-<cc> (QUIC engine with any of the TCP congestion controllers,
    // e.g. "quic-prague").
    std::string cca = "prague";
    int ue = 0;                  // UE index (cell-local or topology-global)
    sim::tick start_time = 0;
    sim::tick stop_time = -1;            // long-lived flows run to scenario end
    std::uint64_t flow_bytes = 0;        // >0: short-lived flow, measures FCT
    double wired_owd_ms = 19.0;          // one-way server->core ("east" Azure)
    std::uint32_t mss = 1400;
    std::uint64_t max_cwnd = 4ull << 20;
    double media_max_bps = 38e6;
    double media_start_bps = 1e6;
    // Interactive frame-paced source (media::frame_source) riding the
    // reliable transport — QUIC stream-per-frame or app-limited TCP — when
    // fps > 0. Ignored for scream/udp-prague flows; an interactive flow is
    // long-lived (flow_bytes is ignored, the stream never "finishes").
    double fps = 0.0;
    double frame_bitrate_bps = 8e6;
    double keyframe_interval_s = 2.0;
    double keyframe_scale = 4.0;
    double frame_deadline_ms = 50.0;
};

// Maps the paper's channel labels to profiles. "trace" is rejected here
// with a pointer at cell_spec.ue_traces (a trace is data, not a profile);
// unknown names list the valid options.
chan::channel_profile channel_by_name(const std::string& name, std::uint64_t variant = 0);

// The link model for UE `variant` of `spec`: a trace_channel when the spec
// says "trace" (validating the assignment), else a fading channel profile
// resolved through channel_by_name. Throws std::invalid_argument with the
// valid options on any misconfiguration.
std::unique_ptr<chan::link_model> make_ue_link(const cell_spec& spec,
                                               std::uint64_t variant);

bool is_l4s_cca(const std::string& cca);
bool is_media_cca(const std::string& cca);
bool is_quic_cca(const std::string& cca);
// "quic-prague" -> "prague"; throws std::invalid_argument otherwise.
std::string quic_cc_of(const std::string& cca);

// One flow's endpoints: server-side sender and UE-side receiver (TCP, QUIC
// or media), wired to scenario-supplied send callbacks. Both endpoints live
// on the loop they were created with — in a sharded topology that is the
// UE's home shard, which never changes even as the UE hands over between
// cells.
struct flow_endpoints {
    bool is_media = false;
    bool is_quic = false;
    std::unique_ptr<transport::tcp_sender> snd;
    std::unique_ptr<transport::tcp_receiver> rcv;
    std::unique_ptr<transport::quic_sender> qsnd;
    std::unique_ptr<transport::quic_receiver> qrcv;
    std::unique_ptr<media::media_sender> msnd;
    std::unique_ptr<media::media_receiver> mrcv;
    std::unique_ptr<media::frame_source> frames;  // interactive source (fps > 0)

    void on_downlink(const net::packet& pkt);  // deliver to the receiver
    void on_uplink(const net::packet& pkt);    // deliver feedback to the sender

    // Handover path switch: a QUIC connection rotates to its next issued
    // CID and keeps going; TCP/media endpoints have nothing to do.
    void on_path_switch();

    const stats::sample_set& owd_samples() const;
    const stats::sample_set& rtt_samples() const;
    const stats::rate_series& goodput() const;
    std::uint64_t delivered_bytes() const;
    std::uint64_t cwnd_bytes() const;
    std::uint64_t transport_retransmits() const;  // TCP/QUIC data re-sends
    std::uint64_t ce_packets() const;  // CE-marked data packets at the receiver
    bool ecn_fallback() const;         // the sender found the path strips ECN
    bool tcp_finished() const;
    sim::tick tcp_finish_time() const;
    const media::frame_source* frame_stats() const { return frames.get(); }
};

// Builds the endpoints for `spec` and schedules their start/stop events on
// `loop`. `handle` and `ue_addr` synthesize the unique five-tuple. `tracer`
// (optional) reaches the sender's congestion-reaction trace points; it must
// belong to the shard that owns `loop`.
flow_endpoints make_flow_endpoints(sim::event_loop& loop, const flow_spec& spec,
                                   int handle, int ue_addr,
                                   std::function<void(net::packet)> dl_send,
                                   std::function<void(net::packet)> ul_send,
                                   obs::tracer* tracer = nullptr);

// Goodput over the flow's active period — shared by every harness so the
// single-cell and multi-cell metric definitions cannot diverge.
double flow_goodput_mbps(const flow_spec& spec, const flow_endpoints& ep,
                         sim::tick scenario_duration);

class cell {
public:
    cell(sim::event_loop& loop, cell_spec spec, int index = 0);
    ~cell();

    sim::event_loop& loop() { return loop_; }
    int index() const { return index_; }
    const cell_spec& spec() const { return spec_; }

    // --- topology construction ---
    // Adds a UE with the spec's channel; `variant` seeds the pedestrian /
    // vehicular alternation of the "mobile" profile.
    ran::rnti_t add_ue(std::uint64_t variant);
    // RNTI of the i-th UE added (initial construction order).
    ran::rnti_t rnti_of(std::size_t i) const;
    // Allocates the UE's next QFI.
    ran::qfi_t alloc_qfi(ran::rnti_t ue);
    // Routes `qfi` to the UE's per-class DRB; returns the DRB chosen.
    ran::drb_id_t map_qos_flow(ran::rnti_t ue, ran::qfi_t qfi, bool l4s_class);

    // Starts the slot clock and queue sampling. Call once.
    void start();

    // --- data path (core/UPF side) ---
    void deliver_downlink(net::packet pkt, ran::rnti_t ue, ran::qfi_t qfi);
    void send_uplink(ran::rnti_t ue, net::packet pkt);
    bool has_ue(ran::rnti_t ue) const;

    // --- X2/Xn handover + fault recovery ---
    // What happens to the CU hook's per-UE marking state at detach:
    // `migrate` exports it into the context (normal handover — carrying it
    // forward prevents the post-handover marking glitch); `invalidate`
    // removes and discards it (RLF re-establishment — the forwarded SN
    // space restarts, so stale profile/estimator state would be wrong, and
    // dropping it guarantees no leaked flow-table entries under the dead
    // RNTI). Either way the entity holds nothing keyed to the old RNTI.
    enum class hook_transfer : std::uint8_t { migrate, invalidate };
    ran::ue_handover_context detach_ue(ran::rnti_t ue,
                                       hook_transfer ht = hook_transfer::migrate);
    ran::rnti_t attach_ue(ran::ue_handover_context ctx);

    // --- fault injection (radio outage / RLF) ---
    void begin_radio_outage(ran::rnti_t ue) { gnb_->begin_outage(ue); }
    void end_radio_outage(ran::rnti_t ue) { gnb_->end_outage(ue); }
    void set_rlf_handler(ran::gnb::rlf_handler h);

    void set_deliver_handler(ran::gnb::deliver_handler h);
    void set_uplink_handler(ran::gnb::uplink_handler h);
    // Per-slot DCI log (a trace capture plugs in here). Fires on this
    // cell's loop thread: in a sharded topology record with jobs=1 or use
    // one capture per cell.
    void set_linklog_handler(ran::gnb::linklog_handler h);

    // --- instrumentation ---
    ran::gnb& gnb() { return *gnb_; }
    core::l4span* l4span_layer() { return l4span_.get(); }
    // Wires the cell into the observability subsystem: the tracer reaches
    // the gNB's layer-boundary trace points and the CU hook's decision
    // points; the registry (optional) gains cell-prefixed counters for the
    // gNB and the L4Span entity plus the predicted-sojourn histogram. Call
    // before start(); both pointers are non-owning and may be null.
    void attach_obs(obs::tracer* tr, obs::registry* reg);
    const stats::sample_set& rlc_queue_sdus(ran::rnti_t ue) const;
    const stats::value_series& rlc_queue_series(ran::rnti_t ue) const;
    // Requires cell_spec.record_tx_log (throws std::logic_error otherwise —
    // an empty log would silently read as "no transmissions").
    const std::vector<std::pair<sim::tick, std::uint32_t>>& tx_log(ran::rnti_t ue) const;
    double mean_queuing_ms() const;
    double mean_scheduling_ms() const;

private:
    struct ue_rec {
        ran::rnti_t rnti = 0;
        ran::drb_id_t default_drb = 0;
        ran::drb_id_t classic_drb = 0;
        int next_qfi = 1;
        bool attached = true;
        stats::sample_set rlc_samples;
        stats::value_series rlc_series{sim::from_ms(100)};
        std::vector<std::pair<sim::tick, std::uint32_t>> tx_log;
    };

    ue_rec& rec(ran::rnti_t ue);
    const ue_rec& rec(ran::rnti_t ue) const;
    void schedule_sampling();

    sim::event_loop& loop_;
    cell_spec spec_;
    int index_;
    sim::rng rng_;
    std::unique_ptr<ran::gnb> gnb_;
    std::unique_ptr<core::l4span> l4span_;
    std::unique_ptr<dualpi2_ran_hook> dualpi2_;
    std::unique_ptr<tc_ran> tcran_;
    ran::cu_hook* hook_ = nullptr;

    std::vector<std::unique_ptr<ue_rec>> ues_;  // includes detached tombstones
    // RNTIs are assigned densely from 1 by this cell's gNB and never
    // reused, so the lookup is a vector indexed by rnti-1.
    std::vector<ue_rec*> rnti_slots_;

    double queuing_sum_ms_ = 0.0;
    double sched_sum_ms_ = 0.0;
    std::uint64_t delay_reports_ = 0;
    bool started_ = false;
};

}  // namespace l4span::scenario
