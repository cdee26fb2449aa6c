#include "scenario/scenario_run.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "stats/table.h"
#include "topo/fault_plan.h"

namespace l4span::scenario {

namespace {

// One congested-cell grid point of the Fig. 9 / Fig. 24 methodology: `ues`
// long-lived downloads of one CCA, pooled OWD samples + per-UE goodput.
// bench/perf/workload.cpp builds its fig09_grid cells the same way; keep the
// two in step.
struct tcp_grid_result {
    stats::sample_set owd_ms;      // pooled over all UEs
    stats::sample_set tput_mbps;   // one sample per UE
};

tcp_grid_result run_tcp_grid_cell(const std::string& cca, int ues, std::size_t queue,
                                  double wired_owd_ms, const std::string& chan,
                                  bool l4span_on, std::uint64_t seed_base,
                                  sim::tick duration, const std::string& obs_out)
{
    cell_spec cell;
    cell.num_ues = ues;
    cell.channel = chan;
    cell.rlc_queue_sdus = queue;
    cell.cu = l4span_on ? cu_mode::l4span : cu_mode::none;
    cell.seed = seed_base + static_cast<std::uint64_t>(ues) + queue;
    // Telemetry hub: the measured results must not change, only the JSONL
    // artifacts appear (CI diffs a traced run against an untraced one).
    if (!obs_out.empty()) {
        cell.obs.enabled = true;
        cell.obs.out_prefix = obs_out;
    }
    cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < ues; ++u) {
        flow_spec f;
        f.cca = cca;
        f.ue = u;
        f.wired_owd_ms = wired_owd_ms;
        f.max_cwnd = 1536 * 1024;  // Linux default-autotuned receive window
        handles.push_back(s.add_flow(f));
    }
    s.run(duration);

    tcp_grid_result r;
    for (int h : handles) {
        for (double v : s.owd_ms(h).raw()) r.owd_ms.add(v);
        r.tput_mbps.add(s.goodput_mbps(h));
    }
    return r;
}

// --- tcp_grid (bench_fig09_tcp_grid, bench_fig24_bbr_reno) -------------------

int run_tcp_grid(const scenario_spec& spec, const bench_args& args,
                 stats::json* summary_out)
{
    const tcp_grid_family& fam = spec.tcp_grid;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct grid_point {
        double rtt;
        std::size_t queue;
        int ues;
        std::string cca;
        std::string chan;
        bool on;
    };
    std::vector<grid_point> points;
    for (const double rtt : fam.rtts_ms)
        for (const std::size_t queue : fam.queues_sdus)
            for (const int ues : fam.ue_counts)
                for (const auto& cca : fam.ccas)
                    for (const auto& chan : fam.channels)
                        for (const bool on : {false, true})
                            points.push_back({rtt, queue, ues, cca, chan, on});

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu grid points on %d worker(s)\n",
                 spec.figure.c_str(), points.size(), pool.jobs());
    const auto results = pool.map(points.size(), [&](std::size_t i) {
        // One artifact prefix per grid point, so parallel points never
        // write over each other's JSONL files.
        const std::string obs = args.obs_out.empty()
                                    ? std::string()
                                    : args.obs_out + "-" + std::to_string(i);
        const grid_point& p = points[i];
        return run_tcp_grid_cell(p.cca, p.ues, p.queue, p.rtt, p.chan, p.on,
                                 fam.seed_base, spec.duration, obs);
    });

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    std::size_t idx = 0;
    for (const double rtt : fam.rtts_ms) {
        for (const std::size_t queue : fam.queues_sdus) {
            for (const int ues : fam.ue_counts) {
                std::printf("\n--- %d UEs, RLC queue %zu SDUs, base RTT %.0f ms ---\n",
                            ues, queue, 2 * rtt);
                stats::table t({"cca", "chan", "L4Span", "OWD ms p10/p25/p50/p75/p90",
                                "per-UE Mbit/s p10..p90", "OWD reduction"});
                for (const auto& cca : fam.ccas) {
                    for (const auto& chan : fam.channels) {
                        double base_median = 0.0;
                        for (const bool on : {false, true}) {
                            const auto& r = results[idx];
                            const auto& p = points[idx];
                            ++idx;
                            std::string reduction = "-";
                            double reduction_pct = 0.0;
                            if (!on) {
                                base_median = r.owd_ms.median();
                            } else if (base_median > 0.0) {
                                reduction_pct =
                                    100.0 * (1.0 - r.owd_ms.median() / base_median);
                                reduction = stats::table::num(reduction_pct, 1) + "%";
                            }
                            t.add_row({cca, chan, on ? "+" : "-",
                                       benchutil::box(r.owd_ms),
                                       benchutil::box(r.tput_mbps, 2), reduction});
                            auto jp = stats::json::object();
                            jp.set("cca", p.cca)
                                .set("chan", p.chan)
                                .set("l4span", p.on)
                                .set("ues", p.ues)
                                .set("rlc_queue_sdus", p.queue)
                                .set("base_rtt_ms", 2 * p.rtt)
                                .set("owd_ms", benchutil::box_json(r.owd_ms))
                                .set("tput_mbps", benchutil::box_json(r.tput_mbps));
                            if (on) jp.set("owd_reduction_pct", reduction_pct);
                            json_points.push(std::move(jp));
                        }
                    }
                }
                t.print();
            }
        }
    }
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- shared_drb (bench_fig16_shared_drb) ------------------------------------

int run_shared_drb(const scenario_spec& spec, const bench_args& args,
                   stats::json* summary_out)
{
    const shared_drb_family& fam = spec.shared_drb;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct share_result {
        double prague_mbps = 0.0;
        double cubic_mbps = 0.0;
        double prague_rtt_ms = 0.0;
        double cubic_rtt_ms = 0.0;
    };

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu strategies on %d worker(s)\n",
                 spec.figure.c_str(), fam.strategies.size(), pool.jobs());
    const auto results = pool.map(fam.strategies.size(), [&](std::size_t i) {
        cell_spec cell;
        cell.num_ues = 1;
        cell.channel = "static";
        cell.cu = cu_mode::l4span;
        cell.separate_drbs_per_class = false;  // the low-end single-DRB UE
        cell.l4s.shared_policy = fam.strategies[i].policy;
        cell.seed = fam.seed;
        cell_scenario s(cell);
        flow_spec prague;
        prague.cca = "prague";
        const int hp = s.add_flow(prague);
        flow_spec cubic;
        cubic.cca = "cubic";
        const int hc = s.add_flow(cubic);
        s.run(spec.duration);

        share_result r;
        r.prague_mbps = s.goodput_mbps(hp);
        r.cubic_mbps = s.goodput_mbps(hc);
        r.prague_rtt_ms = s.rtt_ms(hp).median();
        r.cubic_rtt_ms = s.rtt_ms(hc).median();
        return r;
    });

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"strategy", "L4S tput share (%)", "L4S RTT share (%)",
                    "prague Mbit/s", "cubic Mbit/s"});
    for (std::size_t i = 0; i < fam.strategies.size(); ++i) {
        const auto& r = results[i];
        const double rp = r.prague_mbps, rc = r.cubic_mbps;
        const double tp = r.prague_rtt_ms, tc = r.cubic_rtt_ms;
        const double tput_share = rp + rc > 0 ? 100.0 * rp / (rp + rc) : 0;
        const double rtt_share = tp + tc > 0 ? 100.0 * tp / (tp + tc) : 0;
        t.add_row({fam.strategies[i].label, stats::table::num(tput_share, 1),
                   stats::table::num(rtt_share, 1), stats::table::num(rp, 2),
                   stats::table::num(rc, 2)});
        auto jp = stats::json::object();
        jp.set("strategy", fam.strategies[i].label)
            .set("l4s_tput_share_pct", tput_share)
            .set("l4s_rtt_share_pct", rtt_share)
            .set("prague_mbps", rp)
            .set("cubic_mbps", rc);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- ecn_impairment (bench_ecn_impairment) ----------------------------------

int run_ecn_impairment(const scenario_spec& spec, const bench_args& args,
                       stats::json* summary_out)
{
    const ecn_impairment_family& fam = spec.ecn_impairment;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct grid_point {
        const ecn_impairment_family::transport* cca;
        const ecn_impairment_family::profile* profile;
        bool cross;
    };
    struct point_result {
        stats::sample_set owd_ms;  // pooled over all flows
        double goodput_mbps = 0.0;
        std::uint64_t retransmits = 0;
        std::uint64_t ce_applied = 0;    // bottleneck AQM + CU marks
        std::uint64_t ce_delivered = 0;  // receiver-observed CE packets
        int fallbacks = 0;               // senders that reverted to Not-ECT
        std::uint64_t cross_packets = 0;
    };

    std::vector<grid_point> points;
    for (const auto& cca : fam.ccas)
        for (const auto& pr : fam.profiles)
            for (const bool cross : fam.cross_options)
                points.push_back({&cca, &pr, cross});

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu grid points on %d worker(s)\n",
                 spec.figure.c_str(), points.size(), pool.jobs());
    const auto results = pool.map(points.size(), [&](std::size_t i) {
        const grid_point& p = points[i];
        cell_spec cell;
        cell.num_ues = fam.ues;
        cell.channel = "static";
        cell.cu = cu_mode::l4span;
        cell.seed = fam.seed;
        cell.bottleneck_bps = fam.bottleneck_bps;
        cell.bottleneck_aqm = fam.bottleneck_aqm;
        cell.impair_dl = p.profile->impair;
        cell.impair_dl.force_stage = true;  // "clean" exercises the pass-through
        cell.l4s.drop_non_ecn = p.profile->drop_non_ecn;
        if (p.cross) {
            topo::cross_traffic_spec bg;
            bg.model = "poisson";
            bg.rate_bps = fam.cross_rate_bps;
            cell.cross_traffic.push_back(bg);
        }

        cell_scenario s(cell);
        std::vector<int> handles;
        for (int u = 0; u < fam.ues; ++u) {
            flow_spec f;
            f.cca = p.cca->cca;
            f.ue = u;
            f.max_cwnd = 1536 * 1024;
            handles.push_back(s.add_flow(f));
        }
        s.run(spec.duration);

        point_result r;
        for (int h : handles) {
            for (double v : s.owd_ms(h).raw()) r.owd_ms.add(v);
            r.goodput_mbps += s.goodput_mbps(h);
            r.retransmits += s.flow_retransmits(h);
            r.ce_delivered += s.flow_ce_packets(h);
            if (s.flow_ecn_fallback(h)) ++r.fallbacks;
        }
        r.ce_applied = s.bottleneck_ce_marks();
        if (const core::l4span* l4s = s.l4span_layer()) r.ce_applied += l4s->marks();
        r.cross_packets = s.cross_traffic_packets();
        return r;
    });

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"cca", "impairment", "cross", "OWD ms p50/p90/p99",
                    "sum Mbit/s", "retx", "CE deliv/applied", "fallback"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const grid_point& p = points[i];
        const point_result& r = results[i];
        char owd[96];
        std::snprintf(owd, sizeof(owd), "%.1f/%.1f/%.1f", r.owd_ms.median(),
                      r.owd_ms.percentile(90), r.owd_ms.percentile(99));
        char ce[64];
        std::snprintf(ce, sizeof(ce), "%llu/%llu",
                      static_cast<unsigned long long>(r.ce_delivered),
                      static_cast<unsigned long long>(r.ce_applied));
        t.add_row({p.cca->label, p.profile->name, p.cross ? "poisson" : "-", owd,
                   stats::table::num(r.goodput_mbps, 1),
                   std::to_string(r.retransmits), ce,
                   std::to_string(r.fallbacks)});

        const double ce_ratio =
            r.ce_applied > 0
                ? static_cast<double>(r.ce_delivered) /
                      static_cast<double>(r.ce_applied)
                : 1.0;
        auto jp = stats::json::object();
        jp.set("cca", p.cca->label)
            .set("impairment", p.profile->name)
            .set("cross_traffic", p.cross)
            .set("owd_ms", benchutil::box_json(r.owd_ms))
            .set("owd_p99_ms", r.owd_ms.percentile(99))
            .set("goodput_mbps", r.goodput_mbps)
            .set("retransmits", r.retransmits)
            .set("ce_applied", r.ce_applied)
            .set("ce_delivered", r.ce_delivered)
            .set("ce_delivery_ratio", ce_ratio)
            .set("ecn_fallbacks", r.fallbacks)
            .set("cross_packets", r.cross_packets);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- fault_chaos (bench_fault_chaos) ----------------------------------------

int run_fault_chaos(const scenario_spec& spec, const bench_args& args,
                    stats::json* summary_out)
{
    const fault_chaos_family& fam = spec.fault_chaos;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct point_result {
        stats::sample_set owd_ms;       // pooled over all flows
        stats::sample_set tput_mbps;    // one sample per flow
        stats::sample_set recovery_ms;  // per recovered fault
        double stall_fraction = -1.0;   // media rows only
        std::uint64_t retransmits = 0;
        std::uint64_t injected = 0;
        std::uint64_t rlf_detected = 0;
        std::uint64_t reestablishments = 0;
        std::uint64_t ho_failures = 0;
        std::uint64_t ho_rollbacks = 0;
        std::uint64_t events = 0;
    };

    // The points run serially: each topology shards its cells over `jobs`
    // workers internally, which is where the parallelism already lives.
    const int jobs = args.jobs > 0 ? args.jobs : default_jobs();

    auto run_point = [&](const fault_chaos_family::profile& profile,
                         const fault_chaos_family::transport& tr,
                         const std::string& obs_out) {
        topology_spec tspec;
        tspec.num_cells = fam.num_cells;
        tspec.ues_per_cell = fam.ues_per_cell;
        tspec.cell.cu = cu_mode::l4span;
        tspec.cell.channel = "static";
        tspec.cell.seed = fam.cell_seed;
        tspec.wired_bps = fam.wired_bps;
        tspec.jobs = jobs;
        if (!obs_out.empty()) {
            // Flight recorder on: every injected fault dumps the firing
            // shard's last-N trace events to <prefix>.incident-*.jsonl, and
            // run() writes the end-of-run metrics + merged trace. Measured
            // results must be byte-identical with or without this.
            tspec.cell.obs.enabled = true;
            tspec.cell.obs.out_prefix = obs_out;
        }
        topology topo(tspec);

        std::vector<int> handles;
        for (int ue = 0; ue < topo.num_ues(); ++ue) {
            flow_spec f;
            f.cca = tr.cca;
            f.ue = ue;
            f.max_cwnd = 1536 * 1024;
            if (tr.media) {
                f.fps = 30.0;
                f.frame_bitrate_bps = 6e6;
            }
            handles.push_back(topo.add_flow(f));
        }

        topo::fault_plan_config fc;
        fc.num_cells = fam.num_cells;
        fc.ues_per_cell = fam.ues_per_cell;
        fc.start = sim::from_ms(fam.fault_start_ms);
        fc.end = spec.duration - sim::from_ms(fam.fault_end_margin_ms);
        fc.seed = fam.fault_seed;
        fc.rlf_per_ue_per_sec = profile.rlf_per_ue_per_sec;
        fc.ho_failure_per_ue_per_sec = profile.ho_failure_per_ue_per_sec;
        fc.outages_per_cell_per_sec = profile.outages_per_cell_per_sec;
        fc.flaps_per_cell_per_sec = profile.flaps_per_cell_per_sec;
        if (fc.any_enabled()) topo.apply_faults(topo::fault_plan(fc));

        topo.run(spec.duration);

        point_result r;
        for (const int h : handles) {
            for (double v : topo.owd_ms(h).raw()) r.owd_ms.add(v);
            r.tput_mbps.add(topo.goodput_mbps(h));
            r.retransmits += topo.flow_retransmits(h);
            if (const auto* fs = topo.frame_stats(h)) {
                if (r.stall_fraction < 0.0) r.stall_fraction = 0.0;
                r.stall_fraction += fs->stall_fraction() /
                                    static_cast<double>(handles.size());
            }
        }
        for (double v : topo.recovery_ms()) r.recovery_ms.add(v);
        for (auto cls : {topo::fault_class::rlf, topo::fault_class::handover_failure,
                         topo::fault_class::cell_outage, topo::fault_class::link_flap})
            r.injected += topo.faults_injected(cls);
        r.rlf_detected = topo.rlf_detected();
        r.reestablishments = topo.reestablishments();
        r.ho_failures = topo.ho_failures();
        r.ho_rollbacks = topo.ho_rollbacks();
        r.events = topo.processed_events();
        return r;
    };

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"faults", "transport", "injected", "recov ms p50/p90",
                    "OWD ms p10/p25/p50/p75/p90", "Mbit/s p50", "retx",
                    "stall frac"});
    for (const auto& profile : fam.profiles) {
        for (const auto& tr : fam.transports) {
            const std::string obs =
                args.obs_out.empty()
                    ? std::string()
                    : args.obs_out + "-" + profile.name + "-" + tr.cca +
                          (tr.media ? "-media" : "");
            const auto r = run_point(profile, tr, obs);
            char recov[64];
            std::snprintf(recov, sizeof(recov), "%.0f/%.0f",
                          r.recovery_ms.median(), r.recovery_ms.percentile(90));
            char stall[32];
            if (r.stall_fraction >= 0.0)
                std::snprintf(stall, sizeof(stall), "%.3f", r.stall_fraction);
            else
                std::snprintf(stall, sizeof(stall), "-");
            t.add_row({profile.name, tr.cca + (tr.media ? " (media)" : ""),
                       std::to_string(r.injected),
                       r.recovery_ms.count() ? recov : "-",
                       benchutil::box(r.owd_ms),
                       stats::table::num(r.tput_mbps.median(), 2),
                       std::to_string(r.retransmits), stall});
            auto jp = stats::json::object();
            jp.set("faults", profile.name)
                .set("cca", tr.cca)
                .set("media", tr.media)
                .set("faults_injected", r.injected)
                .set("rlf_detected", r.rlf_detected)
                .set("reestablishments", r.reestablishments)
                .set("ho_failures", r.ho_failures)
                .set("ho_rollbacks", r.ho_rollbacks)
                .set("recovery_ms", benchutil::box_json(r.recovery_ms))
                .set("owd_ms", benchutil::box_json(r.owd_ms))
                .set("tput_mbps", benchutil::box_json(r.tput_mbps))
                .set("retransmits", r.retransmits)
                .set("stall_fraction", r.stall_fraction)
                .set("sim_events", r.events);
            json_points.push(std::move(jp));
        }
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- cell_flows (schema-only generic family) --------------------------------

int run_cell_flows(const scenario_spec& spec, const bench_args& args,
                   stats::json* summary_out)
{
    const cell_flows_family& fam = spec.cell_flows;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct flow_result {
        std::string cca;
        int ue = 0;
        double goodput_mbps = 0.0;
        stats::sample_set owd_ms;
        double rtt_p50_ms = 0.0;
        std::uint64_t retransmits = 0;
    };

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu grid points on %d worker(s)\n",
                 spec.figure.c_str(), fam.seeds.size(), pool.jobs());
    const auto results = pool.map(fam.seeds.size(), [&](std::size_t i) {
        cell_spec cell = fam.cell;
        cell.seed = fam.seeds[i];
        if (!args.obs_out.empty()) {
            cell.obs.enabled = true;
            cell.obs.out_prefix = args.obs_out + "-" + std::to_string(i);
        }
        cell_scenario s(cell);
        std::vector<std::pair<int, flow_result>> handles;
        for (const auto& fl : fam.flows) {
            for (int k = 0; k < fl.count; ++k) {
                flow_spec f = fl.spec;
                f.ue = fl.spec.ue + k;
                flow_result meta;
                meta.cca = f.cca;
                meta.ue = f.ue;
                handles.emplace_back(s.add_flow(f), std::move(meta));
            }
        }
        s.run(spec.duration);
        std::vector<flow_result> out;
        for (auto& [h, meta] : handles) {
            meta.goodput_mbps = s.goodput_mbps(h);
            for (double v : s.owd_ms(h).raw()) meta.owd_ms.add(v);
            meta.rtt_p50_ms = s.rtt_ms(h).median();
            meta.retransmits = s.flow_retransmits(h);
            out.push_back(std::move(meta));
        }
        return out;
    });

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"seed", "flow", "cca", "ue", "Mbit/s",
                    "OWD ms p10/p25/p50/p75/p90", "RTT ms p50", "retx"});
    for (std::size_t i = 0; i < fam.seeds.size(); ++i) {
        for (std::size_t fi = 0; fi < results[i].size(); ++fi) {
            const flow_result& r = results[i][fi];
            t.add_row({std::to_string(fam.seeds[i]), std::to_string(fi), r.cca,
                       std::to_string(r.ue), stats::table::num(r.goodput_mbps, 2),
                       benchutil::box(r.owd_ms),
                       stats::table::num(r.rtt_p50_ms, 1),
                       std::to_string(r.retransmits)});
            auto jp = stats::json::object();
            jp.set("seed", fam.seeds[i])
                .set("flow", static_cast<std::uint64_t>(fi))
                .set("cca", r.cca)
                .set("ue", r.ue)
                .set("goodput_mbps", r.goodput_mbps)
                .set("owd_ms", benchutil::box_json(r.owd_ms))
                .set("rtt_p50_ms", r.rtt_p50_ms)
                .set("retransmits", r.retransmits);
            json_points.push(std::move(jp));
        }
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// The bench flags a family reads besides --jobs.
flag_set family_reads(const std::string& family)
{
    if (family == "shared_drb" || family == "ecn_impairment") return flag_json;
    return flag_json | flag_obs_out;
}

}  // namespace

scenario_spec builtin_scenario(const std::string& name, bool quick)
{
    scenario_spec spec;
    spec.quick = quick;
    if (name == "fig09") {
        spec.figure = "fig09";
        spec.title = "Fig. 9: TCP one-way delay vs per-UE throughput grid";
        spec.paper_ref =
            "L4Span cuts Prague/CUBIC median OWD by ~98% (static), ~97% "
            "(mobile), BBRv2 by ~52%, at <10% median throughput cost";
        spec.family = "tcp_grid";
        spec.duration = sim::from_sec(6);
        if (quick) {  // 2-point CI slice: one cell, with and without L4Span
            spec.tcp_grid.rtts_ms = {19.0};
            spec.tcp_grid.queues_sdus = {256};
            spec.tcp_grid.ue_counts = {16};
            spec.tcp_grid.ccas = {"prague"};
            spec.tcp_grid.channels = {"static"};
        }
        return spec;
    }
    if (name == "fig24") {
        spec.figure = "fig24";
        spec.title = "Fig. 24: BBR and Reno grid";
        spec.paper_ref = "Reno OWD -97%; BBR roughly unchanged medians (no ECN react)";
        spec.family = "tcp_grid";
        spec.duration = sim::from_sec(6);
        // The Fig. 9 grid at the default 19 ms one-way wired delay only.
        spec.tcp_grid.seed_base = 2000;
        spec.tcp_grid.rtts_ms = {19.0};
        spec.tcp_grid.ccas = {"bbr", "reno"};
        if (quick) {  // 2-point CI slice: one Reno cell, with and without L4Span
            spec.tcp_grid.queues_sdus = {256};
            spec.tcp_grid.ue_counts = {16};
            spec.tcp_grid.ccas = {"reno"};
            spec.tcp_grid.channels = {"static"};
        }
        return spec;
    }
    if (name == "fig16") {
        spec.figure = "fig16";
        spec.title = "Fig. 16: shared-DRB marking strategies";
        spec.paper_ref =
            "'original' starves L4S, 'L4S-for-all' starves classic "
            "(~25%), 'classic-for-all' is noisy; L4Span's coupling "
            "lands near 50/50 with the least variance";
        spec.family = "shared_drb";
        spec.duration = sim::from_sec(15);
        spec.shared_drb.strategies = {
            {"original", core::shared_drb_policy::original},
            {"L4S-for-all", core::shared_drb_policy::l4s_all},
            {"classic-for-all", core::shared_drb_policy::classic_all},
            {"L4Span (coupled)", core::shared_drb_policy::coupled},
        };
        if (quick)  // CI slice: the strawman vs the paper's design
            spec.shared_drb.strategies = {spec.shared_drb.strategies.front(),
                                          spec.shared_drb.strategies.back()};
        return spec;
    }
    if (name == "ecn_impairment") {
        spec.figure = "ecn_impairment";
        spec.title = "ECN path-impairment grid (bleach/strip/remark/loss/reorder)";
        spec.paper_ref =
            "robustness item: L4Span + Prague/CUBIC/BBRv2 when the wired path "
            "bleaches or strips ECN (cf. \"A Fresh Look at ECN Traversal\")";
        spec.family = "ecn_impairment";
        spec.duration = sim::from_sec(5);
        ecn_impairment_family& f = spec.ecn_impairment;
        f.profiles.push_back({"clean", false, {}});
        {
            ecn_impairment_family::profile p;
            p.name = "bleach";
            p.impair.bleach_ce = 1.0;  // congestion signal erased, ECT restored
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "remark";
            p.impair.remark_ect1 = 1.0;  // L4S identifier erased -> classic
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "strip";
            p.impair.strip_ect = 1.0;  // path declares the flow non-ECN-capable
            f.profiles.push_back(std::move(p));
        }
        {
            // Same stripped path, but the CU sheds queue instead of letting
            // the demoted flow sit in a seconds-deep RLC backlog.
            ecn_impairment_family::profile p;
            p.name = "strip+drop";
            p.drop_non_ecn = true;
            p.impair.strip_ect = 1.0;
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "loss";
            p.impair.loss = 0.01;
            p.impair.loss_burst = 4.0;  // Gilbert bursts, ~1% stationary loss
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "reorder";
            p.impair.reorder = 0.02;
            p.impair.reorder_gap = 5;
            f.profiles.push_back(std::move(p));
        }
        {
            // Everything at once: the worst path the traversal study saw.
            ecn_impairment_family::profile p;
            p.name = "liar";
            p.impair.bleach_ce = 1.0;
            p.impair.remark_ect1 = 1.0;
            p.impair.loss = 0.005;
            p.impair.loss_burst = 2.0;
            p.impair.reorder = 0.01;
            p.impair.duplicate = 0.005;
            f.profiles.push_back(std::move(p));
        }
        f.ccas = {{"prague", "tcp-prague"},
                  {"quic-prague", "quic-prague"},
                  {"cubic", "tcp-cubic"},
                  {"bbr2", "tcp-bbr2"}};
        if (quick) {  // CI slice: 2 transports x 3 profiles, cross on
            f.ccas = {{"prague", "tcp-prague"}, {"quic-prague", "quic-prague"}};
            f.profiles = {f.profiles[0], f.profiles[3], f.profiles[4]};
            f.cross_options = {true};
            f.ues = 2;
            spec.duration = sim::from_sec(2);
        }
        return spec;
    }
    if (name == "fault_chaos") {
        spec.figure = "fault_chaos";
        spec.title = "Fault-injection chaos grid (fault class x transport)";
        spec.paper_ref =
            "graceful degradation under RLF / handover failure / "
            "cell outage / link flaps: bounded recovery, no wedged "
            "flows, interactive media resumes after blackouts";
        spec.family = "fault_chaos";
        spec.duration = sim::from_sec(6);
        spec.fault_chaos.profiles = {
            {"baseline", 0.0, 0.0, 0.0, 0.0},
            {"rlf", 0.6, 0.0, 0.0, 0.0},
            {"ho-failure", 0.0, 0.6, 0.0, 0.0},
            {"cell-outage", 0.0, 0.0, 0.3, 0.0},
            {"link-flap", 0.0, 0.0, 0.0, 0.5},
            {"chaos-mix", 0.4, 0.3, 0.15, 0.25},
        };
        spec.fault_chaos.transports = {
            {"prague", false}, {"cubic", false}, {"quic-prague", true}};
        if (quick) {
            spec.fault_chaos.profiles = {{"baseline", 0, 0, 0, 0},
                                         {"chaos-mix", 0.4, 0.3, 0.15, 0.25}};
            spec.fault_chaos.transports = {{"prague", false}};
            spec.duration = sim::from_sec(3);
        }
        return spec;
    }
    throw scenario_error("unknown builtin scenario \"" + name +
                         "\" (valid: fig09, fig24, fig16, ecn_impairment, fault_chaos)");
}

int run_scenario(const scenario_spec& spec, const bench_args& args,
                 stats::json* summary_out)
{
    spec.validate();
    refuse_unread(args, family_reads(spec.family), "the " + spec.family + " family");
    if (spec.family == "tcp_grid") return run_tcp_grid(spec, args, summary_out);
    if (spec.family == "shared_drb") return run_shared_drb(spec, args, summary_out);
    if (spec.family == "ecn_impairment")
        return run_ecn_impairment(spec, args, summary_out);
    if (spec.family == "fault_chaos")
        return run_fault_chaos(spec, args, summary_out);
    if (spec.family == "cell_flows") return run_cell_flows(spec, args, summary_out);
    throw scenario_error("run_scenario: unknown family \"" + spec.family + "\"");
}

int builtin_bench_main(int argc, char** argv, const std::string& name)
{
    const flag_set reads = family_reads(builtin_scenario(name, false).family) |
                           flag_quick | flag_export_scenario;
    return bench_main(argc, argv, reads, [&](const bench_args& args) {
        const scenario_spec spec = builtin_scenario(name, args.quick);
        if (!args.export_scenario.empty())
            return write_scenario_file(args.export_scenario, spec);
        return run_scenario(spec, args);
    });
}

}  // namespace l4span::scenario
