// Shared output/formatting helpers for the benchmark harnesses and the
// scenario engine's family runners. They live in the library so
// `l4span_run` and the conformance tests share the
// exact code path the bench binaries print through — byte-identity between
// a bench and the same scenario loaded from JSON holds by construction.
#pragma once

#include <cstdio>
#include <string>

#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"
#include "stats/sample_set.h"
#include "stats/table.h"

namespace l4span::benchutil {

// One congested-cell grid point of the Fig. 9 / Fig. 24 methodology: `ues`
// long-lived downloads of one CCA, pooled OWD samples + per-UE goodput.
struct tcp_grid_result {
    stats::sample_set owd_ms;      // pooled over all UEs
    stats::sample_set tput_mbps;   // one sample per UE
};

inline tcp_grid_result run_tcp_grid_cell(const std::string& cca, int ues,
                                         std::size_t queue, double wired_owd_ms,
                                         const std::string& chan, bool l4span_on,
                                         std::uint64_t seed_base, sim::tick duration,
                                         bool impair_noop = false,
                                         const std::string& obs_out = "")
{
    scenario::cell_spec cell;
    cell.num_ues = ues;
    cell.channel = chan;
    cell.rlc_queue_sdus = queue;
    cell.cu = l4span_on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = seed_base + static_cast<std::uint64_t>(ues) + queue;
    // Pass-through fast-path check: mount all-off impairment stages on both
    // directions; results must be byte-identical to running without them.
    cell.impair_dl.force_stage = impair_noop;
    cell.impair_ul.force_stage = impair_noop;
    // Telemetry hub: the measured results must not change, only the JSONL
    // artifacts appear (CI diffs a traced run against an untraced one).
    if (!obs_out.empty()) {
        cell.obs.enabled = true;
        cell.obs.out_prefix = obs_out;
    }
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < ues; ++u) {
        scenario::flow_spec f;
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

// "p10/p25/p50/p75/p90" summary the paper's box plots report.
inline std::string box(const stats::sample_set& s, int precision = 1)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.*f/%.*f/%.*f/%.*f/%.*f", precision,
                  s.percentile(10), precision, s.percentile(25), precision, s.median(),
                  precision, s.percentile(75), precision, s.percentile(90));
    return buf;
}

// Same box statistics as a JSON object for the machine-readable summaries.
inline stats::json box_json(const stats::sample_set& s)
{
    auto j = stats::json::object();
    j.set("p10", s.percentile(10))
        .set("p25", s.percentile(25))
        .set("p50", s.median())
        .set("p75", s.percentile(75))
        .set("p90", s.percentile(90))
        .set("count", s.count());
    return j;
}

inline void header(const char* title, const char* paper_ref)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n  reproduces: %s\n", title, paper_ref);
    std::printf("================================================================\n");
}

// Writes the per-figure JSON summary when --json was given; the process exit
// status reflects write failures so scripts/CI notice missing artifacts.
inline int finish(const scenario::bench_args& args, const stats::json& summary)
{
    if (args.json_path.empty()) return 0;
    if (!stats::write_text_file(args.json_path, summary.dump())) {
        std::fprintf(stderr, "error: cannot write JSON summary to %s\n",
                     args.json_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    return 0;
}

}  // namespace l4span::benchutil
