// Shared output/formatting helpers for the benchmark harnesses and the
// scenario engine's family runners. They live in the library so
// `l4span_run` and the conformance tests share the
// exact code path the bench binaries print through — byte-identity between
// a bench and the same scenario loaded from JSON holds by construction.
#pragma once

#include <cstdio>
#include <string>

#include "scenario/grid_runner.h"
#include "stats/json.h"
#include "stats/sample_set.h"
#include "stats/table.h"

namespace l4span::benchutil {

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
