// Fig. 14 — Throughput fairness among staggered flows under L4Span:
//  (a) three Prague flows, similar RTT;
//  (b) three Prague flows, distinct RTTs (25/82/57 ms);
//  (c) two Prague + one CUBIC;
//  (d) two Prague + one BBRv2.
// Flows start at 0/10/20 s and stop at 60/50/40 s.
//
// The four cases are independent cells; they run in parallel via
// scenario::grid_runner and print in the paper's (a)-(d) order.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct fairness_case {
    const char* title;
    std::vector<std::string> ccas;
    std::vector<double> owd_ms;
};

struct fairness_result {
    // Time-averaged goodput per flow at each sampled second (t = 2, 6, ...).
    std::vector<std::array<double, 3>> rows;
    std::array<double, 3> shares;  // fully shared window [20, 40) s
    double jain;
};

fairness_result run_case(const fairness_case& c, sim::tick duration)
{
    scenario::cell_spec cell;
    cell.num_ues = 3;
    cell.channel = "static";
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 61;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int i = 0; i < 3; ++i) {
        scenario::flow_spec f;
        f.cca = c.ccas[static_cast<std::size_t>(i)];
        f.ue = i;
        f.wired_owd_ms = c.owd_ms[static_cast<std::size_t>(i)];
        f.start_time = sim::from_sec(10 * i);
        f.stop_time = sim::from_sec(60 - 10 * i);
        handles.push_back(s.add_flow(f));
    }
    s.run(duration);

    fairness_result r{};
    for (int sec = 2; sec < 60; sec += 4) {
        std::array<double, 3> row{};
        for (std::size_t fi = 0; fi < handles.size(); ++fi) {
            double m = 0;
            for (int k = 0; k < 20; ++k)
                m += s.goodput_series(handles[fi])
                         .mbps_at(sim::from_sec(sec) + k * sim::from_ms(100)) /
                     20.0;
            row[fi] = m;
        }
        r.rows.push_back(row);
    }
    double sum = 0.0;
    for (std::size_t fi = 0; fi < handles.size(); ++fi) {
        double m = 0;
        for (int k = 0; k < 200; ++k)
            m += s.goodput_series(handles[fi])
                     .mbps_at(sim::from_sec(20) + k * sim::from_ms(100)) /
                 200.0;
        r.shares[fi] = m;
        sum += m;
    }
    double jain_den = 0.0;
    for (double v : r.shares) jain_den += v * v;
    r.jain = jain_den > 0 ? sum * sum / (3.0 * jain_den) : 0.0;
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Fig. 14: fairness among staggered flows",
                      "equal shares in the fully-shared window; higher-RTT Prague "
                      "converges more slowly; CUBIC/BBRv2 coexist via MAC fairness");
    std::vector<fairness_case> cases{
        {"(a) 3x Prague, similar RTT", {"prague", "prague", "prague"},
         {19.0, 19.0, 19.0}},
        {"(b) 3x Prague, distinct RTT (25/82/57 ms)", {"prague", "prague", "prague"},
         {12.5, 41.0, 28.5}},
        {"(c) 2x Prague + CUBIC", {"prague", "cubic", "prague"}, {19.0, 19.0, 19.0}},
        {"(d) 2x Prague + BBRv2", {"prague", "bbr2", "prague"}, {19.0, 19.0, 19.0}},
    };
    if (args.quick) cases.resize(1);
    const sim::tick duration = sim::from_sec(60);

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "fig14: %zu cases on %d worker(s)\n", cases.size(),
                 pool.jobs());
    const auto results = pool.map(
        cases.size(), [&](std::size_t i) { return run_case(cases[i], duration); });

    auto summary = stats::json::object();
    summary.set("figure", "fig14").set("quick", args.quick);
    auto json_points = stats::json::array();
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
        const auto& r = results[ci];
        std::printf("\n--- %s ---\n", cases[ci].title);
        stats::table t({"t (s)", "flow1 Mbit/s", "flow2 Mbit/s", "flow3 Mbit/s"});
        std::size_t row = 0;
        for (int sec = 2; sec < 60; sec += 4, ++row) {
            t.add_row({std::to_string(sec), stats::table::num(r.rows[row][0], 1),
                       stats::table::num(r.rows[row][1], 1),
                       stats::table::num(r.rows[row][2], 1)});
        }
        t.print();
        std::printf(
            "shared window [20,40)s: %.1f / %.1f / %.1f Mbit/s, Jain index %.3f\n",
            r.shares[0], r.shares[1], r.shares[2], r.jain);
        auto jp = stats::json::object();
        auto shares = stats::json::array();
        for (double v : r.shares) shares.push(v);
        jp.set("case", cases[ci].title)
            .set("shares_mbps", std::move(shares))
            .set("jain_index", r.jain);
        json_points.push(std::move(jp));
    }
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
