// Byte-identity regression harness for the hot-path memory-layout work.
//
// Every layout optimization (packet arena, SN rings, flat tables, SoA
// profile table, radix-heap event queue) argues it cannot change
// simulation output; this suite pins that argument down executably. A
// fig09-style congested-cell grid is rendered to its full formatted table
// serially and through the thread pool, and the two strings must match
// byte for byte — any change to RNG draw order, floating-point association
// or iteration order shows up as a diff here before it reaches CI's
// bench-level diffs. (The fault-chaos slice has the same guarantee in
// test_fault_chaos.chaos_run_is_byte_identical_for_any_worker_count.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "stats/sample_set.h"
#include "stats/table.h"

using namespace l4span;

namespace {

struct grid_point {
    const char* cca;
    bool l4span_on;
};

// One small fig09-quick-shaped point: a congested static-channel cell with
// `ues` long-lived downloads, pooled OWD + per-UE goodput.
std::string run_point(const grid_point& gp)
{
    scenario::cell_spec cell;
    cell.num_ues = 4;
    cell.channel = "static";
    cell.rlc_queue_sdus = 16384;
    cell.cu = gp.l4span_on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = 41;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        scenario::flow_spec f;
        f.cca = gp.cca;
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(1.5));

    stats::sample_set owd;
    char buf[64];
    std::string row(gp.cca);
    row += gp.l4span_on ? "/l4span" : "/baseline";
    for (int h : handles) {
        for (double v : s.owd_ms(h).raw()) owd.add(v);
        std::snprintf(buf, sizeof buf, " tput=%.6f", s.goodput_mbps(h));
        row += buf;
    }
    std::snprintf(buf, sizeof buf, " owd_p50=%.6f owd_p90=%.6f n=%zu",
                  owd.percentile(50), owd.percentile(90), owd.count());
    row += buf;
    return row;
}

// Renders the whole grid through a pool of `jobs` workers.
std::string run_grid(int jobs)
{
    const std::vector<grid_point> grid = {
        {"prague", false}, {"prague", true}, {"cubic", false}, {"cubic", true}};
    scenario::grid_runner pool(jobs);
    const auto rows =
        pool.map(grid.size(), [&](std::size_t i) { return run_point(grid[i]); });
    std::string out;
    for (const auto& r : rows) {
        out += r;
        out += '\n';
    }
    return out;
}

TEST(byte_identity, fig09_grid_serial_equals_jobs4)
{
    const std::string serial = run_grid(1);
    const std::string parallel = run_grid(4);
    // The table must be non-trivial (all four points produced samples)...
    EXPECT_NE(serial.find("prague/l4span"), std::string::npos);
    EXPECT_NE(serial.find("cubic/baseline"), std::string::npos);
    EXPECT_EQ(serial.find("n=0 "), std::string::npos);
    // ...and byte-identical across worker counts.
    EXPECT_EQ(serial, parallel);
}

TEST(byte_identity, repeated_runs_are_deterministic)
{
    // Same seed, same build: two serial runs must agree bit-for-bit (the
    // in-process guarantee behind the committed-baseline diffs in CI).
    EXPECT_EQ(run_grid(1), run_grid(1));
}

}  // namespace
