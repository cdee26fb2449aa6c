// obs:: telemetry subsystem: trace-ring semantics, registry snapshot
// format, and the two determinism contracts the subsystem is built around —
// (1) tracing on/off leaves every simulated result byte-identical, and
// (2) a jobs-1 and a jobs-4 run produce byte-identical merged metric
// snapshots, trace dumps and flight-recorder incidents.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hub.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "topo/fault_plan.h"

using namespace l4span;

namespace {

TEST(ObsTraceRing, OverwritesOldestAndKeepsSequence)
{
    obs::trace_ring ring;
    ring.reset(4);
    for (std::uint64_t i = 0; i < 6; ++i) {
        obs::trace_event ev{};
        ev.t = static_cast<sim::tick>(i);
        ev.b = i;
        ev.pt = static_cast<std::uint16_t>(obs::point::mac_tx);
        ring.push(ev);
    }
    EXPECT_EQ(ring.total(), 6u);   // lifetime pushes
    EXPECT_EQ(ring.size(), 4u);    // retained tail
    EXPECT_EQ(ring.capacity(), 4u);
    // at(0) is the oldest retained event: push #2 (0 and 1 were overwritten).
    EXPECT_EQ(ring.at(0).b, 2u);
    EXPECT_EQ(ring.at(3).b, 5u);
}

TEST(ObsTraceRing, EventIs32Bytes)
{
    EXPECT_EQ(sizeof(obs::trace_event), 32u);
}

TEST(ObsNames, PointAndReasonTablesAreExhaustive)
{
    for (std::uint16_t p = 0; p < static_cast<std::uint16_t>(obs::point::count); ++p)
        EXPECT_STRNE(obs::point_name(static_cast<obs::point>(p)), "?");
    for (std::uint8_t r = 0; r < static_cast<std::uint8_t>(obs::reason::count); ++r)
        EXPECT_STRNE(obs::reason_name(static_cast<obs::reason>(r)), "?");
}

TEST(ObsRegistry, SnapshotLineFormat)
{
    obs::registry reg;
    std::uint64_t hits = 41;
    reg.add_counter("m.hits", [&] { return hits; });
    reg.add_gauge("m.load", [] { return 0.5; });
    obs::histogram* h = reg.add_histogram("m.lat_ms", {1.0, 10.0});
    h->sample(0.5);
    h->sample(5.0);
    h->sample(100.0);
    ++hits;
    EXPECT_EQ(reg.metric_count(), 3u);
    const std::string line = reg.snapshot_line(sim::from_ms(7), /*shard=*/2);
    EXPECT_NE(line.find("\"m.hits\":42"), std::string::npos) << line;
    EXPECT_NE(line.find("\"m.load\":0.5"), std::string::npos) << line;
    EXPECT_NE(line.find("\"counts\":[1,1,1]"), std::string::npos) << line;
    EXPECT_NE(line.find("\"s\":2"), std::string::npos) << line;
}

// --- single-cell: tracing must not change simulated results ----------------

struct cell_result {
    std::vector<double> owd;
    double goodput = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t marks = 0;
};

cell_result run_cell(bool obs_on)
{
    scenario::cell_spec cell;
    cell.num_ues = 4;
    cell.channel = "mobile";
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 77;
    cell.obs.enabled = obs_on;
    cell.obs.lifecycle_flow = 0;  // follow flow 0 end to end
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < 4; ++u) {
        scenario::flow_spec f;
        f.cca = u % 2 ? "cubic" : "prague";
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(2));
    cell_result r;
    for (int h : handles) {
        for (double v : s.owd_ms(h).raw()) r.owd.push_back(v);
        r.goodput += s.goodput_mbps(h);
        r.delivered += s.delivered_bytes(h);
    }
    r.marks = s.l4span_layer()->marks();
    if (obs_on) {
        obs::hub* hub = s.obs_hub();
        EXPECT_NE(hub, nullptr) << "obs enabled but no hub";
        if (!hub) return r;
        const std::string trace = hub->merged_trace_text();
        // The busy cell must have hit the layer-boundary trace points and
        // the lifecycle mode must have followed flow 0.
        EXPECT_NE(trace.find("\"p\":\"rlc_enqueue\""), std::string::npos);
        EXPECT_NE(trace.find("\"p\":\"mac_tx\""), std::string::npos);
        EXPECT_NE(trace.find("\"p\":\"lifecycle\""), std::string::npos);
        EXPECT_NE(trace.find("\"p\":\"l4span_dl\""), std::string::npos);
        const std::string metrics = hub->metrics_text();
        EXPECT_NE(metrics.find("cell0.l4span.sojourn_ms"), std::string::npos);
        EXPECT_NE(metrics.find("cell0.gnb.slots"), std::string::npos);
    } else {
        EXPECT_EQ(s.obs_hub(), nullptr);
    }
    return r;
}

TEST(ObsCellScenario, TracingOnOffByteIdenticalResults)
{
    const cell_result off = run_cell(false);
    const cell_result on = run_cell(true);
    ASSERT_EQ(off.owd.size(), on.owd.size());
    for (std::size_t i = 0; i < off.owd.size(); ++i)
        ASSERT_EQ(off.owd[i], on.owd[i]) << "OWD sample " << i << " diverged";
    EXPECT_EQ(off.goodput, on.goodput);
    EXPECT_EQ(off.delivered, on.delivered);
    EXPECT_EQ(off.marks, on.marks);
}

// --- multi-cell: sharded runs must merge byte-identically ------------------

struct topo_result {
    std::string metrics;
    std::string trace;
    std::vector<std::string> incidents;
    std::uint64_t injected = 0;
};

topo_result run_chaos(int jobs)
{
    scenario::topology_spec spec;
    spec.num_cells = 3;
    spec.ues_per_cell = 2;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "static";
    spec.cell.seed = 5;
    spec.cell.obs.enabled = true;
    spec.wired_bps = 50e6;
    spec.jobs = jobs;
    scenario::topology topo(spec);
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = ue;
        topo.add_flow(f);
    }
    topo::fault_plan_config fc;
    fc.num_cells = spec.num_cells;
    fc.ues_per_cell = spec.ues_per_cell;
    fc.start = sim::from_ms(600);
    fc.end = sim::from_ms(2200);
    fc.seed = 9;
    fc.rlf_per_ue_per_sec = 0.5;
    fc.outages_per_cell_per_sec = 0.3;
    fc.flaps_per_cell_per_sec = 0.4;
    topo.apply_faults(topo::fault_plan(fc));
    topo.run(sim::from_sec(3));

    obs::hub* hub = topo.obs_hub();
    topo_result r;
    r.metrics = hub->metrics_text();
    r.trace = hub->merged_trace_text();
    for (std::size_t i = 0; i < hub->incident_count(); ++i)
        r.incidents.push_back(hub->incident_names()[i] + "\n" +
                              hub->incident_text(i));
    for (auto cls : {topo::fault_class::rlf, topo::fault_class::cell_outage,
                     topo::fault_class::link_flap})
        r.injected += topo.faults_injected(cls);
    return r;
}

TEST(ObsTopology, ShardedRunsMergeByteIdentically)
{
    const topo_result j1 = run_chaos(1);
    const topo_result j4 = run_chaos(4);
    EXPECT_EQ(j1.metrics, j4.metrics);
    EXPECT_EQ(j1.trace, j4.trace);
    ASSERT_EQ(j1.incidents.size(), j4.incidents.size());
    for (std::size_t i = 0; i < j1.incidents.size(); ++i)
        EXPECT_EQ(j1.incidents[i], j4.incidents[i]) << "incident " << i;
    EXPECT_EQ(j1.injected, j4.injected);
}

TEST(ObsTopology, FlightRecorderCapturesFaults)
{
    const topo_result r = run_chaos(1);
    ASSERT_GT(r.injected, 0u) << "chaos plan injected nothing";
    ASSERT_FALSE(r.incidents.empty()) << "faults fired but no incident dumps";
    // Every incident dump ends at its trigger: a fault_fire event with the
    // fault-class reason, preceded by the last N events of normal traffic.
    bool saw_fault_fire = false;
    for (const auto& inc : r.incidents)
        if (inc.find("\"p\":\"fault_fire\"") != std::string::npos)
            saw_fault_fire = true;
    EXPECT_TRUE(saw_fault_fire);
    // Merged trace timestamps are non-decreasing (the (t, shard, seq) sort).
    long long prev = -1;
    std::size_t pos = 0;
    while ((pos = r.trace.find("{\"t\":", pos)) != std::string::npos) {
        const long long t = std::atoll(r.trace.c_str() + pos + 5);
        EXPECT_GE(t, prev);
        prev = t;
        ++pos;
    }
}

TEST(ObsHub, InvariantNoteRecordsIncident)
{
    obs::config cfg;
    cfg.enabled = true;
    obs::hub hub(1, cfg);
    hub.note_invariant(0, "queue_bounded", true, sim::from_ms(1));
    EXPECT_EQ(hub.incident_count(), 0u);  // passing checks only trace
    hub.note_invariant(0, "queue_bounded", false, sim::from_ms(2));
    ASSERT_EQ(hub.incident_count(), 1u);
    EXPECT_NE(hub.incident_text(0).find("\"p\":\"invariant\""),
              std::string::npos);
}

}  // namespace

TEST(ObsHub, UnwritableArtifactPathFailsTheRun)
{
    // An out_prefix inside a missing directory must fail run() with the
    // path in the message, not finish quietly with no artifacts.
    const std::string prefix = "no-such-obs-dir/p";
    const auto expect_write_error = [&](auto&& run) {
        try {
            run();
            ADD_FAILURE() << "run() reported no write failure";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(prefix + ".metrics.jsonl"),
                      std::string::npos)
                << e.what();
        }
    };

    scenario::cell_spec cs;
    cs.obs.enabled = true;
    cs.obs.out_prefix = prefix;
    scenario::cell_scenario s(cs);
    s.add_flow(scenario::flow_spec{});
    expect_write_error([&] { s.run(sim::from_ms(100)); });

    scenario::topology_spec ts;
    ts.num_cells = 1;
    ts.cell = cs;
    scenario::topology topo(ts);
    topo.add_flow(scenario::flow_spec{});
    expect_write_error([&] { topo.run(sim::from_ms(100)); });
}
