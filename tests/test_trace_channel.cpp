// Trace-driven channel subsystem: replay semantics of chan::trace_channel,
// actionable configuration errors, the committed example traces, the
// record→replay bit-identity contract (including across an X2/Xn handover,
// proving the trace cursor migrates with the UE), and jobs-independence of
// trace-driven sharded topology runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "chan/fading.h"
#include "chan/trace_channel.h"
#include "chan/trace_io.h"
#include "core/l4span.h"
#include "scenario/cell.h"
#include "scenario/topology.h"
#include "sim/event_loop.h"
#include "topo/mobility_model.h"

using namespace l4span;
using namespace l4span::chan;

namespace {

std::shared_ptr<const trace_data> tiny_trace(sim::tick duration = sim::from_ms(30))
{
    auto t = std::make_shared<trace_data>();
    t->name = "tiny";
    t->records = {
        {0, 10, 20, 1000},
        {sim::from_ms(10), 12, 30, 1500},
        {sim::from_ms(20), 5, 40, 500},
    };
    t->duration = duration;
    return t;
}

trace_config tiny_config()
{
    trace_config cfg;
    cfg.data = tiny_trace();
    return cfg;
}

}  // namespace

// --- replay semantics -------------------------------------------------------

TEST(trace_channel, step_function_and_loop)
{
    trace_channel ch(tiny_config());
    EXPECT_EQ(ch.mcs(0), 10);
    EXPECT_EQ(ch.mcs(sim::from_ms(5)), 10);
    EXPECT_EQ(ch.mcs(sim::from_ms(10)), 12);
    EXPECT_EQ(ch.mcs(sim::from_ms(19)), 12);
    EXPECT_EQ(ch.mcs(sim::from_ms(20)), 5);
    EXPECT_EQ(ch.mcs(sim::from_ms(29)), 5);
    // Wraps at duration (30 ms) and keeps wrapping.
    EXPECT_EQ(ch.mcs(sim::from_ms(30)), 10);
    EXPECT_EQ(ch.mcs(sim::from_ms(45)), 12);
    EXPECT_EQ(ch.mcs(sim::from_ms(80)), 5);
}

TEST(trace_channel, no_loop_holds_last_record)
{
    trace_config cfg = tiny_config();
    cfg.loop = false;
    trace_channel ch(cfg);
    EXPECT_EQ(ch.mcs(sim::from_ms(45)), 5);
    EXPECT_EQ(ch.mcs(sim::from_sec(10)), 5);
}

TEST(trace_channel, offset_and_time_scale)
{
    trace_config shifted = tiny_config();
    shifted.offset = sim::from_ms(10);
    trace_channel ch1(shifted);
    EXPECT_EQ(ch1.mcs(0), 12);  // starts 10 ms into the trace

    trace_config fast = tiny_config();
    fast.time_scale = 2.0;
    trace_channel ch2(fast);
    EXPECT_EQ(ch2.mcs(sim::from_ms(5)), 12);   // trace time 10 ms
    EXPECT_EQ(ch2.mcs(sim::from_ms(11)), 5);   // trace time 22 ms
}

TEST(trace_channel, earlier_time_does_not_rewind)
{
    trace_channel ch(tiny_config());
    EXPECT_EQ(ch.mcs(sim::from_ms(25)), 5);
    EXPECT_EQ(ch.mcs(sim::from_ms(1)), 5);  // no rewind, holds current record
}

TEST(trace_channel, prb_cap_and_snr_follow_the_records)
{
    trace_channel ch(tiny_config());
    EXPECT_EQ(ch.prb_cap(0), 20);
    EXPECT_EQ(ch.prb_cap(sim::from_ms(10)), 30);
    // The representative SNR re-derives the replayed MCS.
    trace_channel ch2(tiny_config());
    for (sim::tick t = 0; t < sim::from_ms(30); t += sim::from_ms(1))
        EXPECT_EQ(mcs_from_snr(ch2.snr_db(t)), ch2.mcs(t));
    // A fading channel caps nothing and is re-drawn at handover; a trace
    // migrates.
    fading_channel fad(channel_profile::vehicular(), sim::rng(1));
    EXPECT_EQ(fad.prb_cap(0), -1);
    EXPECT_FALSE(fad.migrates_on_handover());
    EXPECT_TRUE(ch.migrates_on_handover());
}

TEST(trace_channel, synth_trace_is_deterministic)
{
    synth_trace_spec spec;
    spec.seed = 99;
    spec.slots = 500;
    const trace_data a = synth_trace(spec);
    const trace_data b = synth_trace(spec);
    EXPECT_EQ(a.records, b.records);
    ASSERT_EQ(a.records.size(), 500u);
    EXPECT_EQ(a.duration, 500 * spec.slot);
    spec.seed = 100;
    EXPECT_NE(synth_trace(spec).records, a.records);
}

// --- actionable configuration errors ----------------------------------------

namespace {

std::string thrown_message(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(trace_channel, config_errors_are_actionable)
{
    trace_config null_data;
    std::string msg = thrown_message([&] { trace_channel ch(null_data); });
    EXPECT_NE(msg.find("load_trace_file"), std::string::npos) << msg;

    trace_config empty;
    empty.data = std::make_shared<trace_data>();
    msg = thrown_message([&] { trace_channel ch(empty); });
    EXPECT_NE(msg.find("zero-length"), std::string::npos) << msg;

    trace_config bad_scale = tiny_config();
    bad_scale.time_scale = 0.0;
    msg = thrown_message([&] { trace_channel ch(bad_scale); });
    EXPECT_NE(msg.find("time_scale"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.0 = real time"), std::string::npos) << msg;

    trace_config bad_duration = tiny_config();
    auto short_dur = std::make_shared<trace_data>(*bad_duration.data);
    short_dur->duration = short_dur->records.back().timestamp;  // not past the end
    bad_duration.data = short_dur;
    msg = thrown_message([&] { trace_channel ch(bad_duration); });
    EXPECT_NE(msg.find("duration"), std::string::npos) << msg;
}

TEST(trace_channel, unknown_trace_path_names_path_and_formats)
{
    const std::string msg = thrown_message(
        [] { load_trace_file("/no/such/dir/missing_trace.csv"); });
    EXPECT_NE(msg.find("/no/such/dir/missing_trace.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gen_traces.py"), std::string::npos) << msg;
}

TEST(trace_channel, unreadable_trace_path_names_path_and_reason)
{
    // A directory opens but cannot be read: the error says so, instead of
    // parsing whatever a failed read left behind.
    const std::string dir = std::string(L4SPAN_SOURCE_ROOT) + "/traces";
    const std::string msg = thrown_message([&] { load_trace_file(dir); });
    EXPECT_NE(msg.find("\"" + dir + "\""), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::make_error_code(std::errc::is_a_directory).message()),
              std::string::npos)
        << msg;
}

TEST(trace_channel, cell_requires_trace_assignments)
{
    sim::event_loop loop;
    scenario::cell_spec cs;
    cs.channel = "trace";  // but no ue_traces
    const std::string msg =
        thrown_message([&] { scenario::cell c(loop, cs); });
    EXPECT_NE(msg.find("ue_traces"), std::string::npos) << msg;
    EXPECT_NE(msg.find("synth_trace"), std::string::npos) << msg;

    // channel_by_name: "trace" is data, not a profile; unknowns list options.
    const std::string trace_msg =
        thrown_message([] { scenario::channel_by_name("trace"); });
    EXPECT_NE(trace_msg.find("ue_traces"), std::string::npos) << trace_msg;
    const std::string unknown_msg =
        thrown_message([] { scenario::channel_by_name("warp"); });
    EXPECT_NE(unknown_msg.find("static, pedestrian, vehicular, mobile, trace"),
              std::string::npos)
        << unknown_msg;
}

// --- committed example traces -----------------------------------------------

TEST(trace_channel, committed_example_traces_load_and_replay)
{
    for (const char* file : {"nr_scope_fdd600_downtown.csv",
                             "nr_scope_tdd2500_driving.csv",
                             "synthetic_squarewave.csv"}) {
        const auto t = load_trace_file(std::string(L4SPAN_SOURCE_ROOT) +
                                       "/traces/" + file);
        EXPECT_EQ(t->records.size(), 4000u) << file;
        EXPECT_EQ(t->duration, sim::from_sec(4)) << file;
        trace_config cfg;
        cfg.data = t;
        trace_channel ch(cfg);
        int distinct_lo = 99, distinct_hi = -2;
        for (sim::tick at = 0; at < sim::from_sec(8); at += sim::from_ms(1)) {
            const int m = ch.mcs(at);
            distinct_lo = std::min(distinct_lo, m);
            distinct_hi = std::max(distinct_hi, m);
        }
        EXPECT_GE(distinct_lo, 0) << file;
        EXPECT_GT(distinct_hi, distinct_lo) << file;  // real capacity variation
    }
}

// The profile mean SNR is a per-trace value: the mean of min_snr_db(mcs) over
// the records in record order, bit-identical for every channel replaying
// the trace, also when the channels are built on several threads at once.
TEST(trace_channel, profile_mean_snr_is_one_per_trace_value)
{
    const auto t = load_trace_file(std::string(L4SPAN_SOURCE_ROOT) +
                                   "/traces/nr_scope_tdd2500_driving.csv");
    double sum = 0.0;
    for (const auto& r : t->records) sum += min_snr_db(r.mcs);
    const double want = sum / static_cast<double>(t->records.size());

    trace_config cfg;
    cfg.data = t;
    std::vector<double> got(8, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&got, &cfg, i] { got[i] = trace_channel(cfg).profile().mean_snr_db; });
    for (auto& th : threads) th.join();
    for (const double g : got) EXPECT_EQ(g, want);

    // A copy derives its own mean, from its own records.
    auto copy = std::make_shared<trace_data>(*t);
    copy->records.resize(1);
    EXPECT_EQ(copy->mean_snr_db(), min_snr_db(copy->records[0].mcs));
}

// --- record → replay bit-identity -------------------------------------------

namespace {

struct linklog_entry {
    int cell = 0;
    ran::rnti_t rnti = 0;
    sim::tick when = 0;
    int mcs = 0;
    int prbs = 0;
    std::uint32_t bytes = 0;

    bool operator==(const linklog_entry&) const = default;
};

struct run_capture {
    std::vector<linklog_entry> linklog;
    std::vector<double> owd;
    std::vector<double> rtt;
    std::uint64_t delivered = 0;
    std::uint64_t events = 0;
    std::uint64_t handovers = 0;

    bool operator==(const run_capture&) const = default;
};

// One-UE topology run (optionally with a mid-run handover between two
// cells); `spec_channel`/`traces` select fading vs replay. jobs=1 so a
// single recorder can observe both cells.
run_capture run_one(int cells, const std::string& channel,
                    std::vector<trace_config> traces, bool handover,
                    sim::tick duration)
{
    scenario::topology_spec spec;
    spec.num_cells = cells;
    spec.ues_per_cell = 1;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = channel;
    spec.cell.ue_traces = std::move(traces);
    spec.cell.seed = 17;
    spec.jobs = 1;
    scenario::topology topo(spec);

    run_capture cap;
    for (int c = 0; c < cells; ++c) {
        topo.cell_at(c).set_linklog_handler(
            [&cap, c](ran::rnti_t rnti, sim::tick now, int mcs, int prbs,
                      std::uint32_t bytes) {
                cap.linklog.push_back({c, rnti, now, mcs, prbs, bytes});
            });
    }

    scenario::flow_spec f;
    f.cca = "prague";
    f.ue = 0;
    const int h = topo.add_flow(f);
    if (handover) topo.schedule_handover(duration / 2, 0, 1);
    topo.run(duration);

    for (double v : topo.owd_ms(h).raw()) cap.owd.push_back(v);
    for (double v : topo.rtt_ms(h).raw()) cap.rtt.push_back(v);
    cap.delivered = topo.delivered_bytes(h);
    cap.events = topo.processed_events();
    cap.handovers = topo.handovers_completed();
    return cap;
}

// Stitches the recorded per-slot DCI stream of the flow-carrying UE into
// one trace (entries for other UEs never occur: they carry no traffic).
std::shared_ptr<const trace_data> stitch_trace(const run_capture& cap)
{
    auto t = std::make_shared<trace_data>();
    t->name = "recorded";
    for (const auto& e : cap.linklog)
        t->records.push_back({e.when, e.mcs, e.prbs, e.bytes});
    return t;
}

}  // namespace

TEST(trace_replay_golden, fading_run_replays_bit_identically)
{
    const sim::tick duration = sim::from_sec(2);
    const run_capture recorded =
        run_one(1, "vehicular", {}, /*handover=*/false, duration);
    ASSERT_GT(recorded.linklog.size(), 1000u);
    ASSERT_GT(recorded.delivered, 1u << 20);

    // Round-trip the recording through the CSV codec on disk, like a real
    // NR-Scope capture would arrive (slot timestamps are exact in us).
    const std::string path = ::testing::TempDir() + "/recorded_fading.csv";
    ASSERT_TRUE(save_trace_csv(path, *stitch_trace(recorded)));
    trace_config cfg;
    cfg.data = load_trace_file(path);
    cfg.loop = false;
    ASSERT_EQ(cfg.data->records.size(), recorded.linklog.size());

    const run_capture replayed = run_one(1, "trace", {cfg}, false, duration);
    // The full per-slot MCS/PRB/TBS stream and every end-to-end flow metric
    // are bit-identical to the recorded run.
    EXPECT_EQ(replayed, recorded);
}

TEST(trace_replay_golden, cursor_survives_x2_handover)
{
    const sim::tick duration = sim::from_sec(2);
    const run_capture recorded =
        run_one(2, "vehicular", {}, /*handover=*/true, duration);
    ASSERT_EQ(recorded.handovers, 1u);
    ASSERT_GT(recorded.linklog.size(), 1000u);
    // The UE logged from both cells: before the handover as cell 0's RNTI,
    // after it under the fresh RNTI the target assigned.
    EXPECT_TRUE(std::any_of(recorded.linklog.begin(), recorded.linklog.end(),
                            [](const linklog_entry& e) { return e.cell == 1; }));

    trace_config cfg;
    cfg.data = stitch_trace(recorded);
    cfg.loop = false;
    const run_capture replayed = run_one(2, "trace", {cfg}, true, duration);
    // Bit-identity across detach_ue/attach_ue proves the replay cursor
    // migrated with the UE instead of restarting at the target cell.
    EXPECT_EQ(replayed, recorded);
}

// --- sharded determinism over traces ----------------------------------------

namespace {

run_capture run_sharded_traces(int jobs)
{
    synth_trace_spec fast;
    fast.name = "fast";
    fast.seed = 5;
    fast.slots = 3000;
    fast.slot = sim::from_ms(1);
    fast.coherence = sim::from_ms(34);
    synth_trace_spec slow = fast;
    slow.name = "slow";
    slow.seed = 6;
    slow.coherence = sim::from_ms(140);

    trace_config a;
    a.data = std::make_shared<const trace_data>(synth_trace(fast));
    trace_config b;
    b.data = std::make_shared<const trace_data>(synth_trace(slow));
    b.offset = sim::from_ms(700);

    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 2;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "trace";
    spec.cell.ue_traces = {a, b};
    spec.cell.seed = 23;
    spec.jobs = jobs;
    scenario::topology topo(spec);

    std::vector<int> handles;
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = ue % 2 ? "cubic" : "prague";
        f.ue = ue;
        handles.push_back(topo.add_flow(f));
    }
    topo::mobility_config mob;
    mob.num_cells = 2;
    mob.ues_per_cell = 2;
    mob.handovers_per_ue_per_sec = 1.0;
    mob.start = sim::from_ms(400);
    mob.end = sim::from_ms(1600);
    mob.seed = 3;
    topo.apply(topo::mobility_model(mob).schedule());
    topo.run(sim::from_sec(2));

    run_capture cap;
    for (const int h : handles) {
        for (double v : topo.owd_ms(h).raw()) cap.owd.push_back(v);
        for (double v : topo.rtt_ms(h).raw()) cap.rtt.push_back(v);
        cap.delivered += topo.delivered_bytes(h);
    }
    cap.events = topo.processed_events();
    cap.handovers = topo.handovers_completed();
    return cap;
}

}  // namespace

TEST(trace_replay, sharded_trace_run_is_byte_identical_for_any_worker_count)
{
    const run_capture serial = run_sharded_traces(1);
    const run_capture parallel = run_sharded_traces(4);
    EXPECT_GT(serial.handovers, 0u);
    EXPECT_FALSE(serial.owd.empty());
    EXPECT_EQ(serial, parallel);
}
