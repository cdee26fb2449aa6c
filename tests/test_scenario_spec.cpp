// Conformance suite for the scenario engine (ISSUE: schema-driven
// experiment harness). Pins the three load-bearing properties:
//
//   1. export -> parse -> export is the identity on bytes, for every
//      builtin scenario in both full and --quick form;
//   2. running a builtin through the scenario engine and running its
//      exported JSON back through parse + run_scenario produces
//      byte-identical stdout and JSON summaries — the bench binary and
//      `l4span_run` are thin wrappers over exactly these two calls, so
//      this is the bench-vs-driver byte-identity claim, in-process;
//   3. results are independent of --jobs (1 vs 4 on a scenario file).
//
// Plus: every committed scenario file is an export fixpoint and equals its
// builtin's export, omitted keys take pinned defaults, file-path round-trip
// via write_scenario_file/load_scenario_file, and validation diagnostics
// naming the offending key and source line.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "stats/json.h"

using namespace l4span;
using scenario::bench_args;
using scenario::builtin_scenario;
using scenario::export_scenario;
using scenario::parse_scenario_text;
using scenario::run_scenario;
using scenario::scenario_error;
using scenario::scenario_spec;

namespace {

// Runs a spec with stdout captured; returns {stdout bytes, summary dump}.
struct run_output {
    std::string out;
    std::string summary;
};

run_output run_captured(const scenario_spec& spec, int jobs)
{
    bench_args args;
    args.jobs = jobs;
    args.quick = spec.quick;
    stats::json summary;
    testing::internal::CaptureStdout();
    const int rc = run_scenario(spec, args, &summary);
    run_output r;
    r.out = testing::internal::GetCapturedStdout();
    r.summary = summary.dump();
    EXPECT_EQ(rc, 0);
    return r;
}

const char* k_builtins[] = {"fig09", "fig24", "fig16", "ecn_impairment", "fault_chaos"};

std::string read_fixture(const std::string& rel)
{
    std::string text;
    EXPECT_TRUE(stats::read_text_file(std::string(L4SPAN_SOURCE_ROOT) + "/" + rel, text))
        << rel;
    return text;
}

}  // namespace

TEST(scenario_spec, export_parse_export_is_identity_for_builtins)
{
    for (const char* name : k_builtins) {
        for (bool quick : {false, true}) {
            SCOPED_TRACE(std::string(name) + (quick ? " --quick" : ""));
            const auto spec = builtin_scenario(name, quick);
            const std::string once = export_scenario(spec).dump();
            const auto reparsed = parse_scenario_text(once, "<roundtrip>");
            EXPECT_EQ(export_scenario(reparsed).dump(), once);
        }
    }
}

// The bench binaries call builtin_scenario() + run_scenario(); l4span_run
// calls parse + run_scenario(). Equal output here means a bench and its
// exported scenario file produce byte-identical stdout and summaries.
TEST(scenario_spec, builtin_and_reparsed_export_run_byte_identical)
{
    for (const char* name : k_builtins) {
        SCOPED_TRACE(name);
        const auto spec = builtin_scenario(name, /*quick=*/true);
        const auto reparsed =
            parse_scenario_text(export_scenario(spec).dump(), "<export>");
        const auto a = run_captured(spec, /*jobs=*/2);
        const auto b = run_captured(reparsed, /*jobs=*/2);
        EXPECT_EQ(a.out, b.out);
        EXPECT_EQ(a.summary, b.summary);
        EXPECT_FALSE(a.out.empty());
        EXPECT_NE(a.summary.find("\"figure\""), std::string::npos);
    }
}

TEST(scenario_spec, results_independent_of_jobs)
{
    const auto spec = builtin_scenario("fig09", /*quick=*/true);
    const auto serial = run_captured(spec, /*jobs=*/1);
    const auto sharded = run_captured(spec, /*jobs=*/4);
    EXPECT_EQ(serial.out, sharded.out);
    EXPECT_EQ(serial.summary, sharded.summary);
}

TEST(scenario_spec, file_roundtrip_through_disk)
{
    const auto spec = builtin_scenario("fig16", /*quick=*/true);
    const std::string path = testing::TempDir() + "l4span_scn_rt.json";
    ASSERT_EQ(scenario::write_scenario_file(path, spec), 0);
    const auto loaded = scenario::load_scenario_file(path);
    EXPECT_EQ(export_scenario(loaded).dump(), export_scenario(spec).dump());
    std::remove(path.c_str());
}

TEST(scenario_spec, missing_file_names_the_path)
{
    try {
        scenario::load_scenario_file("/nonexistent/l4span.json");
        FAIL() << "unreadable path must throw";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/l4span.json"),
                  std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, unknown_key_error_names_key_and_line)
{
    auto doc = export_scenario(builtin_scenario("fig09", true));
    // Inject an unknown key into the tcp_grid section and find its line.
    std::string text = doc.dump();
    const std::string needle = "\"seed_base\"";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, "\"rtts_msec\": [1.0], ");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "unknown key must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rtts_msec"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
        // Diagnostic lists the valid keys so the fix is one glance away.
        EXPECT_NE(msg.find("rtts_ms"), std::string::npos) << msg;
    }
}

TEST(scenario_spec, out_of_range_value_names_key)
{
    auto doc = export_scenario(builtin_scenario("ecn_impairment", true));
    std::string text = doc.dump();
    const std::string needle = "\"loss\": 0";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), "\"loss\": 2.5");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "loss probability > 1 must be rejected";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("loss"), std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, wrong_schema_tag_rejected)
{
    EXPECT_THROW(
        parse_scenario_text(R"({"schema": "l4span-scenario-v0"})", "<test>"),
        scenario_error);
    EXPECT_THROW(parse_scenario_text(R"({"figure": "x"})", "<test>"),
                 scenario_error);
}

TEST(scenario_spec, unknown_family_lists_valid_ones)
{
    try {
        parse_scenario_text(
            R"({"schema": "l4span-scenario-v1", "figure": "x", "title": "t",)"
            R"( "paper_ref": "r", "family": "mesh", "quick": false,)"
            R"( "duration_s": 1})",
            "<test>");
        FAIL() << "unknown family must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mesh"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cell_flows"), std::string::npos) << msg;
    }
}

TEST(scenario_spec, builtin_unknown_name_throws)
{
    EXPECT_THROW(builtin_scenario("fig99", false), scenario_error);
}

// The families that start no obs:: hub turn --obs-out away by name before
// running anything, instead of silently writing nothing.
TEST(scenario_spec, families_without_telemetry_reject_obs_out)
{
    bench_args args;
    args.obs_out = "obs/p";
    for (const char* name : {"fig16", "ecn_impairment"}) {
        try {
            run_scenario(builtin_scenario(name, true), args);
            ADD_FAILURE() << name << " accepted --obs-out";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--obs-out"), std::string::npos)
                << e.what();
        }
    }
}

// Every committed scenario file is in export form already: loading and
// re-exporting it reproduces the file's bytes.
TEST(scenario_spec, committed_scenario_files_are_export_fixpoints)
{
    std::vector<std::string> files{"bench/perf/workloads/fig09_grid.json"};
    for (const auto& e : std::filesystem::directory_iterator(
             std::string(L4SPAN_SOURCE_ROOT) + "/examples/scenarios"))
        files.push_back("examples/scenarios/" + e.path().filename().string());
    ASSERT_GE(files.size(), 6u);
    for (const auto& f : files) {
        SCOPED_TRACE(f);
        const std::string text = read_fixture(f);
        EXPECT_EQ(export_scenario(parse_scenario_text(text, f)).dump(), text);
    }
}

TEST(scenario_spec, builtin_exports_match_committed_files)
{
    struct pin {
        const char* name;
        bool quick;
        const char* file;
    };
    const pin pins[] = {
        {"fig09", true, "examples/scenarios/fig09_quick.json"},
        {"fig16", false, "examples/scenarios/fig16.json"},
        {"ecn_impairment", false, "examples/scenarios/ecn_impairment.json"},
        {"fault_chaos", true, "examples/scenarios/fault_chaos_quick.json"},
        {"fig09", false, "bench/perf/workloads/fig09_grid.json"},
    };
    for (const auto& p : pins) {
        SCOPED_TRACE(p.file);
        EXPECT_EQ(export_scenario(builtin_scenario(p.name, p.quick)).dump(),
                  read_fixture(p.file));
    }
}

// A document holding only the required keys exports to these goldens. A
// round trip cannot catch a drifted default (export writes every key);
// this does, including the derived ones (strategy label <- policy,
// transport label <- cca, profile name <- "profile<i>").
TEST(scenario_spec, omitted_keys_take_pinned_defaults)
{
    struct golden {
        const char* doc;  // body after the schema key
        const char* exported;
    };
    const golden goldens[] = {
        {R"("duration_s": 1, "family": "tcp_grid",)"
         R"( "tcp_grid": {"rtts_ms": [0], "queues_sdus": [1],)"
         R"( "ue_counts": [1], "ccas": ["prague"],)"
         R"( "channels": ["static"]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":1,"family":"tcp_grid","tcp_grid":{"seed_base":1000,)"
         R"("rtts_ms":[0],"queues_sdus":[1],"ue_counts":[1],)"
         R"("ccas":["prague"],"channels":["static"]}})"},
        {R"("duration_s": 1, "family": "shared_drb",)"
         R"( "shared_drb": {"strategies": [{}, {"policy": "l4s_all"}]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":1,"family":"shared_drb","shared_drb":{"seed":71,)"
         R"("strategies":[{"label":"coupled","policy":"coupled"},)"
         R"({"label":"l4s_all","policy":"l4s_all"}]}})"},
        {R"("duration_s": 1, "family": "ecn_impairment",)"
         R"( "ecn_impairment": {"cross_options": [true], "ccas": [{},)"
         R"( {"cca": "cubic"}], "profiles": [{},)"
         R"( {"impair": {"flow_policies": [{}]}}]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":1,"family":"ecn_impairment",)"
         R"("ecn_impairment":{"seed":71,"ues":4,"bottleneck_bps":80000000,)"
         R"("bottleneck_aqm":"dualpi2","cross_rate_bps":30000000,)"
         R"("cross_options":[true],"ccas":[{"cca":"prague",)"
         R"("label":"prague"},{"cca":"cubic","label":"cubic"}],)"
         R"("profiles":[{"name":"profile0","drop_non_ecn":false,)"
         R"("impair":{"remark_ect1":0,"bleach_ce":0,"strip_ect":0,"loss":0,)"
         R"("loss_burst":1,"reorder":0,"reorder_gap":3,)"
         R"("reorder_hold_max_ms":20,"duplicate":0,"force_stage":false,)"
         R"("flow_policies":[]}},{"name":"profile1","drop_non_ecn":false,)"
         R"("impair":{"remark_ect1":0,"bleach_ce":0,"strip_ect":0,"loss":0,)"
         R"("loss_burst":1,"reorder":0,"reorder_gap":3,)"
         R"("reorder_hold_max_ms":20,"duplicate":0,"force_stage":false,)"
         R"("flow_policies":[{"remark_ect1":0,"bleach_ce":0,"strip_ect":0,)"
         R"("loss":0,"loss_burst":1,"reorder":0,"reorder_gap":3,)"
         R"("reorder_hold_max_ms":20,"duplicate":0,)"
         R"("force_stage":false}]}}]}})"},
        {R"("duration_s": 2, "family": "fault_chaos",)"
         R"( "fault_chaos": {"profiles": [{}], "transports": [{}]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":2,"family":"fault_chaos",)"
         R"("fault_chaos":{"num_cells":3,"ues_per_cell":3,"cell_seed":41,)"
         R"("wired_bps":100000000,"fault_seed":23,"fault_start_ms":800,)"
         R"("fault_end_margin_ms":500,"profiles":[{"name":"profile0",)"
         R"("rlf_per_ue_per_sec":0,"ho_failure_per_ue_per_sec":0,)"
         R"("outages_per_cell_per_sec":0,"flaps_per_cell_per_sec":0}],)"
         R"("transports":[{"cca":"prague","media":false}]}})"},
        {R"("duration_s": 1, "family": "cell_flows",)"
         R"( "cell_flows": {"seeds": [1], "flows": [{}]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":1,"family":"cell_flows","cell_flows":{"seeds":[1],)"
         R"("cell":{"num_ues":1,"channel":"static","rlc_queue_sdus":16384,)"
         R"("cu":"l4span","seed":1,"separate_drbs_per_class":false,)"
         R"("bottleneck_bps":0,"bottleneck_aqm":"fifo",)"
         R"("wred":{"l4s":{"min_bytes":12112,"max_bytes":96896,"max_p":1},)"
         R"("classic":{"min_bytes":48448,"max_bytes":387584,"max_p":0.1},)"
         R"("ecn_drop_bytes":2097152,"l4s_weight":4,"max_bytes":16777216},)"
         R"("ul_bottleneck_bps":0,"l4s":{"sojourn_threshold_ms":10,)"
         R"("coherence_time_ms":24.9,"short_circuit":true,)"
         R"("drop_non_ecn":false,"error_aware":true,"classic_beta":0.5,)"
         R"("mss":1400,"shared_policy":"coupled","prune_horizon_ms":1000},)"
         R"("impair_dl":{"remark_ect1":0,"bleach_ce":0,"strip_ect":0,)"
         R"("loss":0,"loss_burst":1,"reorder":0,"reorder_gap":3,)"
         R"("reorder_hold_max_ms":20,"duplicate":0,"force_stage":false,)"
         R"("flow_policies":[]},"impair_ul":{"remark_ect1":0,"bleach_ce":0,)"
         R"("strip_ect":0,"loss":0,"loss_burst":1,"reorder":0,)"
         R"("reorder_gap":3,"reorder_hold_max_ms":20,"duplicate":0,)"
         R"("force_stage":false,"flow_policies":[]},"cross_traffic":[]},)"
         R"("flows":[{"cca":"prague","ue":0,"count":1,"start_ms":0,)"
         R"("stop_ms":-1,"flow_bytes":0,"wired_owd_ms":19,"mss":1400,)"
         R"("max_cwnd":4194304,"media_max_bps":38000000,)"
         R"("media_start_bps":1000000,"fps":0,"frame_bitrate_bps":8000000,)"
         R"("keyframe_interval_s":2,"keyframe_scale":4,)"
         R"("frame_deadline_ms":50}]}})"},
        {R"("duration_s": 2, "family": "cell_flows",)"
         R"( "cell_flows": {"seeds": [1],)"
         R"( "cell": {"wred": {"l4s": {"max_bytes": 1},)"
         R"( "classic": {"max_bytes": 1}}, "l4s": {}, "impair_dl": {},)"
         R"( "impair_ul": {"flow_policies": [{}]},)"
         R"( "cross_traffic": [{"rate_bps": 1}]}, "flows": [{}]}})",
         R"({"schema":"l4span-scenario-v1","figure":"scenario",)"
         R"("title":"scenario","paper_ref":"custom scenario","quick":false,)"
         R"("duration_s":2,"family":"cell_flows","cell_flows":{"seeds":[1],)"
         R"("cell":{"num_ues":1,"channel":"static","rlc_queue_sdus":16384,)"
         R"("cu":"l4span","seed":1,"separate_drbs_per_class":false,)"
         R"("bottleneck_bps":0,"bottleneck_aqm":"fifo",)"
         R"("wred":{"l4s":{"min_bytes":0,"max_bytes":1,"max_p":1},)"
         R"("classic":{"min_bytes":0,"max_bytes":1,"max_p":1},)"
         R"("ecn_drop_bytes":2097152,"l4s_weight":4,"max_bytes":16777216},)"
         R"("ul_bottleneck_bps":0,"l4s":{"sojourn_threshold_ms":10,)"
         R"("coherence_time_ms":24.9,"short_circuit":true,)"
         R"("drop_non_ecn":false,"error_aware":true,"classic_beta":0.5,)"
         R"("mss":1400,"shared_policy":"coupled","prune_horizon_ms":1000},)"
         R"("impair_dl":{"remark_ect1":0,"bleach_ce":0,"strip_ect":0,)"
         R"("loss":0,"loss_burst":1,"reorder":0,"reorder_gap":3,)"
         R"("reorder_hold_max_ms":20,"duplicate":0,"force_stage":false,)"
         R"("flow_policies":[]},"impair_ul":{"remark_ect1":0,"bleach_ce":0,)"
         R"("strip_ect":0,"loss":0,"loss_burst":1,"reorder":0,)"
         R"("reorder_gap":3,"reorder_hold_max_ms":20,"duplicate":0,)"
         R"("force_stage":false,"flow_policies":[{"remark_ect1":0,)"
         R"("bleach_ce":0,"strip_ect":0,"loss":0,"loss_burst":1,"reorder":0,)"
         R"("reorder_gap":3,"reorder_hold_max_ms":20,"duplicate":0,)"
         R"("force_stage":false}]},"cross_traffic":[{"model":"poisson",)"
         R"("rate_bps":1,"pkt_bytes":1200,"ecn":"not_ect","start_ms":0,)"
         R"("stop_ms":-1,"uplink":false}]},"flows":[{"cca":"prague","ue":0,)"
         R"("count":1,"start_ms":0,"stop_ms":-1,"flow_bytes":0,)"
         R"("wired_owd_ms":19,"mss":1400,"max_cwnd":4194304,)"
         R"("media_max_bps":38000000,"media_start_bps":1000000,"fps":0,)"
         R"("frame_bitrate_bps":8000000,"keyframe_interval_s":2,)"
         R"("keyframe_scale":4,"frame_deadline_ms":50}]}})"},
    };
    for (const auto& g : goldens) {
        const std::string doc =
            std::string(R"({"schema": "l4span-scenario-v1", )") + g.doc;
        SCOPED_TRACE(doc);
        EXPECT_EQ(export_scenario(parse_scenario_text(doc, "<minimal>")).dump_compact(),
                  g.exported);
    }
}

namespace {

// `node` with `value` placed at `where` (object keys, or array indices in
// decimal); a missing last key is appended.
stats::json with_value(const stats::json& node, const std::vector<std::string>& where,
                       std::size_t depth, const stats::json& value)
{
    if (depth == where.size()) return value;
    if (node.is_array()) {
        auto out = stats::json::array();
        for (std::size_t i = 0; i < node.elements().size(); ++i)
            out.push(std::to_string(i) == where[depth]
                         ? with_value(node.elements()[i], where, depth + 1, value)
                         : node.elements()[i]);
        return out;
    }
    auto out = stats::json::object();
    bool found = false;
    for (const auto& [k, v] : node.members()) {
        found = found || k == where[depth];
        out.set(k, k == where[depth] ? with_value(v, where, depth + 1, value) : v);
    }
    if (!found) out.set(where[depth], value);
    return out;
}

// Walks `node` (bound by schema table `table`, at key path `path`) and
// calls `check(where, path, row)` for every row of every table reached.
// Arrays of objects are entered through their first entry.
template <class F>
void walk(const stats::json& ref, const stats::json& node, const std::string& table,
          const std::vector<std::string>& where, const std::string& path,
          std::set<std::string>& seen, F&& check)
{
    seen.insert(table);
    for (const auto& row : ref.find(table)->elements()) {
        const std::string key = row.find("key")->as_string();
        check(where, path, row);
        const stats::json* child = row.find("table");
        const stats::json* v = node.find(key);
        if (!child || !v) continue;
        auto w = where;
        w.push_back(key);
        if (v->is_object()) {
            walk(ref, *v, child->as_string(), w, path + "." + key, seen, check);
        } else if (v->is_array() && !v->elements().empty()) {
            w.push_back("0");
            walk(ref, v->elements()[0], child->as_string(), w, path + "." + key + "[0]",
                 seen, check);
        }
    }
}

// Scenario documents that between them reach every schema table.
std::vector<stats::json> sample_documents()
{
    std::vector<stats::json> docs;
    for (const char* name : k_builtins)
        docs.push_back(export_scenario(builtin_scenario(name, true)));
    docs.push_back(export_scenario(parse_scenario_text(
        R"({"schema": "l4span-scenario-v1", "duration_s": 2, "family": "cell_flows",)"
        R"( "cell_flows": {"seeds": [1], "cell": {"impair_ul": {"flow_policies": [{}]},)"
        R"( "cross_traffic": [{"rate_bps": 1}]}, "flows": [{}]}})",
        "<sample>")));
    return docs;
}

}  // namespace

// Every row of every schema table rejects a wrong-typed value and, where it
// declares one, an out-of-range value or an unknown name, and the
// diagnostic names the full key path and a source line.
TEST(scenario_spec, every_schema_key_diagnoses_bad_values_with_path_and_line)
{
    const stats::json ref = scenario::schema_reference();
    std::set<std::string> seen;
    int probes = 0;
    for (const auto& doc : sample_documents()) {
        walk(ref, doc, "scenario", {}, "$", seen,
             [&](const std::vector<std::string>& where, const std::string& path,
                 const stats::json& row) {
                 const std::string key = row.find("key")->as_string();
                 auto w = where;
                 w.push_back(key);
                 const stats::json& def = *row.find("default");
                 std::vector<stats::json> bad{def.is_number() ? stats::json("x")
                                                              : stats::json(1)};
                 if (const stats::json* lo = row.find("min")) {
                     const double hi = row.find("max")->as_number();
                     std::vector<double> outside{lo->as_number() - 1.0, hi * 2.0 + 1.0};
                     for (double d : outside) {
                         if (!def.is_array()) {
                             bad.emplace_back(d);
                         } else {
                             auto a = stats::json::array();
                             a.push(d);
                             bad.push_back(std::move(a));
                         }
                     }
                 }
                 if (row.find("valid")) bad.emplace_back("no-such-name");
                 for (const auto& value : bad) {
                     ++probes;
                     const std::string text = with_value(doc, w, 0, value).dump();
                     SCOPED_TRACE(path + "." + key + " = " + value.dump_compact());
                     try {
                         parse_scenario_text(text, "<probe>");
                         ADD_FAILURE() << "accepted";
                     } catch (const scenario_error& e) {
                         const std::string msg = e.what();
                         EXPECT_NE(msg.find(path + "." + key), std::string::npos) << msg;
                         EXPECT_NE(msg.find("(line "), std::string::npos) << msg;
                     }
                 }
             });
    }
    for (const auto& [table, rows] : ref.members()) EXPECT_TRUE(seen.count(table)) << table;
    EXPECT_GT(probes, 300);
}

namespace {

std::string trim(std::string s)
{
    const auto b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return "";
    return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

std::string strip_backticks(std::string s)
{
    std::erase(s, '`');
    return s;
}

// "2^53" or a JSON number.
double doc_number(const std::string& token)
{
    const auto caret = token.find('^');
    if (caret != std::string::npos)
        return std::pow(std::stod(token.substr(0, caret)), std::stod(token.substr(caret + 1)));
    return std::stod(token);
}

}  // namespace

// docs/SCENARIOS.md documents each schema table after a
// `<!-- schema: NAME -->` marker, one row per key: | key | type | default |
// range | notes |. Key order, defaults (a JSON literal in backticks, or
// *required*) and ranges ([min, max], or the valid names) must match the
// tables the parser runs on.
TEST(scenario_spec, scenarios_md_matches_schema_tables)
{
    const stats::json ref = scenario::schema_reference();
    std::istringstream md(read_fixture("docs/SCENARIOS.md"));
    std::string line, table;
    std::set<std::string> documented;
    std::size_t row_index = 0;
    while (std::getline(md, line)) {
        if (line.rfind("<!-- schema: ", 0) == 0) {
            table = line.substr(13, line.find(" -->") - 13);
            ASSERT_NE(ref.find(table), nullptr) << "unknown table " << table;
            EXPECT_TRUE(documented.insert(table).second) << table;
            row_index = 0;
            continue;
        }
        if (table.empty()) continue;
        if (line.rfind("|", 0) != 0) {
            if (row_index > 0) {
                EXPECT_EQ(row_index, ref.find(table)->elements().size()) << table;
                table.clear();
            }
            continue;
        }
        std::vector<std::string> cells;
        std::stringstream ss(line.substr(1));
        for (std::string c; std::getline(ss, c, '|');) cells.push_back(trim(c));
        if (cells[0] == "key" || cells[0].rfind("---", 0) == 0) continue;
        ASSERT_GE(cells.size(), 4u) << line;
        const auto& rows = ref.find(table)->elements();
        ASSERT_LT(row_index, rows.size()) << table << ": extra row " << line;
        const stats::json& row = rows[row_index++];
        SCOPED_TRACE(table + ": " + line);
        EXPECT_EQ(strip_backticks(cells[0]), row.find("key")->as_string());
        const stats::json& def = *row.find("default");
        if (row.find("required")->as_bool()) {
            EXPECT_EQ(cells[2], "*required*");
        } else if (!row.find("table") || def.is_array()) {
            EXPECT_EQ(stats::json::parse(strip_backticks(cells[2])).dump_compact(),
                      def.dump_compact());
        }
        if (const stats::json* lo = row.find("min")) {
            const std::string range = cells[3];
            ASSERT_TRUE(range.size() > 2 && range.front() == '[' && range.back() == ']');
            const auto comma = range.find(", ");
            EXPECT_EQ(doc_number(range.substr(1, comma - 1)), lo->as_number());
            EXPECT_EQ(doc_number(range.substr(comma + 2, range.size() - comma - 3)),
                      row.find("max")->as_number());
        } else if (const stats::json* valid = row.find("valid")) {
            EXPECT_EQ(strip_backticks(cells[3]), valid->as_string());
        } else {
            EXPECT_EQ(cells[3], "");
        }
    }
    // Per-flow policies are impairments minus flow_policies; the impairment
    // table documents both.
    for (const auto& [name, rows] : ref.members()) {
        if (name != "flow_policy") {
            EXPECT_TRUE(documented.count(name)) << name;
        }
    }
}
