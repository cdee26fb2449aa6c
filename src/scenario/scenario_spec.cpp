#include "scenario/scenario_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace l4span::scenario {

namespace {

// Largest integer a double (and therefore a JSON number) carries exactly.
constexpr double k_max_exact = 9007199254740992.0;  // 2^53
constexpr double k_inf = std::numeric_limits<double>::infinity();

[[noreturn]] void fail(const std::string& origin, int line, const std::string& msg)
{
    std::string out = origin + ": " + msg;
    if (line > 0) out += " (line " + std::to_string(line) + ")";
    throw scenario_error(out);
}

// The object node being bound: every diagnostic names the origin, the full
// key path and a 1-based source line.
struct site {
    const std::string& origin;
    std::string path;  // "$" for the document, "cell_flows.cell", ...
    int line;

    std::string key_path(const std::string& key) const { return path + "." + key; }
};

[[noreturn]] void fail_key(const site& at, const std::string& key,
                           const stats::json& v, const std::string& msg)
{
    fail(at.origin, v.line() > 0 ? v.line() : at.line,
         "key \"" + at.key_path(key) + "\" " + msg);
}

// Enum <-> schema name list (string sets map each name to itself). One list
// drives parsing, export and the "(valid: ...)" text.
template <class E>
struct name_list {
    const char* what;  // names the list in diagnostics ("CU mode", ...)
    std::vector<std::pair<E, std::string>> entries;

    const E* find(const std::string& name) const
    {
        for (const auto& [value, n] : entries)
            if (n == name) return &value;
        return nullptr;
    }
    std::string name_of(const E& value) const
    {
        for (const auto& [v, n] : entries)
            if (v == value) return n;
        if constexpr (std::is_same_v<E, std::string>) return value;  // any string exports
        else return {};
    }
    std::string valid() const
    {
        std::string out;
        for (const auto& e : entries) out += (out.empty() ? "" : ", ") + e.second;
        return out;
    }
};

name_list<std::string> string_set(const char* what, std::vector<std::string> names)
{
    name_list<std::string> l{what, {}};
    for (auto& n : names) l.entries.emplace_back(n, n);
    return l;
}

const name_list<cu_mode> k_cu_modes{"CU mode",
                                    {{cu_mode::none, "none"},
                                     {cu_mode::l4span, "l4span"},
                                     {cu_mode::dualpi2_ran, "dualpi2_ran"},
                                     {cu_mode::tcran, "tcran"}}};
const name_list<net::ecn> k_ecns{"ECN codepoint",
                                 {{net::ecn::not_ect, "not_ect"},
                                  {net::ecn::ect0, "ect0"},
                                  {net::ecn::ect1, "ect1"},
                                  {net::ecn::ce, "ce"}}};
const name_list<core::shared_drb_policy> k_policies{
    "shared-DRB policy",
    {{core::shared_drb_policy::original, "original"},
     {core::shared_drb_policy::l4s_all, "l4s_all"},
     {core::shared_drb_policy::classic_all, "classic_all"},
     {core::shared_drb_policy::coupled, "coupled"}}};
const auto k_aqms = string_set("AQM", {"fifo", "dualpi2", "wred"});
const auto k_models = string_set("model", {"poisson", "cbr"});
const auto k_channels =
    string_set("channel", {"static", "pedestrian", "vehicular", "mobile"});
const auto k_families = string_set(
    "family", {"tcp_grid", "shared_drb", "ecn_impairment", "fault_chaos", "cell_flows"});

// --- field descriptors --------------------------------------------------------
// One row per schema key: the key, how it binds to its member (unit
// conversion, range, enum names, nested table) and how it exports. Parse
// and export walk the same rows in the same order, which is what makes
// export -> parse -> export the byte identity.

enum class unit { plain, ms, sec, ms_forever };  // ms_forever: -1 = never

template <class S>
struct field {
    const char* key;
    double lo = -k_inf, hi = k_inf;  // inclusive range of numbers and array entries
    std::string valid{};            // enum names
    const char* table = nullptr;  // nested table name (objects, object arrays)
    bool required = false;
    field&& need() &&
    {
        required = true;
        return std::move(*this);
    }
    // Runs for keys present in the document; absent ones keep the default.
    std::function<void(const site&, const stats::json& v, S&)> read{};
    std::function<stats::json(const S&)> write{};  // null result: not exported
    std::function<void(stats::json&)> describe_table{};
};

template <class S>
struct table {
    const char* name;
    std::vector<field<S>> rows;
    // Derived defaults, applied after binding entry `index` of its array.
    void (*finish)(S&, std::size_t index) = nullptr;
};

template <class S>
void bind_node(const std::string& origin, const stats::json& node, std::string path,
               S& out, const table<S>& t, std::size_t index = 0)
{
    if (!node.is_object())
        fail(origin, node.line(), "\"" + path + "\" must be an object");
    const site at{origin, std::move(path), node.line()};
    for (const auto& row : t.rows) {
        if (const stats::json* v = node.find(row.key))
            row.read(at, *v, out);
        else if (row.required)
            fail(origin, at.line,
                 "missing required key \"" + at.key_path(row.key) + "\"");
    }
    // Unknown-key sweep: the rows are the complete schema of this object,
    // so anything else is a typo worth naming, with the valid keys.
    for (const auto& [key, value] : node.members()) {
        const auto is_key = [&k = key](const field<S>& row) { return k == row.key; };
        if (std::any_of(t.rows.begin(), t.rows.end(), is_key)) continue;
        std::string valid;
        for (const auto& row : t.rows)
            valid += (valid.empty() ? "" : ", ") + std::string(row.key);
        fail(origin, value.line() > 0 ? value.line() : at.line,
             "unknown key \"" + at.key_path(key) + "\" (valid: " + valid + ")");
    }
    if (t.finish) t.finish(out, index);
}

template <class S>
stats::json export_table(const S& s, const table<S>& t)
{
    auto j = stats::json::object();
    for (const auto& row : t.rows)
        if (auto v = row.write(s); !v.is_null()) j.set(row.key, std::move(v));
    return j;
}

// Appends {table name: [row, ...]} for `t` and every table nested in it.
template <class S>
void describe(const table<S>& t, stats::json& out)
{
    if (out.find(t.name)) return;
    S def{};
    if (t.finish) t.finish(def, 0);
    auto rows = stats::json::array();
    for (const auto& r : t.rows) {
        auto j = stats::json::object();
        j.set("key", r.key).set("required", r.required).set("default", r.write(def));
        if (r.lo > -k_inf || r.hi < k_inf) j.set("min", r.lo).set("max", r.hi);
        if (!r.valid.empty()) j.set("valid", r.valid);
        if (r.table) j.set("table", r.table);
        rows.push(std::move(j));
    }
    out.set(t.name, std::move(rows));
    for (const auto& r : t.rows)
        if (r.describe_table) r.describe_table(out);
}

template <class M>
M read_scalar(const site& at, const std::string& key, const stats::json& v,
              double lo, double hi, unit u)
{
    if constexpr (std::is_same_v<M, bool>) {
        if (!v.is_bool()) fail_key(at, key, v, "must be true or false");
        return v.as_bool();
    } else if constexpr (std::is_same_v<M, std::string>) {
        if (!v.is_string()) fail_key(at, key, v, "must be a string");
        return v.as_string();
    } else {
        if (!v.is_number()) fail_key(at, key, v, "must be a number");
        const double d = v.as_number();
        if (d < lo || d > hi)
            fail_key(at, key, v,
                     "must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                         "], got " + std::to_string(d));
        // Time fields round to the nearest tick (nanosecond). Unlike from_ms's
        // truncation, that makes tick -> decimal -> tick the identity for
        // every tick below 2^51 ns, which keeps export -> parse -> export exact.
        if (u == unit::ms_forever && d < 0.0) return static_cast<M>(-1);
        if (u != unit::plain) {
            const auto tick = u == unit::sec ? sim::k_second : sim::k_millisecond;
            return static_cast<M>(std::llround(d * static_cast<double>(tick)));
        }
        if (std::is_integral_v<M> && d != std::floor(d))
            fail_key(at, key, v, "must be an integer, got " + std::to_string(d));
        return static_cast<M>(d);
    }
}

template <class M>
stats::json write_scalar(const M& m, unit u)
{
    if constexpr (std::is_same_v<M, sim::tick>) {
        if (u == unit::ms_forever && m < 0) return -1.0;
        if (u != unit::plain) return u == unit::sec ? sim::to_sec(m) : sim::to_ms(m);
    }
    if constexpr (std::is_same_v<M, bool> || std::is_same_v<M, std::string>)
        return m;
    else
        return static_cast<double>(m);
}

// Number, integer, bool or string member.
template <class S, class M>
field<S> val(const char* key, M S::*m, double lo = -k_inf, double hi = k_inf,
             unit u = unit::plain)
{
    field<S> f{key, lo, hi};
    f.read = [=](const site& at, const stats::json& v, S& s) {
        s.*m = read_scalar<M>(at, key, v, lo, hi, u);
    };
    f.write = [=](const S& s) { return write_scalar(s.*m, u); };
    return f;
}

// Enum (or string-set) member travelling as one of `names`.
template <class S, class M>
field<S> pick(const char* key, M S::*m, const name_list<M>& names)
{
    field<S> f{key};
    f.valid = names.valid();
    f.read = [key, m, &names](const site& at, const stats::json& v, S& s) {
        const auto name = read_scalar<std::string>(at, key, v, 0, 0, unit::plain);
        const M* value = names.find(name);
        if (!value)
            fail(at.origin, v.line() > 0 ? v.line() : at.line,
                 "key \"" + at.key_path(key) + "\": unknown " + names.what + " \"" +
                     name + "\" (valid: " + names.valid() + ")");
        s.*m = *value;
    };
    f.write = [m, &names](const S& s) { return stats::json(names.name_of(s.*m)); };
    return f;
}

// Nested object, bound from a default-constructed member.
template <class S, class M>
field<S> sub(const char* key, M S::*m, const table<M>& t)
{
    field<S> f{key};
    f.table = t.name;
    f.describe_table = [&t](stats::json& out) { describe(t, out); };
    f.read = [key, m, &t](const site& at, const stats::json& v, S& s) {
        s.*m = M{};
        bind_node(at.origin, v, at.key_path(key), s.*m, t);
    };
    f.write = [m, &t](const S& s) { return export_table(s.*m, t); };
    return f;
}

const std::vector<stats::json>& entries(const site& at, const char* key,
                                        const stats::json& v, bool need)
{
    if (!v.is_array()) fail_key(at, key, v, "must be an array");
    if (need && v.elements().empty()) fail_key(at, key, v, "must not be empty");
    return v.elements();
}

// Array of objects; `required` arrays must be present and non-empty.
template <class S, class M>
field<S> list(const char* key, std::vector<M> S::*m, const table<M>& t,
              bool need = true)
{
    field<S> f{key};
    f.table = t.name;
    f.required = need;
    f.describe_table = [&t](stats::json& out) { describe(t, out); };
    f.read = [=, &t](const site& at, const stats::json& v, S& s) {
        const auto& es = entries(at, key, v, need);
        (s.*m).clear();
        for (std::size_t i = 0; i < es.size(); ++i) {
            M e{};
            const auto path = at.key_path(key) + "[" + std::to_string(i) + "]";
            bind_node(at.origin, es[i], path, e, t, i);
            (s.*m).push_back(std::move(e));
        }
    };
    f.write = [m, &t](const S& s) {
        auto j = stats::json::array();
        for (const auto& e : s.*m) j.push(export_table(e, t));
        return j;
    };
    return f;
}

// Required, non-empty array of scalars, each in [lo, hi].
template <class S, class M>
field<S> list(const char* key, std::vector<M> S::*m, double lo = -k_inf,
              double hi = k_inf)
{
    field<S> f{key, lo, hi};
    f.required = true;
    f.read = [=](const site& at, const stats::json& v, S& s) {
        const auto& es = entries(at, key, v, true);
        (s.*m).clear();
        for (std::size_t i = 0; i < es.size(); ++i) {
            const auto entry = std::string(key) + "[" + std::to_string(i) + "]";
            (s.*m).push_back(read_scalar<M>(at, entry, es[i], lo, hi, unit::plain));
        }
    };
    f.write = [=](const S& s) {
        auto j = stats::json::array();
        for (const auto& e : s.*m) j.push(write_scalar<M>(e, unit::plain));
        return j;
    };
    return f;
}

// --- the schema ---------------------------------------------------------------

using imp = topo::impairment_spec;
// `policies` is the flow_policies row: a list at the top level, a rejection
// inside a per-flow policy.
std::vector<field<imp>> impairment_rows(field<imp> policies)
{
    return {val("remark_ect1", &imp::remark_ect1, 0, 1),
            val("bleach_ce", &imp::bleach_ce, 0, 1),
            val("strip_ect", &imp::strip_ect, 0, 1),
            val("loss", &imp::loss, 0, 1),
            val("loss_burst", &imp::loss_burst, 1, 1e6),
            val("reorder", &imp::reorder, 0, 1),
            val("reorder_gap", &imp::reorder_gap, 1, 0x1p20),
            val("reorder_hold_max_ms", &imp::reorder_hold_max, 0, 60e3, unit::ms),
            val("duplicate", &imp::duplicate, 0, 1),
            val("force_stage", &imp::force_stage),
            std::move(policies)};
}

field<imp> no_nested_policies()
{
    field<imp> f{"flow_policies"};
    f.read = [](const site& at, const stats::json& v, imp&) {
        fail_key(at, "flow_policies", v,
                 "may not nest (per-flow policies are one level deep)");
    };
    f.write = [](const imp&) { return stats::json(); };
    return f;
}
const table<imp> k_flow_policy{"flow_policy", impairment_rows(no_nested_policies())};
const table<imp> k_impairment{
    "impairment",
    impairment_rows(list("flow_policies", &imp::flow_policies, k_flow_policy, false))};

using wprof = aqm::wred_profile;
const table<wprof> k_wred_profile{"wred_profile", {
    val("min_bytes", &wprof::min_bytes, 0, 0x1p40),
    val("max_bytes", &wprof::max_bytes, 0, 0x1p40),
    val("max_p", &wprof::max_p, 0, 1)}};

using wred = aqm::wred_dualq_config;
const table<wred> k_wred{"wred", {
    sub("l4s", &wred::l4s, k_wred_profile),
    sub("classic", &wred::classic, k_wred_profile),
    val("ecn_drop_bytes", &wred::ecn_drop_bytes, 0, 0x1p40),
    val("l4s_weight", &wred::l4s_weight, 1, 0x1p20),
    val("max_bytes", &wred::max_bytes, 1, 0x1p40)}};

using l4s = core::l4span_config;
const table<l4s> k_l4s{"l4s", {
    val("sojourn_threshold_ms", &l4s::sojourn_threshold, 0.1, 10e3, unit::ms),
    val("coherence_time_ms", &l4s::coherence_time, 0.1, 10e3, unit::ms),
    val("short_circuit", &l4s::short_circuit),
    val("drop_non_ecn", &l4s::drop_non_ecn),
    val("error_aware", &l4s::error_aware),
    val("classic_beta", &l4s::classic_beta, 0.01, 0.99),
    val("mss", &l4s::mss, 64, 65535),
    pick("shared_policy", &l4s::shared_policy, k_policies),
    val("prune_horizon_ms", &l4s::prune_horizon, 1, 3600e3, unit::ms)}};

using cross = topo::cross_traffic_spec;
const table<cross> k_cross{"cross_traffic", {
    pick("model", &cross::model, k_models),
    val("rate_bps", &cross::rate_bps, 0, 1e12),
    val("pkt_bytes", &cross::pkt_bytes, 64, 65535),
    pick("ecn", &cross::ecn_field, k_ecns),
    val("start_ms", &cross::start_time, 0, 3600e3, unit::ms),
    val("stop_ms", &cross::stop_time, -1, 3600e3, unit::ms_forever),
    val("uplink", &cross::uplink)}};

field<cell_spec> channel_row()
{
    auto f = pick("channel", &cell_spec::channel, k_channels);
    f.read = [read = f.read](const site& at, const stats::json& v, cell_spec& c) {
        if (v.is_string() && v.as_string() == "trace")
            fail(at.origin, v.line(),
                 "key \"" + at.key_path("channel") +
                     "\": \"trace\" is not available in scenario files (v1) — DCI trace "
                     "replay needs trace data files; use bench_trace_replay (valid: " +
                     k_channels.valid() + ")");
        read(at, v, c);
    };
    return f;
}

const table<cell_spec> k_cell{"cell", {
    val("num_ues", &cell_spec::num_ues, 1, 4096),
    channel_row(),
    val("rlc_queue_sdus", &cell_spec::rlc_queue_sdus, 1, 0x1p30),
    pick("cu", &cell_spec::cu, k_cu_modes),
    val("seed", &cell_spec::seed, 0, k_max_exact),
    val("separate_drbs_per_class", &cell_spec::separate_drbs_per_class),
    val("bottleneck_bps", &cell_spec::bottleneck_bps, 0, 1e12),
    pick("bottleneck_aqm", &cell_spec::bottleneck_aqm, k_aqms),
    sub("wred", &cell_spec::wred, k_wred),
    val("ul_bottleneck_bps", &cell_spec::ul_bottleneck_bps, 0, 1e12),
    sub("l4s", &cell_spec::l4s, k_l4s),
    sub("impair_dl", &cell_spec::impair_dl, k_impairment),
    sub("impair_ul", &cell_spec::impair_ul, k_impairment),
    list("cross_traffic", &cell_spec::cross_traffic, k_cross, false)}};

// A flow entry is a flow_spec plus its replica count, which the file lists
// between `ue` and `start_ms`.
using flow = cell_flows_family::flow;
template <class M>
field<flow> spec(const char* key, M flow_spec::*m, double lo = -k_inf, double hi = k_inf,
                 unit u = unit::plain)
{
    field<flow> f{key, lo, hi};
    f.read = [=](const site& at, const stats::json& v, flow& fl) {
        fl.spec.*m = read_scalar<M>(at, key, v, lo, hi, u);
    };
    f.write = [=](const flow& fl) { return write_scalar(fl.spec.*m, u); };
    return f;
}

const table<flow> k_flow{"flow", {
    spec("cca", &flow_spec::cca),
    spec("ue", &flow_spec::ue, 0, 0x1p20),
    val("count", &flow::count, 1, 4096),
    spec("start_ms", &flow_spec::start_time, 0, 3600e3, unit::ms),
    spec("stop_ms", &flow_spec::stop_time, -1, 3600e3, unit::ms_forever),
    spec("flow_bytes", &flow_spec::flow_bytes, 0, k_max_exact),
    spec("wired_owd_ms", &flow_spec::wired_owd_ms, 0, 10e3),
    spec("mss", &flow_spec::mss, 64, 65535),
    spec("max_cwnd", &flow_spec::max_cwnd, 0, k_max_exact),
    spec("media_max_bps", &flow_spec::media_max_bps, 0, 1e12),
    spec("media_start_bps", &flow_spec::media_start_bps, 0, 1e12),
    spec("fps", &flow_spec::fps, 0, 1e3),
    spec("frame_bitrate_bps", &flow_spec::frame_bitrate_bps, 0, 1e12),
    spec("keyframe_interval_s", &flow_spec::keyframe_interval_s, 0.01, 3600),
    spec("keyframe_scale", &flow_spec::keyframe_scale, 1, 1e3),
    spec("frame_deadline_ms", &flow_spec::frame_deadline_ms, 0.1, 10e3)}};

using grid = tcp_grid_family;
const table<grid> k_tcp_grid{"tcp_grid", {
    val("seed_base", &grid::seed_base, 0, k_max_exact),
    list("rtts_ms", &grid::rtts_ms, 0, 10e3),
    list("queues_sdus", &grid::queues_sdus, 1, 0x1p30),
    list("ue_counts", &grid::ue_counts, 1, 4096),
    list("ccas", &grid::ccas),
    list("channels", &grid::channels)}};

using strategy = shared_drb_family::strategy;
const table<strategy> k_strategy{
    "strategy",
    {val("label", &strategy::label), pick("policy", &strategy::policy, k_policies)},
    [](strategy& s, std::size_t) {
        if (s.label.empty()) s.label = k_policies.name_of(s.policy);
    }};
const table<shared_drb_family> k_shared_drb{"shared_drb", {
    val("seed", &shared_drb_family::seed, 0, k_max_exact),
    list("strategies", &shared_drb_family::strategies, k_strategy)}};

template <class P>
void name_profile(P& p, std::size_t i)
{
    if (p.name.empty()) p.name = "profile" + std::to_string(i);
}

using ecn_imp = ecn_impairment_family;
const table<ecn_imp::transport> k_ecn_transport{
    "ecn_transport",
    {val("cca", &ecn_imp::transport::cca), val("label", &ecn_imp::transport::label)},
    [](ecn_imp::transport& t, std::size_t) {
        if (t.label.empty()) t.label = t.cca;
    }};
const table<ecn_imp::profile> k_ecn_profile{
    "ecn_profile",
    {val("name", &ecn_imp::profile::name),
     val("drop_non_ecn", &ecn_imp::profile::drop_non_ecn),
     sub("impair", &ecn_imp::profile::impair, k_impairment)},
    name_profile<ecn_imp::profile>};
const table<ecn_imp> k_ecn_impairment{"ecn_impairment", {
    val("seed", &ecn_imp::seed, 0, k_max_exact),
    val("ues", &ecn_imp::ues, 1, 4096),
    val("bottleneck_bps", &ecn_imp::bottleneck_bps, 1e3, 1e12),
    pick("bottleneck_aqm", &ecn_imp::bottleneck_aqm, k_aqms),
    val("cross_rate_bps", &ecn_imp::cross_rate_bps, 0, 1e12),
    list("cross_options", &ecn_imp::cross_options),
    list("ccas", &ecn_imp::ccas, k_ecn_transport),
    list("profiles", &ecn_imp::profiles, k_ecn_profile)}};

using chaos = fault_chaos_family;
const table<chaos::profile> k_fault_profile{
    "fault_profile",
    {val("name", &chaos::profile::name),
     val("rlf_per_ue_per_sec", &chaos::profile::rlf_per_ue_per_sec, 0, 100),
     val("ho_failure_per_ue_per_sec", &chaos::profile::ho_failure_per_ue_per_sec, 0, 100),
     val("outages_per_cell_per_sec", &chaos::profile::outages_per_cell_per_sec, 0, 100),
     val("flaps_per_cell_per_sec", &chaos::profile::flaps_per_cell_per_sec, 0, 100)},
    name_profile<chaos::profile>};
const table<chaos::transport> k_fault_transport{
    "fault_transport",
    {val("cca", &chaos::transport::cca), val("media", &chaos::transport::media)}};
const table<chaos> k_fault_chaos{"fault_chaos", {
    val("num_cells", &chaos::num_cells, 1, 64),
    val("ues_per_cell", &chaos::ues_per_cell, 1, 256),
    val("cell_seed", &chaos::cell_seed, 0, k_max_exact),
    val("wired_bps", &chaos::wired_bps, 1e3, 1e12),
    val("fault_seed", &chaos::fault_seed, 0, k_max_exact),
    val("fault_start_ms", &chaos::fault_start_ms, 0, 3600e3),
    val("fault_end_margin_ms", &chaos::fault_end_margin_ms, 0, 3600e3),
    list("profiles", &chaos::profiles, k_fault_profile),
    list("transports", &chaos::transports, k_fault_transport)}};

const table<cell_flows_family> k_cell_flows{"cell_flows", {
    list("seeds", &cell_flows_family::seeds, 0, k_max_exact),
    sub("cell", &cell_flows_family::cell, k_cell),
    list("flows", &cell_flows_family::flows, k_flow)}};

field<scenario_spec> schema_row()
{
    field<scenario_spec> f{"schema"};
    f.valid = k_scenario_schema;
    f.required = true;
    f.read = [](const site& at, const stats::json& v, scenario_spec&) {
        if (!v.is_string() || v.as_string() != k_scenario_schema)
            fail_key(at, "schema", v,
                     "must be \"" + std::string(k_scenario_schema) + "\", got " +
                         v.dump_compact());
    };
    f.write = [](const scenario_spec&) { return stats::json(k_scenario_schema); };
    return f;
}

// The selected family's section. A stray section of another family would be
// silently ignored content, so it is diagnosed.
template <class M>
field<scenario_spec> section(const char* key, M scenario_spec::*m, const table<M>& t)
{
    auto f = sub(key, m, t);
    f.read = [key, read = f.read](const site& at, const stats::json& v,
                                  scenario_spec& s) {
        if (s.family != key)
            fail(at.origin, v.line(),
                 "section \"$." + std::string(key) + "\" present but family is \"" +
                     s.family + "\" — remove it or change $.family");
        read(at, v, s);
    };
    f.write = [key, write = f.write](const scenario_spec& s) {
        return s.family == key ? write(s) : stats::json();
    };
    return f;
}

const table<scenario_spec> k_scenario{"scenario", {
    schema_row(),
    val("figure", &scenario_spec::figure),
    val("title", &scenario_spec::title),
    val("paper_ref", &scenario_spec::paper_ref),
    val("quick", &scenario_spec::quick),
    val("duration_s", &scenario_spec::duration, 0.001, 3600, unit::sec).need(),
    pick("family", &scenario_spec::family, k_families).need(),
    section("tcp_grid", &scenario_spec::tcp_grid, k_tcp_grid),
    section("shared_drb", &scenario_spec::shared_drb, k_shared_drb),
    section("ecn_impairment", &scenario_spec::ecn_impairment, k_ecn_impairment),
    section("fault_chaos", &scenario_spec::fault_chaos, k_fault_chaos),
    section("cell_flows", &scenario_spec::cell_flows, k_cell_flows)}};

}  // namespace

void scenario_spec::validate() const try {
    const auto require = [](bool ok, const std::string& msg) {
        if (!ok) throw scenario_error(msg);
    };
    require(duration > 0, "duration_s must be > 0");
    if (family == "tcp_grid") {
        require(!tcp_grid.rtts_ms.empty() && !tcp_grid.queues_sdus.empty() &&
                    !tcp_grid.ue_counts.empty() && !tcp_grid.ccas.empty() &&
                    !tcp_grid.channels.empty(),
                "tcp_grid: every axis (rtts_ms, queues_sdus, ue_counts, ccas, "
                "channels) needs at least one entry");
    } else if (family == "shared_drb") {
        require(!shared_drb.strategies.empty(),
                "shared_drb.strategies needs at least one entry");
    } else if (family == "ecn_impairment") {
        require(!ecn_impairment.ccas.empty() && !ecn_impairment.profiles.empty() &&
                    !ecn_impairment.cross_options.empty(),
                "ecn_impairment: ccas, profiles and cross_options each need at "
                "least one entry");
        for (std::size_t i = 0; i < ecn_impairment.profiles.size(); ++i)
            ecn_impairment.profiles[i].impair.validate(
                "ecn_impairment.profiles[" + std::to_string(i) + "].impair");
    } else if (family == "fault_chaos") {
        require(!fault_chaos.profiles.empty() && !fault_chaos.transports.empty(),
                "fault_chaos: profiles and transports each need at least one "
                "entry");
        require(sim::from_ms(fault_chaos.fault_start_ms) +
                        sim::from_ms(fault_chaos.fault_end_margin_ms) <
                    duration,
                "fault_chaos: fault_start_ms + fault_end_margin_ms must leave a "
                "non-empty fault window inside duration_s");
    } else if (family == "cell_flows") {
        require(!cell_flows.seeds.empty(), "cell_flows.seeds needs at least one entry");
        require(!cell_flows.flows.empty(), "cell_flows.flows needs at least one entry");
        cell_flows.cell.impair_dl.validate("cell_flows.cell.impair_dl");
        cell_flows.cell.impair_ul.validate("cell_flows.cell.impair_ul");
        cell_flows.cell.wred.validate("cell_flows.cell.wred");
        for (std::size_t i = 0; i < cell_flows.cell.cross_traffic.size(); ++i)
            cell_flows.cell.cross_traffic[i].validate(
                "cell_flows.cell.cross_traffic[" + std::to_string(i) + "]");
        for (const auto& fl : cell_flows.flows)
            require(fl.spec.ue + fl.count <= cell_flows.cell.num_ues,
                    "cell_flows.flows: flow on ue " + std::to_string(fl.spec.ue) +
                        " with count " + std::to_string(fl.count) +
                        " exceeds cell.num_ues (" +
                        std::to_string(cell_flows.cell.num_ues) + ")");
    } else {
        throw scenario_error("unknown family \"" + family +
                             "\" (valid: " + k_families.valid() + ")");
    }
} catch (const std::invalid_argument& e) {
    throw scenario_error(e.what());
}

scenario_spec parse_scenario_text(std::string_view text, const std::string& origin)
{
    stats::json doc;
    try {
        doc = stats::json::parse(text);
    } catch (const stats::json_parse_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    scenario_spec spec;
    bind_node(origin, doc, "$", spec, k_scenario);
    if (!doc.find(spec.family))
        fail(origin, doc.line(),
             "missing section \"$." + spec.family +
                 "\" (the family names its parameter block)");
    try {
        spec.validate();
    } catch (const scenario_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    return spec;
}

scenario_spec load_scenario_file(const std::string& path)
{
    std::string text;
    if (!stats::read_text_file(path, text))
        throw scenario_error(path + ": cannot read scenario file");
    return parse_scenario_text(text, path);
}

stats::json export_scenario(const scenario_spec& spec)
{
    if (!k_families.find(spec.family))
        throw scenario_error("export_scenario: unknown family \"" + spec.family +
                             "\"");
    return export_table(spec, k_scenario);
}

int write_scenario_file(const std::string& path, const scenario_spec& spec)
{
    if (!stats::write_text_file(path, export_scenario(spec).dump())) {
        std::fprintf(stderr, "error: cannot write scenario to %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

stats::json schema_reference()
{
    auto out = stats::json::object();
    describe(k_scenario, out);
    return out;
}

}  // namespace l4span::scenario
