// JSON scenario schema ("l4span-scenario-v1"): the data-driven face of the
// experiment harnesses. A scenario file names one of five experiment
// *families* — each a parameterized grid the repo previously only shipped
// compiled into a bench binary — plus the grid axes to sweep:
//
//   tcp_grid        Fig. 9/24 methodology: CCA x channel x queue x RTT x
//                   UE-count x {vanilla, +L4Span} congested-cell grid
//   shared_drb      Fig. 16: shared-DRB marking strategies on one UE
//   ecn_impairment  adversarial wired path: impairment profile x CCA x
//                   cross-traffic through a core bottleneck AQM
//   fault_chaos     multi-cell fault injection: fault class x transport
//   cell_flows      generic single-cell scenario: a full cell_spec (any
//                   bottleneck AQM incl. "wred", impairments, cross
//                   traffic, L4Span knobs) + explicit flow list, swept
//                   over seeds
//
// Parsing is strict: unknown keys, type mismatches and out-of-range values
// throw scenario_error naming the offending key and its source line.
// export_scenario() is the exact inverse on the supported surface — every
// key is always written, in a fixed order, so export -> parse -> export is
// the identity on bytes (pinned by tests/test_scenario_fuzz.cpp), and a
// bench's compiled-in scenario exported via --export-scenario reproduces
// the bench's output byte-for-byte when run back through `l4span_run`
// (pinned by tests/test_scenario_spec.cpp).
//
// Schema reference: docs/SCENARIOS.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/cell.h"
#include "stats/json.h"

namespace l4span::scenario {

inline constexpr const char* k_scenario_schema = "l4span-scenario-v1";

// Scenario load/validation failure. The message names the file (or origin
// label), the offending key path and — for parsed input — its 1-based
// source line, so a typo in a 300-line scenario is a one-glance fix.
class scenario_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// --- family parameter blocks -----------------------------------------------

// Fig. 9-style congested-cell grid (bench_fig09_tcp_grid).
struct tcp_grid_family {
    std::uint64_t seed_base = 1000;
    std::vector<double> rtts_ms{19.0, 53.0};  // one-way server->core OWD
    std::vector<std::size_t> queues_sdus{16384, 256};
    std::vector<int> ue_counts{16, 64};
    std::vector<std::string> ccas{"prague", "bbr2", "cubic"};
    std::vector<std::string> channels{"static", "mobile"};
};

// Fig. 16 shared-DRB marking strategies (bench_fig16_shared_drb).
struct shared_drb_family {
    struct strategy {
        std::string label;  // "" = the policy's schema name
        core::shared_drb_policy policy = core::shared_drb_policy::coupled;
    };
    std::uint64_t seed = 71;
    std::vector<strategy> strategies;
};

// Adversarial wired-path grid (bench_ecn_impairment).
struct ecn_impairment_family {
    struct profile {
        std::string name;  // "" = "profile<i>" for entry i
        bool drop_non_ecn = false;  // arm L4Span's drop-based fallback
        topo::impairment_spec impair;
    };
    struct transport {
        std::string cca = "prague";  // flow_spec CCA name (quic-prague, ...)
        std::string label;           // row label (tcp-prague, ...); "" = cca
    };
    std::uint64_t seed = 71;
    int ues = 4;
    double bottleneck_bps = 80e6;
    std::string bottleneck_aqm = "dualpi2";
    double cross_rate_bps = 30e6;
    std::vector<bool> cross_options{false, true};
    std::vector<transport> ccas;
    std::vector<profile> profiles;
};

// Multi-cell fault-injection grid (bench_fault_chaos).
struct fault_chaos_family {
    struct profile {
        std::string name;  // "" = "profile<i>" for entry i
        double rlf_per_ue_per_sec = 0.0;
        double ho_failure_per_ue_per_sec = 0.0;
        double outages_per_cell_per_sec = 0.0;
        double flaps_per_cell_per_sec = 0.0;
    };
    struct transport {
        std::string cca = "prague";
        bool media = false;  // frame-paced interactive source on top
    };
    int num_cells = 3;
    int ues_per_cell = 3;
    std::uint64_t cell_seed = 41;
    double wired_bps = 100e6;
    std::uint64_t fault_seed = 23;
    double fault_start_ms = 800.0;
    double fault_end_margin_ms = 500.0;  // leave room to observe recovery
    std::vector<profile> profiles;
    std::vector<transport> transports;
};

// Generic single-cell scenario: the full cell_spec surface (this is the
// only producer of bottleneck_aqm == "wred") + an explicit flow list, each
// entry optionally replicated `count` times onto consecutive UEs, swept
// over `seeds` (one independent grid point per seed).
struct cell_flows_family {
    struct flow {
        flow_spec spec;
        int count = 1;  // replicas on UEs spec.ue, spec.ue+1, ...
    };
    std::vector<std::uint64_t> seeds{1};
    cell_spec cell;
    std::vector<flow> flows;
};

// --- the scenario document --------------------------------------------------

struct scenario_spec {
    std::string figure = "scenario";            // summary JSON "figure" tag (fig09, ...)
    std::string title = "scenario";             // banner line
    std::string paper_ref = "custom scenario";  // banner "reproduces:" line
    std::string family;                         // which block below is active
    bool quick = false;      // documents which slice this file describes
    sim::tick duration = 0;  // per-grid-point simulated time

    tcp_grid_family tcp_grid;
    shared_drb_family shared_drb;
    ecn_impairment_family ecn_impairment;
    fault_chaos_family fault_chaos;
    cell_flows_family cell_flows;

    // Semantic validation beyond parse-time binding (non-empty axes,
    // sub-spec consistency). Throws scenario_error. parse_scenario_text
    // runs this; call it yourself on programmatically built specs.
    void validate() const;
};

// Parses + validates a scenario document. `origin` labels errors (a file
// path, or e.g. "<builtin>"). Throws scenario_error on malformed JSON,
// unknown/duplicate keys, type mismatches or out-of-range values, always
// naming the offending key and source line.
scenario_spec parse_scenario_text(std::string_view text, const std::string& origin);

// read_text_file + parse_scenario_text. Throws scenario_error (including
// for an unreadable path).
scenario_spec load_scenario_file(const std::string& path);

// Serializes `spec` to its scenario document. Writes every supported key
// in fixed order: parse(export(s).dump()) reproduces `s` exactly, and
// export(parse(text)) reproduces `text` for any export-produced `text`.
stats::json export_scenario(const scenario_spec& spec);

// export_scenario(spec).dump() -> `path`; "wrote <path>" on stderr.
// Returns 0, or 1 on I/O failure (mirrors benchutil::finish). Benches use
// this behind --export-scenario.
int write_scenario_file(const std::string& path, const scenario_spec& spec);

// The schema as data, derived from the same per-struct field tables the
// parser and exporter run on: {table name: [{key, required, default, min?,
// max?, valid?, table?}, ...]} in file key order. `default` is what an
// omitted key takes, `valid` lists enum names, `table` names the nested
// table of an object or object-array key; "scenario" is the document.
// docs/SCENARIOS.md is checked against it.
stats::json schema_reference();

}  // namespace l4span::scenario
