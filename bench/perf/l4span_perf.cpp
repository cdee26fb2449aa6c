// l4span_perf — times one benchmark workload end to end (--trace 0) or
// splits its cost across layers from the outside (--trace 1), checks the
// simulated outputs, and prints one JSON object as the last stdout line.
//
//   l4span_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Run it from the repository root. bench/perf/run.py builds and drives it;
// see bench/perf/README.md for the workloads and the metric dictionary.
//
// Untraced pass: after one untimed warmup rep, timed reps cycle through the
// run's simulated seeds until every seed has run and --seconds have been
// measured. A seed's first rep (for seed 0 the warmup) fixes its reference
// digest and its simulated (sim_*) metrics; every later rep of it must
// match. fig09_grid's
// timed reps go through scenario::run_scenario, the path a user of
// l4span_run waits on, which reports only a summary; its references come
// from untimed reps of the same grid through the benchmark's own fan-out,
// whose points must reproduce run_scenario's summary.
//
// Traced pass: interleaved rounds of {untraced, traced, obs toggled[, jobs
// 1]} reps, so every ratio compares reps that saw the same machine state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.h"
#include "scenario/bench_format.h"
#include "stats/json.h"
#include "stats/sample_set.h"
#include "workload.h"

using namespace l4span;

namespace {

struct options {
    perf::workload_source src;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void usage(const std::string& why)
{
    std::fprintf(stderr,
                 "usage: l4span_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n%s\n",
                 why.c_str());
    std::exit(2);
}

options parse_args(int argc, char** argv)
{
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") o.src.name = v;
        else if (a == "--seed") o.src.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::atof(v.c_str());
        else if (a == "--trace") o.trace = v == "1";
        else usage("unknown argument: " + a);
    }
    if (o.src.name.empty()) usage("missing --workload");
    if (o.seconds <= 0.0) usage("--seconds must be positive");
    return o;
}

struct checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    // Silent flows explained by the RLC AM defect (workload.cpp,
    // bearer_stalled): reported, not failed.
    std::uint64_t rlc_stalled_flows = 0;

    // `n` checks of which `bad` failed.
    void count(std::uint64_t n, std::uint64_t bad, const std::string& what)
    {
        attempted += n;
        if (bad == 0) return;
        failed += bad;
        failures.push_back(what);
    }
    void expect(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }
};

double median(const std::vector<double>& v)
{
    stats::sample_set s;
    for (const double x : v) s.add(x);
    return s.median();
}

// Writes numbers with all 17 significant digits (stats::json rounds to 10):
// a measured time must reach the result file exactly as measured.
std::string number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string quoted(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

// The "metrics" object of the result line, in insertion order.
class metric_set {
public:
    void add(const std::string& name, double value, const char* unit)
    {
        add_entry(name, "\"value\":" + number(value) + ",\"unit\":" + quoted(unit));
    }
    // The median of `samples`, with the spread compare.py judges noise by.
    void add(const std::string& name, const std::vector<double>& samples, const char* unit)
    {
        stats::sample_set s;
        for (const double x : samples) s.add(x);
        add_entry(name, "\"value\":" + number(s.median()) + ",\"unit\":" + quoted(unit) +
                            ",\"min\":" + number(s.min()) + ",\"max\":" + number(s.max()) +
                            ",\"q1\":" + number(s.percentile(25)) +
                            ",\"q3\":" + number(s.percentile(75)) +
                            ",\"reps\":" + std::to_string(s.count()));
    }
    std::string json() const { return "{" + out_ + "}"; }

private:
    void add_entry(const std::string& name, const std::string& body)
    {
        if (!out_.empty()) out_ += ",";
        out_ += quoted(name) + ":{" + body + "}";
    }

    std::string out_;
};

std::string hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// VmHWM, the high-water mark of this process image. getrusage's ru_maxrss
// would also count the parent's pages this process held between fork and
// exec, so the number would depend on who launched the benchmark.
double peak_rss_mb()
{
    std::string status;
    if (!stats::read_text_file("/proc/self/status", status)) return 0.0;
    const std::size_t at = status.find("VmHWM:");
    if (at == std::string::npos) return 0.0;
    return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB
}

// Checks that hold for any correct run: every flow delivered data, unless the
// known RLC AM defect stalled its bearer, and every L4Span cell marked.
void check_outputs(const perf::rep_result& rep, checks& ck)
{
    std::uint64_t flows = 0, delivering = 0, stalled = 0, cells = 0, marking = 0;
    for (const perf::point_result& p : rep.points) {
        flows += p.flows;
        delivering += p.flows_delivering;
        stalled += p.flows_rlc_stalled;
        cells += p.l4span_cells;
        marking += p.l4span_cells_marking;
    }
    ck.rlc_stalled_flows += stalled;
    const std::uint64_t silent = flows - delivering - stalled;
    ck.count(flows, silent, "flows with zero delivered bytes: " + std::to_string(silent));
    ck.count(cells, cells - marking,
             "L4Span cells without marks: " + std::to_string(cells - marking));
}

// What a pass keeps of a seed's first rep: what later reps must reproduce,
// and the seed's simulated metrics. The raw samples are dropped, so that
// peak_rss_mb measures the simulator, not the benchmark's bookkeeping.
struct seed_ref {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    // Over every flow of the L4Span cells: OWD percentiles of the pooled
    // samples, and the mean per-flow goodput.
    double owd_p50_ms = 0.0;
    double owd_p99_ms = 0.0;
    double goodput_mbps = 0.0;
    // fig09_grid: each point's OWD and goodput boxes as run_scenario's
    // summary prints them.
    std::vector<std::string> boxes;
};

// Releases the rep's samples as it reads them.
seed_ref reduce(perf::rep_result& rep, bool keep_boxes)
{
    seed_ref r;
    r.digest = rep.digest();
    r.events = rep.events();
    stats::sample_set owd;
    stats::sample_set tput;
    std::size_t n = 0;
    for (const perf::point_result& p : rep.points)
        if (p.l4span) n += p.owd_ms.count();
    owd.reserve(n);
    for (perf::point_result& p : rep.points) {
        if (keep_boxes)
            r.boxes.push_back(benchutil::box_json(p.owd_ms).dump() +
                              benchutil::box_json(p.tput_mbps).dump());
        if (p.l4span) {
            for (const double v : p.owd_ms.raw()) owd.add(v);
            for (const double v : p.tput_mbps.raw()) tput.add(v);
        }
        p.owd_ms = {};
        p.tput_mbps = {};
    }
    r.owd_p50_ms = owd.median();
    r.owd_p99_ms = owd.percentile(99);
    r.goodput_mbps = tput.mean();
    return r;
}

// A rep must reproduce the reference simulation: the same outcome digest
// and, unless telemetry was toggled, the same number of events.
void check_same_run(const perf::rep_result& rep, const seed_ref& ref, const char* what,
                    checks& ck, bool same_events = true)
{
    ck.expect(rep.digest() == ref.digest && (!same_events || rep.events() == ref.events),
              std::string(what) + " rep simulated a different run: digest " +
                  hex(rep.digest()) + ", " + std::to_string(rep.events()) +
                  " events; reference " + hex(ref.digest) + ", " +
                  std::to_string(ref.events) + " events");
}

// What the result reports and goldens.json stores: outcome and event count.
std::uint64_t run_digest(const seed_ref& ref)
{
    return perf::fnv1a(&ref.events, sizeof ref.events, perf::fnv1a(&ref.digest, sizeof ref.digest));
}

// run_scenario's summary against the benchmark's fan-out of the same grid,
// point by point: the replica must compute exactly what the engine prints.
void check_replica(const stats::json& summary, const seed_ref& ref, checks& ck)
{
    const stats::json* points = summary.find("points");
    const std::size_t n = points ? points->elements().size() : 0;
    ck.expect(n == ref.boxes.size(), "run_scenario summary has " + std::to_string(n) +
                                         " points, the replica " +
                                         std::to_string(ref.boxes.size()));
    for (std::size_t i = 0; i < std::min(n, ref.boxes.size()); ++i) {
        const stats::json* owd = points->elements()[i].find("owd_ms");
        const stats::json* tput = points->elements()[i].find("tput_mbps");
        ck.expect(owd && tput && owd->dump() + tput->dump() == ref.boxes[i],
                  "replica point " + std::to_string(i) + " differs from run_scenario");
    }
}

double elapsed_since(perf::steady::time_point t0)
{
    return perf::seconds_between(t0, perf::steady::now());
}

// The simulated seeds of one run: --seed S covers offsets S*K .. S*K+K-1
// for K = seeds_per_run, so runs with different --seed never share a
// simulation, and --seed 0 starts with the documented seeds.
std::vector<perf::workload_source> run_sources(const options& o, const perf::workload& w)
{
    std::vector<perf::workload_source> out;
    for (int k = 0; k < w.seeds_per_run; ++k) {
        perf::workload_source s = o.src;
        s.seed = o.src.seed * static_cast<std::uint64_t>(w.seeds_per_run) +
                 static_cast<std::uint64_t>(k);
        out.push_back(s);
    }
    return out;
}

// --- untraced pass: the end-to-end metrics ----------------------------------

std::string untraced_pass(const options& o, const perf::workload& w, checks& ck,
                          std::uint64_t& digest)
{
    const std::vector<perf::workload_source> srcs = run_sources(o, w);
    const std::size_t seeds = srcs.size();
    const bool grid = w.kind == perf::harness::grid;
    std::vector<seed_ref> refs;  // one per seed, in seed order
    const auto reference_rep = [&](const perf::workload_source& s) {
        perf::rep_result rep = perf::run_rep(s, {});
        check_outputs(rep, ck);
        refs.push_back(reduce(rep, grid));
        return rep.wall_s;
    };
    // Untimed: the warmup (seed 0's reference), and for the grid every
    // seed's reference.
    for (std::size_t k = 0; k < (grid ? seeds : 1); ++k) (void)reference_rep(srcs[k]);

    std::vector<double> walls, ns_per_event, setups;
    std::vector<std::uint64_t> summary_digests(seeds);
    const auto t0 = perf::steady::now();
    for (std::size_t i = grid ? 0 : 1;
         i < seeds || walls.size() < 3 || elapsed_since(t0) < o.seconds; ++i) {
        const std::size_t k = i % seeds;
        double wall = 0.0;
        if (grid) {
            stats::json summary;
            wall = perf::run_scenario_rep(srcs[k], summary);
            const std::string text = summary.dump();
            const std::uint64_t d = perf::fnv1a(text.data(), text.size());
            if (i < seeds) {
                summary_digests[k] = d;
                check_replica(summary, refs[k], ck);
            } else {
                ck.expect(d == summary_digests[k], "run_scenario summary changed between reps");
            }
        } else if (k == refs.size()) {
            wall = reference_rep(srcs[k]);
        } else {
            const perf::rep_result rep = perf::run_rep(srcs[k], {});
            check_same_run(rep, refs[k], "timed", ck);
            wall = rep.wall_s;
        }
        walls.push_back(wall);
        ns_per_event.push_back(wall * 1e9 / static_cast<double>(refs[k].events));
        // At least 31 set-up trials, spread over the whole run rather than
        // bunched where one burst of host noise could cover them: after each
        // rep, as many as let ~31 fit in --seconds. The untimed trial first
        // refills the caches the rep evicted.
        (void)perf::setup_trial(srcs[k]);
        const auto per_rep = static_cast<std::size_t>(std::ceil(31.0 * wall / o.seconds));
        for (std::size_t n = 0; n < per_rep; ++n) setups.push_back(perf::setup_trial(srcs[k]));
    }
    while (setups.size() < 31) setups.push_back(perf::setup_trial(srcs[setups.size() % seeds]));
    if (w.topology) {
        perf::run_options serial;
        serial.jobs = 1;
        check_same_run(perf::run_rep(srcs.front(), serial), refs.front(), "jobs-1", ck);
    }
    digest = run_digest(refs.front());

    // Each seed's simulated metrics, averaged over the run's seeds.
    double p50 = 0.0, p99 = 0.0, goodput = 0.0;
    for (const seed_ref& r : refs) {
        p50 += r.owd_p50_ms;
        p99 += r.owd_p99_ms;
        goodput += r.goodput_mbps;
    }
    const auto n = static_cast<double>(refs.size());

    metric_set m;
    m.add("wall_s", walls, "s");
    m.add("ns_per_event", ns_per_event, "ns");
    m.add("setup_s", setups, "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("sim_owd_p50_ms", p50 / n, "ms");
    m.add("sim_owd_p99_ms", p99 / n, "ms");
    m.add("sim_goodput_mbps", goodput / n, "Mbit/s");
    return m.json();
}

// --- traced pass: the per-layer metrics -------------------------------------

double grid_efficiency(const perf::rep_result& rep)
{
    double busy = 0.0;
    for (const perf::point_result& p : rep.points) busy += p.end_s - p.start_s;
    return busy / (static_cast<double>(rep.workers) * rep.fanout_s);
}

// Fan-out end minus the moment the first worker found no point left to take.
double grid_tail_s(const perf::rep_result& rep)
{
    double last_start = 0.0;
    for (const perf::point_result& p : rep.points) last_start = std::max(last_start, p.start_s);
    double first_idle = rep.parse_s + rep.fanout_s;
    for (const perf::point_result& p : rep.points)
        if (p.end_s >= last_start) first_idle = std::min(first_idle, p.end_s);
    return rep.parse_s + rep.fanout_s - first_idle;
}

double point_wall_max_s(const perf::rep_result& rep)
{
    double m = 0.0;
    for (const perf::point_result& p : rep.points) m = std::max(m, p.end_s - p.start_s);
    return m;
}

// Traces the run's first simulated seed only: the per-layer rows split one
// simulation, and the counts stay comparable across commits.
std::string traced_pass(const options& o, const perf::workload& w, checks& ck,
                        std::uint64_t& digest)
{
    const auto t0 = perf::steady::now();
    const perf::workload_source src = run_sources(o, w).front();
    perf::rep_result first = perf::run_rep(src, {});
    check_outputs(first, ck);
    const seed_ref ref = reduce(first, false);
    digest = run_digest(ref);
    const double events = static_cast<double>(ref.events);
    std::size_t cells = 0;  // one shard per cell, one cell per grid point
    for (const perf::point_result& p : first.points) cells += p.shard_events.size();

    perf::run_options traced;
    traced.traced = true;
    // The timed traced reps only count channel queries; one extra rep at the
    // end keeps a sample of them (up to ~1 M records in all) for the replay.
    perf::run_options recording = traced;
    recording.link_cap = std::max<std::size_t>(4096, (std::size_t{1} << 20) / cells);
    perf::run_options flipped;
    flipped.flip_obs = true;
    perf::run_options serial;
    serial.jobs = 1;
    const bool obs_on = w.topology ? w.topology->topo.cell.obs.enabled
                                   : w.cells.front().cell.obs.enabled;

    std::vector<double> plain_wall, traced_wall, flipped_wall, serial_wall, traced_thread_s;
    std::vector<double> parse_s, efficiency, tail_s, point_max_s;
    std::vector<double> bias_samples, sched_samples;
    std::vector<perf::hook_stats> hooks;  // one per traced rep
    double round_s = 0.0;
    while (plain_wall.empty() || elapsed_since(t0) + round_s < o.seconds) {
        const auto r0 = perf::steady::now();
        // The micros run once per round, so their medians see the same
        // machine states as the reps.
        bias_samples.push_back(perf::calibrate_hook_bias_ns());
        sched_samples.push_back(perf::schedule_fire_ns());

        const perf::rep_result a = perf::run_rep(src, {});
        check_same_run(a, ref, "untraced", ck);
        plain_wall.push_back(a.wall_s);
        parse_s.push_back(a.parse_s);
        efficiency.push_back(grid_efficiency(a));
        tail_s.push_back(grid_tail_s(a));
        point_max_s.push_back(point_wall_max_s(a));

        const perf::rep_result b = perf::run_rep(src, traced);
        check_same_run(b, ref, "traced", ck);
        traced_wall.push_back(b.wall_s);
        traced_thread_s.push_back(b.thread_seconds());
        perf::hook_stats h;
        for (const perf::point_result& p : b.points) h.add(p.hooks);
        hooks.push_back(h);

        const perf::rep_result c = perf::run_rep(src, flipped);
        check_same_run(c, ref, "obs-toggled", ck, /*same_events=*/false);
        flipped_wall.push_back(c.wall_s);

        if (w.topology) {
            const perf::rep_result d = perf::run_rep(src, serial);
            check_same_run(d, ref, "jobs-1", ck);
            serial_wall.push_back(d.wall_s);
        }
        round_s = elapsed_since(r0);
    }

    // Per-call self time: in-span time minus what an empty call records.
    const double bias_ns = median(bias_samples);
    std::vector<double> dl_ns, ul_ns, fb_ns, core_ns_per_event;
    for (const perf::hook_stats& h : hooks) {
        const auto self = [&](double ns, std::uint64_t n) {
            return n ? ns / static_cast<double>(n) - bias_ns : 0.0;
        };
        dl_ns.push_back(self(h.dl_ns, h.dl_calls));
        ul_ns.push_back(self(h.ul_ns, h.ul_calls));
        fb_ns.push_back(self(h.fb_ns, h.fb_calls));
        const double calls = static_cast<double>(h.dl_calls + h.ul_calls + h.fb_calls);
        core_ns_per_event.push_back((h.dl_ns + h.ul_ns + h.fb_ns - bias_ns * calls) / events);
    }
    const perf::hook_stats& calls = hooks.front();

    const perf::rep_result rec = perf::run_rep(src, recording);
    check_same_run(rec, ref, "recording", ck);
    std::uint64_t chan_queries = 0;
    perf::replay_cost replay;
    for (const perf::point_result& p : rec.points)
        for (const auto& [probe, spec] : p.links) {
            chan_queries += probe.queries;
            const perf::replay_cost c = perf::replay_link_queries(probe, spec);
            replay.ns += c.ns;
            replay.queries += c.queries;
        }
    const double chan_ns_per_query =
        replay.queries ? replay.ns / static_cast<double>(replay.queries) : 0.0;
    const double chan_ns_per_event = chan_ns_per_query * static_cast<double>(chan_queries) / events;

    std::uint64_t slots = 0, handovers = 0, retx = 0, cross = 0, bmarks = 0, marks = 0;
    std::uint64_t peak = 0;
    std::vector<double> stalls;
    for (const perf::point_result& p : first.points) {
        slots += p.slots;
        handovers += p.handovers;
        retx += p.retransmits;
        cross += p.cross_packets;
        bmarks += p.bottleneck_marks;
        marks += p.marks;
        peak = std::max(peak, p.peak_pending);
        stalls.insert(stalls.end(), p.stall_frac.begin(), p.stall_frac.end());
    }
    double imbalance = 1.0;
    if (w.topology) {
        const auto& se = first.points.front().shard_events;
        const double mean = std::accumulate(se.begin(), se.end(), 0.0) /
                            static_cast<double>(se.size());
        imbalance = static_cast<double>(*std::max_element(se.begin(), se.end())) / mean;
    }

    const double plain_med = median(plain_wall);
    const double traced_med = median(traced_wall);
    const double on_med = obs_on ? plain_med : median(flipped_wall);
    const double off_med = obs_on ? median(flipped_wall) : plain_med;
    const double traced_ns_per_event = median(traced_thread_s) * 1e9 / events;
    const double core_ns = median(core_ns_per_event);

    metric_set m;
    m.add("sim.events", events, "count");
    m.add("ran.slots", static_cast<double>(slots), "count");
    m.add("ran.handovers", static_cast<double>(handovers), "count");
    m.add("transport.retransmits", static_cast<double>(retx), "count");
    m.add("topo.cross_packets", static_cast<double>(cross), "count");
    m.add("aqm.bottleneck_marks", static_cast<double>(bmarks), "count");
    m.add("sim.peak_pending", static_cast<double>(peak), "count");
    m.add("sim.schedule_fire_ns", sched_samples, "ns");
    m.add("sim.shard_speedup", w.topology ? median(serial_wall) / plain_med : 1.0, "x");
    m.add("sim.shard_event_imbalance", imbalance, "x");
    m.add("chan.queries", static_cast<double>(chan_queries), "count");
    m.add("chan.ns_per_query", chan_ns_per_query, "ns");
    m.add("chan.ns_per_event", chan_ns_per_event, "ns");
    m.add("core.l4span.dl_calls", static_cast<double>(calls.dl_calls), "count");
    m.add("core.l4span.ul_calls", static_cast<double>(calls.ul_calls), "count");
    m.add("core.l4span.feedback_calls", static_cast<double>(calls.fb_calls), "count");
    m.add("core.l4span.ns_per_dl", dl_ns, "ns");
    m.add("core.l4span.ns_per_ul", ul_ns, "ns");
    m.add("core.l4span.ns_per_feedback", fb_ns, "ns");
    m.add("core.l4span.ns_per_event", core_ns_per_event, "ns");
    m.add("core.l4span.mark_ratio",
          calls.dl_calls ? static_cast<double>(marks) / static_cast<double>(calls.dl_calls) : 0.0,
          "ratio");
    m.add("media.frame_stall_frac",
          stalls.empty() ? 0.0
                         : std::accumulate(stalls.begin(), stalls.end(), 0.0) /
                               static_cast<double>(stalls.size()),
          "ratio");
    m.add("obs.overhead_pct", 100.0 * (on_med / off_med - 1.0), "%");
    m.add("scenario.parse_s", parse_s, "s");
    m.add("scenario.grid_efficiency", efficiency, "ratio");
    m.add("scenario.grid_tail_s", tail_s, "s");
    m.add("scenario.point_wall_max_s", point_max_s, "s");
    m.add("trace.ns_per_event", traced_ns_per_event, "ns");
    m.add("trace.hook_bias_ns", bias_samples, "ns");
    m.add("trace.overhead_pct", 100.0 * (traced_med / plain_med - 1.0), "%");
    m.add("unattributed.ns_per_event", traced_ns_per_event - core_ns - chan_ns_per_event, "ns");
    return m.json();
}

}  // namespace

int main(int argc, char** argv)
{
    const options o = parse_args(argc, argv);
    try {
        const perf::workload w = perf::make_workload(o.src);
        checks ck;
        std::uint64_t digest = 0;
        const std::string metrics =
            o.trace ? traced_pass(o, w, ck, digest) : untraced_pass(o, w, ck, digest);
        std::string failures;
        for (const std::string& f : ck.failures) {
            if (!failures.empty()) failures += ',';
            failures += quoted(f);
        }
        std::fflush(stdout);
        std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"failures\":[%s],"
                    "\"rlc_stalled_flows\":%llu,\"digest\":%s,\"metrics\":%s}\n",
                    ck.failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(ck.attempted),
                    static_cast<unsigned long long>(ck.failed), failures.c_str(),
                    static_cast<unsigned long long>(ck.rlc_stalled_flows),
                    quoted(hex(digest)).c_str(), metrics.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "l4span_perf: %s\n", e.what());
        return 1;
    }
}
