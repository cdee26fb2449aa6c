#include "workload.h"

#include <algorithm>
#include <stdexcept>

#include "chan/trace_io.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

namespace perf {

namespace {

flow_group group(const char* cca, int first_ue, int count,
                 std::uint64_t max_cwnd = scenario::flow_spec{}.max_cwnd)
{
    flow_group g;
    g.spec.cca = cca;
    g.spec.ue = first_ue;
    g.spec.max_cwnd = max_cwnd;
    g.count = count;
    return g;
}

// The documented seeds below (103 for Tab. 1, 97 and 29 for mc_handover,
// 211 for the trace cell) are what `seed` 0 reproduces. seeds_per_run is
// set so that the spread of the sim_* metrics between runs with different
// seeds stays well inside their bounds.

// Tab. 1's busy cell: 64 UEs, one backlogged tcp-prague flow each, static
// fading, L4Span on, no wired bottleneck, obs off.
workload busy_cell(std::uint64_t seed)
{
    workload w;
    w.duration = sim::from_sec(10);
    w.seeds_per_run = 40;
    cell_point p;
    p.cell.num_ues = 64;
    p.cell.channel = "static";
    p.cell.cu = scenario::cu_mode::l4span;
    p.cell.seed = 103 + seed;
    p.flows.push_back(group("prague", 0, 64));
    w.cells.push_back(std::move(p));
    return w;
}

// 16 UEs replaying the committed NR-Scope traces (no fading draws) on
// separate L4S and classic DRBs; bulk prague, cubic, bbr2 and quic-prague
// flows plus 30 fps / 1 Mbit/s interactive frames behind a 120 Mbit/s
// DualPI2 core bottleneck with 20 Mbit/s Poisson cross traffic; obs on.
workload mixed_trace_cell(std::uint64_t seed)
{
    workload w;
    w.duration = sim::from_sec(10);
    w.seeds_per_run = 96;
    cell_point p;
    p.cell.num_ues = 16;
    p.cell.channel = "trace";
    const std::pair<const char*, double> traces[] = {
        {"traces/nr_scope_fdd600_downtown.csv", 0.0},
        {"traces/nr_scope_tdd2500_driving.csv", 0.0},
        {"traces/nr_scope_fdd600_downtown.csv", 1700.0},
        {"traces/nr_scope_tdd2500_driving.csv", 2300.0},
    };
    for (const auto& [file, offset_ms] : traces) {
        chan::trace_config t;
        t.data = chan::load_trace_file(file);
        t.offset = sim::from_ms(offset_ms);
        p.cell.ue_traces.push_back(std::move(t));
    }
    p.cell.cu = scenario::cu_mode::l4span;
    p.cell.seed = 211 + seed;
    p.cell.separate_drbs_per_class = true;
    p.cell.bottleneck_bps = 120e6;
    p.cell.bottleneck_aqm = "dualpi2";
    topo::cross_traffic_spec cross;
    cross.model = "poisson";
    cross.rate_bps = 20e6;
    p.cell.cross_traffic.push_back(cross);
    p.cell.obs.enabled = true;

    constexpr std::uint64_t cwnd = 1536 * 1024;
    p.flows = {group("prague", 0, 3, cwnd), group("cubic", 3, 3, cwnd),
               group("bbr2", 6, 3, cwnd), group("quic-prague", 9, 3, cwnd)};
    flow_group frames = group("quic-prague", 12, 4);
    frames.spec.fps = 30.0;
    frames.spec.frame_bitrate_bps = 1e6;
    p.flows.push_back(frames);
    w.cells.push_back(std::move(p));
    return w;
}

// scenario::topology with 4 cells x 32 UEs, mobile fading, one tcp-prague
// flow per UE and 0.5 handovers per UE per second, sharded over k_jobs.
workload handover_shards(std::uint64_t seed)
{
    workload w;
    w.kind = harness::topology;
    w.duration = sim::from_sec(10);
    w.seeds_per_run = 8;
    topology_point p;
    p.topo.num_cells = 4;
    p.topo.ues_per_cell = 32;
    p.topo.cell.channel = "mobile";
    p.topo.cell.cu = scenario::cu_mode::l4span;
    p.topo.cell.seed = 97 + seed;
    p.flows.push_back(group("prague", 0, 128, 1536 * 1024));
    p.mobility.num_cells = p.topo.num_cells;
    p.mobility.ues_per_cell = p.topo.ues_per_cell;
    p.mobility.handovers_per_ue_per_sec = 0.5;
    p.mobility.end = w.duration;
    p.mobility.seed = 29 + seed;
    w.topology = std::move(p);
    return w;
}

// The Fig. 9 methodology's grid, in scenario_run's point order, each cell
// built exactly as benchutil::run_tcp_grid_cell builds it.
std::vector<cell_point> expand_tcp_grid(const scenario::scenario_spec& spec)
{
    const scenario::tcp_grid_family& fam = spec.tcp_grid;
    std::vector<cell_point> points;
    for (const double rtt : fam.rtts_ms)
        for (const std::size_t queue : fam.queues_sdus)
            for (const int ues : fam.ue_counts)
                for (const auto& cca : fam.ccas)
                    for (const auto& chan : fam.channels)
                        for (const bool on : {false, true}) {
                            cell_point p;
                            p.cell.num_ues = ues;
                            p.cell.channel = chan;
                            p.cell.rlc_queue_sdus = queue;
                            p.cell.cu = on ? scenario::cu_mode::l4span
                                           : scenario::cu_mode::none;
                            p.cell.seed = fam.seed_base + static_cast<std::uint64_t>(ues) + queue;
                            flow_group g;
                            g.spec.cca = cca;
                            g.spec.wired_owd_ms = rtt;
                            g.spec.max_cwnd = 1536 * 1024;
                            g.count = ues;
                            p.flows.push_back(g);
                            points.push_back(std::move(p));
                        }
    return points;
}

// The full Fig. 9 grid, exported with bench_fig09_tcp_grid --export-scenario.
workload fig09_grid(std::uint64_t seed)
{
    const std::string file = "bench/perf/workloads/fig09_grid.json";
    workload w;
    w.kind = harness::grid;
    w.seeds_per_run = 2;
    w.grid = scenario::load_scenario_file(file);
    if (w.grid.family != "tcp_grid") throw std::runtime_error(file + ": must be a tcp_grid scenario");
    w.grid.tcp_grid.seed_base += seed;
    w.duration = w.grid.duration;
    w.cells = expand_tcp_grid(w.grid);
    return w;
}

// --- point runners ------------------------------------------------------------

struct cell_probes {
    std::unique_ptr<timed_hook> hook;
    link_probe link;
};

void install_probes(scenario::cell& c, cell_probes& p, std::size_t cap)
{
    if (core::l4span* l = c.l4span_layer()) {
        p.hook = std::make_unique<timed_hook>(*l);
        c.gnb().set_cu_hook(p.hook.get());
    }
    p.link.cap = cap;
    link_probe* lp = &p.link;
    c.set_linklog_handler([lp](ran::rnti_t ue, sim::tick t, int, int prbs, std::uint32_t) {
        lp->on_query(ue, t, prbs);
    });
}

template <typename Harness>
std::vector<int> add_flows(Harness& h, const std::vector<flow_group>& flows)
{
    std::vector<int> handles;
    for (const flow_group& g : flows)
        for (int k = 0; k < g.count; ++k) {
            scenario::flow_spec f = g.spec;
            f.ue = g.spec.ue + k;
            handles.push_back(h.add_flow(f));
        }
    return handles;
}

template <typename Harness>
void collect_flows(const Harness& h, const std::vector<int>& handles, point_result& r)
{
    for (const int f : handles) {
        const std::vector<double>& owd = h.owd_ms(f).raw();
        const std::uint64_t bytes = h.delivered_bytes(f);
        const std::uint64_t n = owd.size();
        r.digest = fnv1a(&bytes, sizeof bytes, r.digest);
        r.digest = fnv1a(&n, sizeof n, r.digest);
        r.digest = fnv1a(owd.data(), n * sizeof(double), r.digest);
        for (const double v : owd) r.owd_ms.add(v);
        r.tput_mbps.add(h.goodput_mbps(f));
        r.retransmits += h.flow_retransmits(f);
        ++r.flows;
        if (bytes > 0) ++r.flows_delivering;
        if (const media::frame_source* fs = h.frame_stats(f))
            r.stall_frac.push_back(fs->stall_fraction());
    }
}

// A known defect of the simulator's RLC AM: when HARQ gives up on a TB that
// holds only a middle segment of an SDU, rlc_tx::on_tb_lost requeues nothing
// (it maps only final chunks to the retention window), so the receive side
// waits for that SN forever and the bearer delivers nothing more. It hits
// a few percent of busy_cell and fig09_grid runs (README: Checks). From
// outside, the bearer has sent SDUs past its delivered watermark and holds
// nothing left to send. Cell UEs have DRB 1 and, with
// separate_drbs_per_class, DRB 2.
bool bearer_stalled(scenario::cell& c, int ue)
{
    const ran::rnti_t rnti = c.rnti_of(static_cast<std::size_t>(ue));
    const int drbs = c.spec().separate_drbs_per_class ? 2 : 1;
    for (int d = 1; d <= drbs; ++d) {
        const ran::rlc_tx& tx = c.gnb().rlc(rnti, static_cast<ran::drb_id_t>(d));
        if (tx.highest_delivered() < tx.highest_transmitted() && tx.backlog_bytes() == 0)
            return true;
    }
    return false;
}

void count_rlc_stalls(scenario::cell_scenario& s, const std::vector<flow_group>& flows,
                      const std::vector<int>& handles, point_result& r)
{
    std::size_t f = 0;
    for (const flow_group& g : flows)
        for (int k = 0; k < g.count; ++k, ++f)
            if (s.delivered_bytes(handles[f]) == 0 && bearer_stalled(s.cell(), g.spec.ue + k))
                ++r.flows_rlc_stalled;
}

void count_l4span(scenario::cell& c, point_result& r)
{
    core::l4span* l = c.l4span_layer();
    if (!l) return;
    ++r.l4span_cells;
    r.marks += l->marks();
    if (l->marks() > 0) ++r.l4span_cells_marking;
}

void finish_probes(std::vector<cell_probes>& probes,
                   const std::vector<scenario::cell_spec>& specs, point_result& r)
{
    for (std::size_t c = 0; c < probes.size(); ++c) {
        if (probes[c].hook) r.hooks.add(probes[c].hook->stats());
        r.links.emplace_back(std::move(probes[c].link), specs[c]);
    }
}

double since(steady::time_point origin) { return seconds_between(origin, steady::now()); }

// Construction of a point, shared by the runs and the set-up trials.
std::unique_ptr<scenario::cell_scenario> build_cell(const cell_point& p, bool flip_obs,
                                                    std::vector<int>& handles)
{
    scenario::cell_spec spec = p.cell;
    if (flip_obs) spec.obs.enabled = !spec.obs.enabled;
    auto s = std::make_unique<scenario::cell_scenario>(spec);
    handles = add_flows(*s, p.flows);
    return s;
}

std::unique_ptr<scenario::topology> build_topology(const topology_point& p, bool flip_obs,
                                                   int jobs, std::vector<int>& handles)
{
    scenario::topology_spec spec = p.topo;
    spec.jobs = jobs;
    if (flip_obs) spec.cell.obs.enabled = !spec.cell.obs.enabled;
    auto t = std::make_unique<scenario::topology>(spec);
    handles = add_flows(*t, p.flows);
    t->apply(topo::mobility_model(p.mobility).schedule());
    return t;
}

point_result run_cell_point(const cell_point& p, sim::tick duration, const run_options& opt,
                            steady::time_point origin)
{
    point_result r;
    r.start_s = since(origin);
    std::vector<cell_probes> probes(opt.traced ? 1 : 0);  // outlive the scenario
    std::vector<scenario::cell_spec> specs;
    {
        std::vector<int> handles;
        const auto sp = build_cell(p, opt.flip_obs, handles);
        scenario::cell_scenario& s = *sp;
        if (opt.traced) {
            install_probes(s.cell(), probes[0], opt.link_cap);
            specs.push_back(s.cell().spec());
        }
        r.sim_start_s = since(origin);
        s.run(duration);

        r.events = s.loop().processed();
        r.digest = fnv1a(nullptr, 0);
        r.shard_events = {r.events};
        r.peak_pending = s.loop().slab_slots();
        r.slots = s.gnb().slots_elapsed();
        r.cross_packets = s.cross_traffic_packets();
        r.bottleneck_marks = s.bottleneck_ce_marks();
        collect_flows(s, handles, r);
        if (r.flows_delivering < r.flows) count_rlc_stalls(s, p.flows, handles, r);
        count_l4span(s.cell(), r);
        r.l4span = r.l4span_cells == 1;
    }
    finish_probes(probes, specs, r);
    r.end_s = since(origin);
    return r;
}

point_result run_topology_point(const topology_point& p, sim::tick duration,
                                const run_options& opt, int jobs,
                                steady::time_point origin)
{
    point_result r;
    r.start_s = since(origin);
    std::vector<cell_probes> probes(opt.traced ? static_cast<std::size_t>(p.topo.num_cells) : 0);
    std::vector<scenario::cell_spec> specs;
    {
        std::vector<int> handles;
        const auto tp = build_topology(p, opt.flip_obs, jobs, handles);
        scenario::topology& t = *tp;
        r.threads = std::min(jobs, t.num_cells());
        for (std::size_t c = 0; c < probes.size(); ++c) {
            install_probes(t.cell_at(static_cast<int>(c)), probes[c], opt.link_cap);
            specs.push_back(t.cell_at(static_cast<int>(c)).spec());
        }
        r.sim_start_s = since(origin);
        t.run(duration);

        r.events = t.processed_events();
        r.handovers = t.handovers_completed();
        r.digest = fnv1a(&r.handovers, sizeof r.handovers);
        for (std::size_t s = 0; s < t.shards().size(); ++s) {
            const sim::event_loop& loop = t.shards().loop(s);
            r.shard_events.push_back(loop.processed());
            r.peak_pending = std::max<std::uint64_t>(r.peak_pending, loop.slab_slots());
        }
        for (int c = 0; c < t.num_cells(); ++c) {
            r.slots += t.cell_at(c).gnb().slots_elapsed();
            count_l4span(t.cell_at(c), r);
        }
        collect_flows(t, handles, r);
        r.l4span = r.l4span_cells == static_cast<std::uint64_t>(t.num_cells());
    }
    finish_probes(probes, specs, r);
    r.end_s = since(origin);
    return r;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

workload make_workload(const workload_source& src)
{
    const std::pair<const char*, workload (*)(std::uint64_t)> known[] = {
        {"busy_cell", busy_cell},
        {"mixed_trace_cell", mixed_trace_cell},
        {"fig09_grid", fig09_grid},
        {"handover_shards", handover_shards},
    };
    std::string names;
    for (const auto& [name, make] : known) {
        if (src.name == name) return make(src.seed);
        names += names.empty() ? name : std::string(", ") + name;
    }
    throw std::runtime_error("unknown workload " + src.name + " (valid: " + names + ")");
}

std::uint64_t rep_result::digest() const
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const point_result& p : points) h = fnv1a(&p.digest, sizeof p.digest, h);
    return h;
}

std::uint64_t rep_result::events() const
{
    std::uint64_t n = 0;
    for (const point_result& p : points) n += p.events;
    return n;
}

double rep_result::thread_seconds() const
{
    double s = 0.0;
    for (const point_result& p : points) s += (p.end_s - p.sim_start_s) * p.threads;
    return s;
}

rep_result run_rep(const workload_source& src, const run_options& opt)
{
    const auto origin = steady::now();
    const workload w = make_workload(src);
    rep_result rep;
    rep.parse_s = since(origin);
    if (w.topology) {
        rep.points.push_back(run_topology_point(*w.topology, w.duration, opt, opt.jobs, origin));
    } else {
        scenario::grid_runner pool(w.kind == harness::grid ? k_jobs : 1);
        rep.workers = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(pool.jobs()), w.cells.size()));
        rep.points = pool.map(w.cells.size(), [&](std::size_t i) {
            return run_cell_point(w.cells[i], w.duration, opt, origin);
        });
    }
    const double end = since(origin);
    double first_sim = end;
    for (const point_result& p : rep.points) first_sim = std::min(first_sim, p.sim_start_s);
    rep.wall_s = end - first_sim;
    rep.fanout_s = end - rep.parse_s;
    return rep;
}

double setup_trial(const workload_source& src)
{
    const auto origin = steady::now();
    const workload w = make_workload(src);
    double seconds = since(origin);
    std::vector<int> handles;
    if (w.topology) {
        const auto built = steady::now();
        const auto t = build_topology(*w.topology, false, k_jobs, handles);
        return seconds + since(built);
    }
    // One point at a time, each discarded before the next is built, so the
    // trial never holds more than one point's memory.
    for (const cell_point& p : w.cells) {
        const auto built = steady::now();
        const auto s = build_cell(p, false, handles);
        seconds += since(built);
    }
    return seconds;
}

double run_scenario_rep(const workload_source& src, stats::json& summary)
{
    const workload w = make_workload(src);
    scenario::bench_args args;
    args.jobs = k_jobs;
    args.quick = w.grid.quick;
    const auto origin = steady::now();
    if (scenario::run_scenario(w.grid, args, &summary) != 0)
        throw std::runtime_error("run_scenario failed on " + src.name);
    return since(origin);
}

}  // namespace perf
