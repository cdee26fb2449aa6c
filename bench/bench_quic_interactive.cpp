// Interactive media over QUIC vs TCP in an L4Span multi-cell deployment:
// the workload 5G-Advanced L4S work targets (XR / cloud gaming frame-paced
// traffic) that the byte-stream benches cannot express.
//
// Grid: transport {quic-prague, tcp-prague, tcp-cubic} x background load
// {off, 2 bulk CUBIC UEs} x mobility {none, X2/Xn handover}. Each point
// runs a 2-cell scenario::topology with a 60 fps / 8 Mb/s frame source
// (periodic keyframe bursts) on UE 0 and reports what the application
// feels: per-frame completion OWD (p50/p90/p99), the stall fraction
// (frames over a 50 ms delivery budget), and transport-level re-sends —
// QUIC's CID path switch vs TCP riding the forwarded RLC state.
//
// Points fan out across the grid_runner thread pool; each point runs its
// topology serially (jobs=1), so stdout and the JSON summary are
// byte-identical for any --jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/grid_runner.h"
#include "scenario/topology.h"
#include "stats/json.h"

using namespace l4span;

namespace {

struct grid_point {
    std::string transport;  // quic-prague | tcp-prague | tcp-cubic
    bool background;
    bool handover;
};

// "tcp-prague" -> flow_spec CCA "prague"; quic-* names pass through.
std::string cca_of(const std::string& transport)
{
    if (transport.rfind("tcp-", 0) == 0) return transport.substr(4);
    return transport;
}

struct point_result {
    stats::sample_set frame_owd_ms;
    double stall_fraction = 0.0;
    std::uint64_t frames_completed = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t handovers = 0;
    double background_mbps = 0.0;
};

point_result run_point(const grid_point& p, sim::tick duration)
{
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 3;  // UE 0 interactive; UEs 1-2 optional background
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "mobile";
    spec.cell.seed = 61;
    spec.jobs = 1;  // grid-level parallelism only: points stay byte-identical
    scenario::topology topo(spec);

    scenario::flow_spec game;
    game.cca = cca_of(p.transport);
    game.ue = 0;
    game.fps = 60.0;
    game.frame_bitrate_bps = 8e6;
    game.keyframe_interval_s = 2.0;
    game.keyframe_scale = 4.0;
    game.frame_deadline_ms = 50.0;
    const int h = topo.add_flow(game);

    std::vector<int> bg;
    if (p.background) {
        for (int ue = 1; ue <= 2; ++ue) {
            scenario::flow_spec f;
            f.cca = "cubic";
            f.ue = ue;
            f.max_cwnd = 1536 * 1024;
            bg.push_back(topo.add_flow(f));
        }
    }
    if (p.handover) {
        // Out and back: the interactive UE crosses cells twice mid-session.
        topo.schedule_handover(duration / 3, 0, 1);
        topo.schedule_handover(2 * duration / 3, 0, 0);
    }
    topo.run(duration);

    point_result r;
    const media::frame_source* fr = topo.frame_stats(h);
    for (double v : fr->frame_owd_ms().raw()) r.frame_owd_ms.add(v);
    r.stall_fraction = fr->stall_fraction();
    r.frames_completed = fr->frames_completed();
    r.frames_sent = fr->frames_sent();
    r.retransmits = topo.flow_retransmits(h);
    r.handovers = topo.handovers_completed();
    for (const int b : bg) r.background_mbps += topo.goodput_mbps(b);
    return r;
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    benchutil::header("Interactive media over QUIC vs TCP (frame OWD / stalls)",
                      "scenario-diversity item: Prague-over-QUIC frame-paced "
                      "traffic with L4Span marking, background load and "
                      "X2/Xn handover (cf. Fig. 13 methodology)");

    std::vector<grid_point> points;
    const std::vector<std::string> transports{"quic-prague", "tcp-prague", "tcp-cubic"};
    if (args.quick) {
        for (const auto& t : transports) points.push_back({t, true, true});
    } else {
        for (const auto& t : transports)
            for (const bool load : {false, true})
                for (const bool ho : {false, true}) points.push_back({t, load, ho});
    }
    const sim::tick duration = args.quick ? sim::from_ms(2500) : sim::from_sec(6);

    scenario::grid_runner pool(args.jobs);
    std::fprintf(stderr, "quic_interactive: %zu points over %d worker(s)\n",
                 points.size(), pool.jobs());
    const auto results = pool.map(points.size(), [&](std::size_t i) {
        return run_point(points[i], duration);
    });

    auto summary = stats::json::object();
    summary.set("figure", "quic_interactive").set("quick", args.quick);
    auto json_points = stats::json::array();

    stats::table t({"transport", "bg load", "HO", "frames", "frame OWD ms p50/p90/p99",
                    "stall %", "retx", "bg Mbit/s"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const grid_point& p = points[i];
        const point_result& r = results[i];
        char owd[96];
        std::snprintf(owd, sizeof(owd), "%.1f/%.1f/%.1f", r.frame_owd_ms.median(),
                      r.frame_owd_ms.percentile(90), r.frame_owd_ms.percentile(99));
        t.add_row({p.transport, p.background ? "2x cubic" : "-",
                   p.handover ? std::to_string(r.handovers) : "-",
                   std::to_string(r.frames_completed), owd,
                   stats::table::num(100.0 * r.stall_fraction, 1),
                   std::to_string(r.retransmits),
                   p.background ? stats::table::num(r.background_mbps, 1) : "-"});

        auto jp = stats::json::object();
        jp.set("transport", p.transport)
            .set("background", p.background)
            .set("handover", p.handover)
            .set("frames_sent", r.frames_sent)
            .set("frames_completed", r.frames_completed)
            .set("frame_owd_ms", benchutil::box_json(r.frame_owd_ms))
            .set("frame_owd_p99_ms", r.frame_owd_ms.percentile(99))
            .set("stall_fraction", r.stall_fraction)
            .set("retransmits", r.retransmits)
            .set("handovers", r.handovers)
            .set("background_mbps", r.background_mbps);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
