// Fig. 2 — Performance of L4S (Prague) and CUBIC in three networks:
//  (a) a wired path with a DualPi2 L4S router,
//  (b) a vanilla 5G RAN (deep RLC queue, no signaling),
//  (c) the 5G RAN with L4Span.
// In (b) and (c), a wired middlebox bottleneck dips below the RAN's rate
// during t in [10, 20) s, shifting the bottleneck out of the RAN and back.
#include <cstdio>

#include "aqm/dualpi2.h"
#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "topo/wired_link.h"
#include "transport/tcp.h"

using namespace l4span;

namespace {

// Fig. 2(a): server -> DualPi2 router (40 Mbit/s) -> client, no RAN.
void wired_l4s_router()
{
    benchutil::header("Fig. 2(a): wired network with a DualPi2 L4S router",
                      "Prague ~sub-ms queue + line rate; CUBIC ~15-25 ms (PI target)");
    sim::event_loop loop;
    topo::wired_link link(loop, 40e6, sim::from_ms(9),
                          std::make_unique<aqm::dualpi2_queue>());
    struct endpoint {
        std::unique_ptr<transport::tcp_sender> snd;
        std::unique_ptr<transport::tcp_receiver> rcv;
        stats::sample_set rtt_by_sec[31];
        stats::rate_series tput{sim::from_sec(1)};
    };
    endpoint eps[2];
    const char* names[2] = {"prague", "cubic"};
    for (int i = 0; i < 2; ++i) {
        transport::tcp_config cfg;
        cfg.ft.src_port = static_cast<std::uint16_t>(100 + i);
        cfg.ft.dst_port = static_cast<std::uint16_t>(200 + i);
        cfg.flow_id = static_cast<std::uint64_t>(i);
        auto cc = transport::make_cc(names[i], cfg.mss);
        const bool accecn = cc->uses_accecn();
        auto* ep = &eps[i];
        ep->snd = std::make_unique<transport::tcp_sender>(
            loop, cfg, std::move(cc), [&link](net::packet p) { link.send(std::move(p)); });
        ep->rcv = std::make_unique<transport::tcp_receiver>(
            loop, cfg, accecn, [&loop, ep](net::packet p) {
                // Reverse path: pure 9 ms propagation (ACKs uncongested).
                loop.schedule_after(sim::from_ms(9), [ep, p = std::move(p)] {
                    ep->snd->on_packet(p);
                });
            });
    }
    link.set_deliver([&](net::packet p) {
        auto* ep = &eps[p.flow_id];
        ep->tput.add(loop.now(), p.payload_bytes);
        ep->rcv->on_packet(p);
    });
    eps[0].snd->start();
    eps[1].snd->start();
    loop.run_until(sim::from_sec(30));

    stats::table t({"flow", "median RTT (ms)", "p90 RTT (ms)", "avg tput (Mbit/s)"});
    for (int i = 0; i < 2; ++i)
        t.add_row({names[i], stats::table::num(eps[i].snd->rtt_samples().median(), 1),
                   stats::table::num(eps[i].snd->rtt_samples().percentile(90), 1),
                   stats::table::num(eps[i].tput.total_mbps(sim::from_sec(30)), 2)});
    t.print();
}

// Fig. 2(b)/(c): the 5G path with the mid-run wired bottleneck dip.
void ran_case(bool with_l4span)
{
    benchutil::header(with_l4span ? "Fig. 2(c): 5G RAN + L4Span"
                                  : "Fig. 2(b): vanilla 5G RAN",
                      with_l4span
                          ? "both flows' RTT ~tens of ms; RLC queue stays shallow"
                          : "RTT ~10^3 ms from the deep RLC queue");
    scenario::cell_spec cell;
    cell.num_ues = 1;
    cell.channel = "static";
    cell.cu = with_l4span ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.separate_drbs_per_class = true;
    cell.seed = 21;
    cell.bottleneck_bps = 100e6;
    cell.bottleneck_schedule = {{sim::from_sec(10), 20e6}, {sim::from_sec(20), 100e6}};
    scenario::cell_scenario s(cell);

    scenario::flow_spec prague;
    prague.cca = "prague";
    const int hp = s.add_flow(prague);
    scenario::flow_spec cubic;
    cubic.cca = "cubic";
    const int hc = s.add_flow(cubic);
    s.run(sim::from_sec(30));

    stats::table t({"t (s)", "prague Mbit/s", "cubic Mbit/s", "RLC queue (SDUs)"});
    const auto& gp = s.goodput_series(hp);
    const auto& gc = s.goodput_series(hc);
    const auto rq = s.rlc_queue_series(0).means();
    for (int sec = 1; sec < 30; sec += 2) {
        double p = 0, c = 0;
        for (int k = 0; k < 10; ++k) {
            p += gp.mbps_at(sim::from_sec(sec) + k * sim::from_ms(100)) / 10.0;
            c += gc.mbps_at(sim::from_sec(sec) + k * sim::from_ms(100)) / 10.0;
        }
        const std::size_t bin = static_cast<std::size_t>(sec * 10);
        t.add_row({std::to_string(sec), stats::table::num(p, 1), stats::table::num(c, 1),
                   stats::table::num(bin < rq.size() ? rq[bin] : 0.0, 0)});
    }
    t.print();
    std::printf("prague RTT p50/p90: %.1f/%.1f ms   cubic RTT p50/p90: %.1f/%.1f ms\n",
                s.rtt_ms(hp).median(), s.rtt_ms(hp).percentile(90), s.rtt_ms(hc).median(),
                s.rtt_ms(hc).percentile(90));
}

}  // namespace

int run_bench(const scenario::bench_args&)
{
    wired_l4s_router();
    ran_case(false);
    ran_case(true);
    return 0;
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, 0, run_bench);
}
