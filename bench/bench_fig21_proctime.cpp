// Fig. 21 — Wall-clock processing time of L4Span's three event handlers
// against a busy entity (64 UEs' state, deep profile tables). The paper
// reports <2 us for uplink/feedback and <4 us worst-case for downlink
// packets.
//
// Measurement is plain std::chrono (steady_clock around a tight loop,
// one discarded warmup rep, median of three). The per-layer cost of the
// simulator's own hot path is measured in situ by bench/perf.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "scenario/bench_format.h"
#include "core/l4span.h"
#include "stats/json.h"
#include "stats/table.h"

using namespace l4span;

namespace {

constexpr int k_ues = 64;

// Median-of-3 ns/op around `body(n)`; one discarded warmup rep.
template <typename Body>
double ns_per_op(Body&& body, int n)
{
    body(n / 10 + 1);  // warmup, discarded
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        body(n);
        const auto t1 = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                          n);
    }
    std::sort(samples.begin(), samples.end());
    return samples[1];
}

net::packet make_dl_packet(int u)
{
    net::packet p;
    p.ft = {0x0a000000u + static_cast<std::uint32_t>(u), 0xc0a80001u, 443,
            static_cast<std::uint16_t>(50000 + u), net::ip_proto::tcp};
    p.ecn_field = net::ecn::ect1;
    p.tcp = net::tcp_header{};
    p.payload_bytes = 1400;
    return p;
}

// Builds an entity with 64 UEs of warmed-up state.
core::l4span make_busy_entity()
{
    core::l4span l(core::l4span_config{});
    for (int u = 1; u <= k_ues; ++u) {
        for (int i = 0; i < 256; ++i) {
            net::packet p = make_dl_packet(u);
            const sim::tick t = i * sim::from_us(500);
            l.on_dl_packet(p, static_cast<ran::rnti_t>(u), 1,
                           static_cast<ran::pdcp_sn_t>(i + 1), t);
            if (i % 2 == 0) {
                ran::dl_delivery_status st;
                st.ue = static_cast<ran::rnti_t>(u);
                st.drb = 1;
                st.highest_transmitted_sn = static_cast<ran::pdcp_sn_t>(i);
                st.has_transmitted = true;
                st.timestamp = t;
                l.on_delivery_status(st, t);
            }
        }
    }
    return l;
}

double bench_dl_packet(int n_ops)
{
    auto l = make_busy_entity();
    return ns_per_op(
        [&, sn = ran::pdcp_sn_t{1000}, t = sim::from_sec(1), u = 1](int n) mutable {
            for (int i = 0; i < n; ++i) {
                net::packet p = make_dl_packet(u);
                t += sim::from_us(10);
                l.on_dl_packet(p, static_cast<ran::rnti_t>(u), 1, ++sn, t);
                u = u % k_ues + 1;
            }
        },
        n_ops);
}

double bench_ul_ack(int n_ops)
{
    auto l = make_busy_entity();
    return ns_per_op(
        [&, t = sim::from_sec(1), u = 1](int n) mutable {
            for (int i = 0; i < n; ++i) {
                net::packet ack;
                ack.ft = net::five_tuple{0x0a000000u + static_cast<std::uint32_t>(u),
                                         0xc0a80001u, 443,
                                         static_cast<std::uint16_t>(50000 + u),
                                         net::ip_proto::tcp}
                             .reversed();
                ack.tcp = net::tcp_header{};
                ack.tcp->flags.ack = true;
                ack.tcp->accecn.present = true;
                t += sim::from_us(10);
                l.on_ul_packet(ack, static_cast<ran::rnti_t>(u), t);
                u = u % k_ues + 1;
            }
        },
        n_ops);
}

double bench_ran_feedback(int n_ops)
{
    auto l = make_busy_entity();
    return ns_per_op(
        [&, t = sim::from_sec(1), sn = ran::pdcp_sn_t{256}, u = 1](int n) mutable {
            for (int i = 0; i < n; ++i) {
                ran::dl_delivery_status st;
                st.ue = static_cast<ran::rnti_t>(u);
                st.drb = 1;
                st.highest_transmitted_sn = sn;
                st.has_transmitted = true;
                st.highest_delivered_sn = sn > 4 ? sn - 4 : 0;
                st.has_delivered = sn > 4;
                t += sim::from_us(10);
                st.timestamp = t;
                l.on_delivery_status(st, t);
                u = u % k_ues + 1;
                if (u == 1) ++sn;
            }
        },
        n_ops);
}

}  // namespace

int run_bench(const scenario::bench_args& args)
{
    const int n_handler = args.quick ? 50'000 : 500'000;

    benchutil::header("Fig. 21: per-packet processing time",
                      "paper: <2 us uplink/feedback, <4 us worst-case downlink");

    auto summary = stats::json::object();
    summary.set("figure", "fig21").set("quick", args.quick);

    std::printf("\nL4Span handlers (busy 64-UE entity):\n");
    stats::table handlers({"handler", "ns/op"});
    auto handlers_json = stats::json::object();
    const struct {
        const char* name;
        double ns;
    } handler_rows[] = {
        {"on_dl_packet", bench_dl_packet(n_handler)},
        {"on_ul_packet (AccECN rewrite)", bench_ul_ack(n_handler)},
        {"on_ran_feedback", bench_ran_feedback(n_handler)},
    };
    for (const auto& r : handler_rows) {
        handlers.add_row({r.name, stats::table::num(r.ns, 1)});
        handlers_json.set(r.name, r.ns);
    }
    handlers.print();
    summary.set("l4span_handlers_ns", std::move(handlers_json));
    return benchutil::finish(args, summary);
}

int main(int argc, char** argv)
{
    return scenario::bench_main(argc, argv, scenario::grid_flags, run_bench);
}
