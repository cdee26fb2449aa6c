// Fig. 21 — Wall-clock processing time of L4Span's three event handlers
// against a busy entity (64 UEs' state, deep profile tables), plus a
// per-stage breakdown of the simulator's own hot path (RLC / MAC / AQM /
// L4Span) so hot-path PRs start from data rather than a fresh profile.
// The paper reports <2 us for uplink/feedback and <4 us worst-case for
// downlink packets.
//
// Measurement is plain std::chrono (steady_clock around a tight loop,
// one discarded warmup rep, median of three): no google-benchmark
// dependency, so the binary builds everywhere the simulator does and the
// JSON it emits can be gated in CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "aqm/dualpi2.h"
#include "scenario/bench_format.h"
#include "core/l4span.h"
#include "net/packet_pool.h"
#include "ran/mac.h"
#include "ran/rlc.h"
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

// --- L4Span handlers (the paper's Fig. 21 measurement) ----------------------

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

// --- simulator hot-path stages ----------------------------------------------

// RLC: one enqueue + one grant-sized pull per op (the DU-side per-SDU work:
// queue, SN-ring bookkeeping, transmit-status emission, pool references).
double bench_rlc_stage(int n_ops)
{
    net::packet_pool pool;
    ran::rlc_tx tx(1, 1, ran::rlc_config{}, pool);
    std::vector<ran::tb_chunk> chunks;
    return ns_per_op(
        [&, t = sim::tick{0}, sn = ran::pdcp_sn_t{1}](int n) mutable {
            for (int i = 0; i < n; ++i) {
                t += sim::from_us(10);
                ran::pdcp_sdu sdu;
                sdu.sn = sn++;
                sdu.pkt = make_dl_packet(1);
                sdu.size = 1400;
                sdu.ingress_time = t;
                tx.enqueue(std::move(sdu), t);
                chunks.clear();
                tx.pull(1500, t, chunks);
                for (auto& c : chunks)
                    if (c.pkt) pool.release(c.pkt);
            }
        },
        n_ops);
}

// MAC: one full 64-UE PRB allocation per op (the per-DL-slot scheduler run).
double bench_mac_stage(int n_ops)
{
    ran::mac_config cfg;
    ran::prb_allocator alloc(cfg);
    std::vector<ran::sched_input> inputs;
    for (int u = 0; u < k_ues; ++u) {
        alloc.add_ue();
        ran::sched_input si;
        si.ue_index = static_cast<std::uint32_t>(u);
        si.backlog_bytes = 200'000;
        si.bytes_per_prb = 80.0 + u;
        inputs.push_back(si);
    }
    std::vector<int> grants;
    return ns_per_op(
        [&](int n) {
            for (int i = 0; i < n; ++i) alloc.allocate(inputs, cfg.n_prb, grants);
        },
        n_ops);
}

// AQM: one DualPI2 enqueue + dequeue per op (sojourn sampling, PI update,
// step marking).
double bench_aqm_stage(int n_ops)
{
    aqm::dualpi2_queue q;
    return ns_per_op(
        [&, t = sim::tick{0}](int n) mutable {
            for (int i = 0; i < n; ++i) {
                t += sim::from_us(10);
                q.enqueue(make_dl_packet(1), t);
                (void)q.dequeue(t + sim::from_us(5));
            }
        },
        n_ops);
}

}  // namespace

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const int n_handler = args.quick ? 50'000 : 500'000;
    const int n_stage = args.quick ? 50'000 : 500'000;
    const int n_mac = args.quick ? 5'000 : 50'000;  // a full 64-UE slot per op

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

    std::printf("\nSimulator hot-path stages (per-op cost the busy-cell rows"
                " are made of):\n");
    stats::table stages({"stage", "unit of work", "ns/op"});
    auto stages_json = stats::json::object();
    const struct {
        const char* key;
        const char* unit;
        double ns;
    } stage_rows[] = {
        {"rlc", "enqueue + grant pull (1 SDU)", bench_rlc_stage(n_stage)},
        {"mac", "64-UE PRB allocation (1 slot)", bench_mac_stage(n_mac)},
        {"aqm", "DualPI2 enqueue + dequeue", bench_aqm_stage(n_stage)},
        {"l4span", "DL mark decision (= on_dl_packet)", handler_rows[0].ns},
    };
    for (const auto& r : stage_rows) {
        stages.add_row({r.key, r.unit, stats::table::num(r.ns, 1)});
        stages_json.set(r.key, r.ns);
    }
    stages.print();
    summary.set("stage_ns", std::move(stages_json));

    return benchutil::finish(args, summary);
}
