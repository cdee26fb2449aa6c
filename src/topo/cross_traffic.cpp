#include "topo/cross_traffic.h"

#include <algorithm>
#include <stdexcept>

namespace l4span::topo {

void cross_traffic_spec::validate(const std::string& where) const
{
    if (model != "poisson" && model != "cbr")
        throw std::invalid_argument(where + ": unknown cross-traffic model \"" +
                                    model + "\" (valid: poisson, cbr)");
    if (!(rate_bps > 0.0))
        throw std::invalid_argument(
            where + ": rate_bps = " + std::to_string(rate_bps) +
            " — cross-traffic needs a positive offered load in bits per "
            "second (omit the entry to disable it)");
    if (pkt_bytes == 0)
        throw std::invalid_argument(
            where + ": pkt_bytes must be >= 1 — a cross-traffic packet needs "
            "at least one payload byte to occupy the bottleneck");
    if (start_time < 0)
        throw std::invalid_argument(
            where + ": start_time must be >= 0 (simulation time starts at 0)");
    if (stop_time >= 0 && stop_time <= start_time)
        throw std::invalid_argument(
            where + ": stop_time must be after start_time (or -1 to run to "
            "the end of the scenario)");
}

cross_traffic::cross_traffic(sim::event_loop& loop, cross_traffic_spec spec,
                             std::uint64_t seed, std::uint32_t index,
                             send_fn send)
    : loop_(loop),
      spec_(std::move(spec)),
      rng_(seed),
      index_(index),
      send_(std::move(send))
{
    spec_.validate("cross_traffic");
    const std::int64_t wire =
        static_cast<std::int64_t>(spec_.pkt_bytes) + net::k_ipv4_header_bytes +
        net::k_udp_header_bytes;
    mean_gap_ = std::max<sim::tick>(1, sim::tx_time(wire, spec_.rate_bps));
}

void cross_traffic::start()
{
    loop_.schedule_at(spec_.start_time, [this] { emit(); });
}

sim::tick cross_traffic::next_gap()
{
    if (spec_.model == "cbr") return mean_gap_;
    return std::max<sim::tick>(
        1, static_cast<sim::tick>(
               rng_.exponential(static_cast<double>(mean_gap_))));
}

void cross_traffic::emit()
{
    if (spec_.stop_time >= 0 && loop_.now() >= spec_.stop_time) return;

    net::packet p;
    p.ft.src_ip = 0x0a630001u + index_;  // 10.99.0.x: background senders
    p.ft.dst_ip = 0x0a630100u + index_;
    p.ft.src_port = static_cast<std::uint16_t>(40000 + index_);
    p.ft.dst_port = 9;  // discard
    p.ft.proto = net::ip_proto::udp;
    p.ecn_field = spec_.ecn_field;
    p.payload_bytes = spec_.pkt_bytes;
    p.flow_id = k_flow_id;
    p.pkt_id = packets_;
    p.sent_time = loop_.now();

    ++packets_;
    send_(std::move(p));

    loop_.schedule_after(next_gap(), [this] { emit(); });
}

}  // namespace l4span::topo
