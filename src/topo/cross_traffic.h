// Wired cross-traffic: unresponsive Poisson or CBR senders sharing the core
// bottleneck queue/AQM with the measured flows. Cross packets consume
// bottleneck capacity (and AQM headroom) but are sunk after the bottleneck —
// they model aggregate Internet background load, not per-UE traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace l4span::topo {

struct cross_traffic_spec {
    // "poisson" (exponential inter-arrivals at the mean rate) or "cbr"
    // (fixed spacing).
    std::string model = "poisson";
    double rate_bps = 0.0;            // offered load (wire bits per second)
    std::uint32_t pkt_bytes = 1200;   // UDP payload per packet
    net::ecn ecn_field = net::ecn::not_ect;  // background is non-ECN by default
    sim::tick start_time = 0;
    sim::tick stop_time = -1;         // -1: run to scenario end
    // Compete for the uplink (server-side return) bottleneck instead of the
    // downlink core bottleneck: background load on the ACK path, which
    // delays and aggregates the measured flows' feedback. Requires
    // cell_spec.ul_bottleneck_bps > 0.
    bool uplink = false;

    // Throws std::invalid_argument naming `where` with an actionable
    // message on any invalid field.
    void validate(const std::string& where) const;
};

class cross_traffic {
public:
    using send_fn = std::function<void(net::packet)>;

    // Cross packets carry this flow_id; scenario routing tables treat any
    // unknown flow_id as a sink, so the packets vanish after the bottleneck.
    static constexpr std::uint64_t k_flow_id = ~0ull;

    // `index` differentiates the five-tuples (and seeds) of multiple
    // generators in one scenario.
    cross_traffic(sim::event_loop& loop, cross_traffic_spec spec,
                  std::uint64_t seed, std::uint32_t index, send_fn send);

    // Schedules the first emission at spec.start_time. Call once.
    void start();

    std::uint64_t packets_sent() const { return packets_; }

private:
    void emit();
    sim::tick next_gap();

    sim::event_loop& loop_;
    cross_traffic_spec spec_;
    sim::rng rng_;
    std::uint32_t index_;
    send_fn send_;
    sim::tick mean_gap_ = 0;
    std::uint64_t packets_ = 0;
};

}  // namespace l4span::topo
