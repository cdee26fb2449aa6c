// Structural QUIC packet model: connection IDs, packet numbers, frames.
//
// QUIC rides in UDP datagrams, so the RAN and L4Span see only the outer IP
// header (five-tuple, ECN field, length) — exactly the deployment reality
// the paper's downlink-marking fallback handles. The frame content below is
// carried opaquely in net::packet::app_data; only the endpoints parse it.
// ACK frames are additionally round-tripped through net::quic_wire so ACK
// packets are charged their true wire size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/five_tuple.h"
#include "net/quic_wire.h"
#include "sim/time.h"

namespace l4span::transport::quic {

using cid_t = std::uint64_t;        // connection ID (sequence within the set)
using pn_t = std::uint64_t;         // monotonic packet number (never reused)
using stream_id_t = std::uint64_t;

inline constexpr std::uint32_t k_short_header_bytes = 1 + 8 + 4;  // flags+CID+PN
inline constexpr std::uint32_t k_stream_frame_overhead = 8;       // type+id+off+len
// Connection IDs the receiver pre-issues for migration: [k_cid_base,
// k_cid_base + k_issued_cids).
inline constexpr cid_t k_cid_base = 1;
inline constexpr int k_issued_cids = 4;

// STREAM frame: `len` bytes of stream `id` at `offset` (bytes are counted,
// not materialized, like the rest of the packet model).
struct stream_frame {
    stream_id_t id = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    bool fin = false;
};

// MAX_DATA / MAX_STREAM_DATA flow-control credit carried on the ACK path:
// the receiver continuously extends its windows as data is consumed.
struct flow_credit {
    std::uint64_t conn_max_data = 0;
    std::optional<stream_id_t> stream;
    std::uint64_t stream_max_data = 0;
};

// The decoded content of one QUIC packet. Handshake packets model the
// Initial exchange (the sender's first flight and the peer's response, which
// gives the engine its handshake RTT like TCP's SYN–SYNACK); short packets
// carry stream data and/or an ACK frame.
struct packet_payload {
    cid_t dcid = 0;           // destination connection ID the sender used
    pn_t pn = 0;
    bool handshake = false;
    std::optional<net::quic::ack_frame> ack;
    std::optional<stream_frame> stream;
    std::optional<flow_credit> credit;
};

struct quic_config {
    std::uint32_t mtu_payload = 1400;        // stream bytes per short packet
    std::uint64_t max_cwnd = 4ull << 20;
    std::uint64_t flow_bytes = 0;            // bulk stream 0: 0 = unbounded
    bool app_limited = false;                // data arrives via write() only
    std::uint64_t stream_flow_window = 4ull << 20;
    net::five_tuple ft;                      // downlink direction (server->UE)
    std::uint64_t flow_id = 0;
};

}  // namespace l4span::transport::quic
