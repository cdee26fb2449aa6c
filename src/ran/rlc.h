// RLC transmit entity (DU side) and receive entity (UE side).
//
// The transmit entity owns the deep SDU queue whose sojourn time L4Span
// predicts. It supports:
//  * AM: ARQ retransmission of SDUs whose HARQ delivery failed, plus
//    delivery confirmations that feed the F1-U "highest delivered SN".
//  * UM: no retransmission, transmit feedback only.
// MAC pulls bytes per grant; SDUs may be segmented across transport blocks.
//
// Packet payloads live in a shared net::packet_pool (owned by the gNB): the
// queue, the ARQ retention window and the in-flight TB chunks all reference
// the same pooled slot instead of carrying packet copies, and the per-SN
// maps are sn_ring windows — no per-SDU heap churn on the hot path.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "net/packet_pool.h"
#include "ran/f1u.h"
#include "ran/pdcp.h"
#include "ran/sn_ring.h"
#include "ran/types.h"
#include "sim/time.h"

namespace l4span::ran {

struct rlc_config {
    rlc_mode mode = rlc_mode::am;
    // srsRAN's default DL SDU queue length; the paper also evaluates 256.
    std::size_t max_queue_sdus = 16384;
    int max_rlc_retx = 8;
};

// One segment of an SDU inside a transport block. The final chunk carries a
// pool reference to the SDU's packet; whoever consumes or drops the chunk
// owns that reference (the gNB releases it on every drop path).
struct tb_chunk {
    pdcp_sn_t sn = 0;
    std::uint32_t bytes = 0;       // bytes of this SDU carried in this TB
    std::uint32_t sdu_total = 0;   // full SDU size (for receive reassembly)
    bool carries_last = false;     // this chunk contains the SDU's final byte
    bool is_retx = false;
    net::packet_pool::handle pkt;  // rides with the final chunk
};

// Per-SDU delay decomposition reported when the SDU completes transmission
// (used for the Fig. 10 delay-breakdown experiment).
struct sdu_delay_report {
    pdcp_sn_t sn = 0;
    sim::tick queuing = 0;     // enqueue -> reached head of queue
    sim::tick scheduling = 0;  // head of queue -> fully handed to MAC
};

class rlc_tx {
public:
    using status_handler = std::function<void(const dl_delivery_status&)>;
    using delay_handler = std::function<void(const sdu_delay_report&)>;
    using discard_handler = std::function<void(pdcp_sn_t, sim::tick)>;

    rlc_tx(rnti_t ue, drb_id_t drb, rlc_config cfg, net::packet_pool& pool)
        : ue_(ue), drb_(drb), cfg_(cfg), pool_(pool)
    {
    }

    const rlc_config& config() const { return cfg_; }

    // --- PDCP side ---
    bool has_room() const { return queue_.size() < cfg_.max_queue_sdus; }
    bool enqueue(pdcp_sdu sdu, sim::tick now);

    // --- MAC side ---
    // Fresh + retransmission bytes awaiting a grant.
    std::uint64_t backlog_bytes() const { return fresh_bytes_ + retx_bytes_; }
    std::size_t queued_sdus() const { return queue_.size(); }

    // Pulls up to `grant_bytes` into `out` (appends; retransmissions first).
    // Emits the F1-U transmit-status feedback when SDUs complete transmission.
    void pull(std::uint32_t grant_bytes, sim::tick now, std::vector<tb_chunk>& out);
    std::vector<tb_chunk> pull(std::uint32_t grant_bytes, sim::tick now)
    {
        std::vector<tb_chunk> chunks;
        pull(grant_bytes, now, chunks);
        return chunks;
    }

    // HARQ gave up on these chunks: AM re-queues the SDUs, UM loses them.
    // The chunks' own pool references stay with the caller.
    void on_tb_lost(const std::vector<tb_chunk>& chunks, sim::tick now);

    // UE's RLC ACK advanced the in-order delivered watermark to `ack_sn`.
    void on_delivery_confirmed(pdcp_sn_t ack_sn, sim::tick now);

    void set_status_handler(status_handler h) { on_status_ = std::move(h); }
    void set_delay_handler(delay_handler h) { on_delay_ = std::move(h); }
    void set_discard_handler(discard_handler h) { on_discard_ = std::move(h); }

    // --- X2/Xn handover (gnb::detach_ue / attach_ue) ---
    // Everything the target cell's RLC entity needs to resume the bearer:
    // the SDUs not yet confirmed delivered (the X2 data-forwarding path —
    // unacknowledged SDUs in SN order, then the fresh queue) plus the
    // delivered watermark so F1-U status reports stay monotone.
    struct context {
        std::vector<pdcp_sdu> forwarded;
        pdcp_sn_t delivered_watermark = 0;
        bool any_delivered = false;
    };
    // Drains this entity into a context; it is left empty. Packets are
    // materialized out of the pool (the context crosses cells, and pools).
    context export_context();
    // Only valid on a freshly constructed entity. Forwarded SDUs re-enter
    // the fresh queue whole (segment-level transfer is below the fidelity
    // the queueing model needs) and count against no admission limit: X2
    // forwarding must not drop data the source already admitted.
    void restore(context ctx, sim::tick now);

    pdcp_sn_t highest_transmitted() const { return highest_txed_; }
    pdcp_sn_t highest_delivered() const { return delivered_watermark_; }
    std::uint64_t drops() const { return drops_; }
    std::uint64_t total_txed_bytes() const { return total_txed_bytes_; }

private:
    struct queued_sdu {
        pdcp_sn_t sn = 0;
        std::uint32_t size = 0;
        sim::tick ingress_time = 0;
        net::packet_pool::handle pkt;
        std::uint32_t sent = 0;           // bytes already handed to MAC
        sim::tick head_time = -1;         // when it became queue head
        int retx_count = 0;
    };
    struct retx_sdu {
        net::packet_pool::handle pkt;
        pdcp_sn_t sn = 0;
        std::uint32_t size = 0;
        std::uint32_t sent = 0;
        int retx_count = 0;
    };
    // AM: SDU fully transmitted, awaiting delivery confirmation; the pool
    // reference is retained so HARQ give-up can requeue the packet.
    struct awaiting_sdu {
        net::packet_pool::handle pkt;
        int retx_count = 0;
    };

    void emit_status(sim::tick now);

    rnti_t ue_;
    drb_id_t drb_;
    rlc_config cfg_;
    net::packet_pool& pool_;

    std::deque<queued_sdu> queue_;      // fresh SDUs, front = head
    std::deque<retx_sdu> retx_queue_;   // AM retransmissions (priority)
    std::uint64_t fresh_bytes_ = 0;
    std::uint64_t retx_bytes_ = 0;

    sn_ring<awaiting_sdu> awaiting_delivery_;

    pdcp_sn_t highest_txed_ = 0;
    bool any_txed_ = false;
    pdcp_sn_t delivered_watermark_ = 0;
    bool any_delivered_ = false;
    std::uint64_t drops_ = 0;
    std::uint64_t total_txed_bytes_ = 0;

    status_handler on_status_;
    delay_handler on_delay_;
    discard_handler on_discard_;
};

// UE-side receive entity: reassembles segmented SDUs and delivers in
// order. AM holds indefinitely (ARQ guarantees arrival); UM holds behind a
// gap only until the reassembly deadline (t-Reassembly, TS 38.322) — long
// enough for a full HARQ retransmission chain — then skips the hole.
//
// on_chunk takes ownership of the chunk's pool reference (released on the
// duplicate path, stored in the reassembly window otherwise).
class rlc_rx {
public:
    using deliver_handler = std::function<void(net::packet, sim::tick)>;
    // AM: in-order delivered watermark advanced (drives the RLC ACK).
    using ack_handler = std::function<void(pdcp_sn_t, sim::tick)>;

    rlc_rx(rlc_mode mode, net::packet_pool& pool) : mode_(mode), pool_(pool) {}

    void on_chunk(const tb_chunk& chunk, sim::tick now);

    // DU discarded this SN (retransmission give-up): treat it as delivered
    // so in-order delivery does not stall on the hole.
    void skip(pdcp_sn_t sn, sim::tick now);

    void set_deliver_handler(deliver_handler h) { on_deliver_ = std::move(h); }
    void set_ack_handler(ack_handler h) { on_ack_ = std::move(h); }

    pdcp_sn_t delivered_watermark() const { return next_expected_ - 1; }

    // --- X2/Xn handover ---
    // The receive entity is re-established at handover (TS 38.322): partial
    // reassembly state is flushed — every SDU not yet delivered in order is
    // unacknowledged at the source and rides the forwarded-data path — but
    // the in-order point and the DU-discarded holes must survive, or the
    // target stalls forever waiting for SN 1.
    struct context {
        pdcp_sn_t next_expected = 1;
        std::vector<pdcp_sn_t> skipped;  // sorted
    };
    context export_context();
    void restore(const context& ctx);

private:
    // One reassembly-window slot: partial/complete SDU data, or a
    // DU-discarded hole (skipped wins over any data that arrives for it).
    struct pending_sdu {
        std::uint32_t received = 0;
        std::uint32_t total = 0;
        net::packet_pool::handle pkt;
        bool skipped = false;
    };

    void drain(sim::tick now);

    // Covers the worst-case HARQ retransmission chain (3 x 8 ms) with margin.
    static constexpr sim::tick k_t_reassembly = sim::from_ms(35);

    rlc_mode mode_;
    net::packet_pool& pool_;
    pdcp_sn_t next_expected_ = 1;
    sn_ring<pending_sdu> window_;
    sim::tick um_gap_deadline_ = -1;                  // UM reassembly timer

    deliver_handler on_deliver_;
    ack_handler on_ack_;
};

}  // namespace l4span::ran
