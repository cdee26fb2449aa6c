// MAC downlink scheduler: distributes the cell's PRBs among backlogged UEs
// each DL slot. Round-robin and proportional-fair, the two policies the
// paper evaluates (Fig. 10).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace l4span::ran {

enum class sched_policy : std::uint8_t {
    round_robin,
    proportional_fair,
};

struct mac_config {
    int n_prb = 51;                       // 20 MHz @ 30 kHz SCS (TDD band n78)
    int rbg_size = 4;                     // allocation granularity (PRBs)
    sim::tick slot = sim::from_us(500);   // 30 kHz SCS slot length
    int tdd_period_slots = 5;             // DDDSU
    int tdd_dl_slots = 3;                 // slots 0..2 full DL
    double special_slot_factor = 0.5;     // slot 3 carries half a DL slot
    double initial_bler = 0.10;           // HARQ first-transmission error rate
    double retx_bler = 0.02;              // after combining gain
    int max_harq_tx = 4;
    sim::tick harq_rtt = sim::from_ms(8); // MAC/PHY retransmission lag [76,83,86]
    sim::tick ota_delay = sim::from_us(500);  // slot decode latency at the UE
    double pf_window_slots = 200.0;       // PF average-rate EWMA horizon
    sched_policy policy = sched_policy::round_robin;
};

// One UE's standing in the current slot.
struct sched_input {
    std::uint32_t ue_index = 0;          // dense index into the scheduler state
    std::uint64_t backlog_bytes = 0;     // RLC fresh + retx bytes
    double bytes_per_prb = 0.0;          // from current MCS
};

// Stateful PRB allocator. Dense per-UE state is maintained across slots
// (round-robin cursor, PF average rates).
class prb_allocator {
public:
    explicit prb_allocator(mac_config cfg) : cfg_(cfg) {}

    void add_ue() { avg_rate_.push_back(1.0); }

    // PRBs granted per input entry (same order as `in`), written into
    // `grants` (resized; caller-owned so the per-slot hot path reuses
    // capacity). `available_prb` may be lower than cfg.n_prb when HARQ
    // retransmissions already claimed part of the slot.
    void allocate(const std::vector<sched_input>& in, int available_prb,
                  std::vector<int>& grants);
    std::vector<int> allocate(const std::vector<sched_input>& in, int available_prb)
    {
        std::vector<int> grants;
        allocate(in, available_prb, grants);
        return grants;
    }

    // PF bookkeeping: every slot, fold the bytes actually served.
    void update_average(std::uint32_t ue_index, double served_bytes)
    {
        const double w = 1.0 / cfg_.pf_window_slots;
        avg_rate_[ue_index] = (1.0 - w) * avg_rate_[ue_index] + w * served_bytes;
    }

private:
    mac_config cfg_;
    std::size_t rr_cursor_ = 0;
    std::vector<double> avg_rate_;
    std::vector<std::uint64_t> planned_scratch_;  // PF inner-loop scratch
};

}  // namespace l4span::ran
