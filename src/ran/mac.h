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

// The one cell configuration the paper's srsRAN testbed runs: 20 MHz at
// 30 kHz SCS in TDD band n78, DDDSU pattern.
inline constexpr int k_n_prb = 51;                    // cell bandwidth in PRBs
inline constexpr int k_rbg_size = 4;                  // PF allocation granularity (PRBs)
inline constexpr sim::tick k_slot = sim::from_us(500);  // 30 kHz SCS slot length
inline constexpr int k_tdd_period_slots = 5;          // DDDSU
inline constexpr int k_tdd_dl_slots = 3;              // slots 0..2 full DL
inline constexpr double k_special_slot_factor = 0.5;  // slot 3 carries half a DL slot
inline constexpr double k_initial_bler = 0.10;        // HARQ first-transmission BLER
inline constexpr double k_retx_bler = 0.02;           // after combining gain
inline constexpr int k_max_harq_tx = 4;
// MAC/PHY retransmission lag [76,83,86].
inline constexpr sim::tick k_harq_rtt = sim::from_ms(8);
// Slot decode latency at the UE.
inline constexpr sim::tick k_ota_delay = sim::from_us(500);
inline constexpr double k_pf_window_slots = 200.0;  // PF average-rate EWMA horizon

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
    explicit prb_allocator(sched_policy policy) : policy_(policy) {}

    void add_ue() { avg_rate_.push_back(1.0); }

    // PRBs granted per input entry (same order as `in`), written into
    // `grants` (resized; caller-owned so the per-slot hot path reuses
    // capacity). `available_prb` may be lower than k_n_prb when HARQ
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
        const double w = 1.0 / k_pf_window_slots;
        avg_rate_[ue_index] = (1.0 - w) * avg_rate_[ue_index] + w * served_bytes;
    }

private:
    sched_policy policy_;
    std::size_t rr_cursor_ = 0;
    std::vector<double> avg_rate_;
    std::vector<std::uint64_t> planned_scratch_;  // PF inner-loop scratch
};

}  // namespace l4span::ran
