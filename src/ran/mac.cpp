#include "ran/mac.h"

#include <algorithm>

namespace l4span::ran {

void prb_allocator::allocate(const std::vector<sched_input>& in, int available_prb,
                             std::vector<int>& grants)
{
    grants.assign(in.size(), 0);
    if (in.empty() || available_prb <= 0) return;

    if (policy_ == sched_policy::round_robin) {
        // Equal split among backlogged UEs; the remainder rotates so no UE is
        // systematically favoured.
        const int n = static_cast<int>(in.size());
        const int base = available_prb / n;
        int extra = available_prb % n;
        for (int k = 0; k < n; ++k) {
            const int i = static_cast<int>((rr_cursor_ + static_cast<std::size_t>(k)) %
                                           static_cast<std::size_t>(n));
            grants[static_cast<std::size_t>(i)] = base + (extra > 0 ? 1 : 0);
            if (extra > 0) --extra;
        }
        rr_cursor_ = (rr_cursor_ + 1) % in.size();
        return;
    }

    // Proportional fair: hand out one RBG at a time to the UE with the best
    // instantaneous-to-average rate ratio, capping at its backlog.
    int remaining = available_prb;
    std::vector<std::uint64_t>& planned_bytes = planned_scratch_;
    planned_bytes.assign(in.size(), 0);
    while (remaining > 0) {
        double best_metric = -1.0;
        int best = -1;
        for (std::size_t i = 0; i < in.size(); ++i) {
            if (planned_bytes[i] >= in[i].backlog_bytes) continue;  // enough granted
            const double avg = std::max(1.0, avg_rate_[in[i].ue_index]);
            const double metric = in[i].bytes_per_prb / avg;
            if (metric > best_metric) {
                best_metric = metric;
                best = static_cast<int>(i);
            }
        }
        if (best < 0) break;
        const int give = std::min(remaining, k_rbg_size);
        grants[static_cast<std::size_t>(best)] += give;
        planned_bytes[static_cast<std::size_t>(best)] +=
            static_cast<std::uint64_t>(in[static_cast<std::size_t>(best)].bytes_per_prb *
                                       give);
        remaining -= give;
    }
}

}  // namespace l4span::ran
