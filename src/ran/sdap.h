// SDAP: maps QoS flow identifiers onto data radio bearers.
//
// A UE carries a handful of QoS flows at most, so the map is a flat vector
// scanned linearly — one cache line instead of a hash probe per downlink
// packet.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "ran/types.h"

namespace l4span::ran {

class sdap_entity {
public:
    void map(qfi_t qfi, drb_id_t drb)
    {
        for (auto& [q, d] : qfi_to_drb_)
            if (q == qfi) {
                d = drb;
                return;
            }
        qfi_to_drb_.emplace_back(qfi, drb);
    }

    // Maps the UE's next QFI (one above the highest mapped, so allocation
    // continues after a handover restored the map) to `drb`.
    qfi_t add(drb_id_t drb)
    {
        qfi_t next = 1;
        for (const auto& [q, d] : qfi_to_drb_)
            next = std::max(next, static_cast<qfi_t>(q + 1));
        qfi_to_drb_.emplace_back(next, drb);
        return next;
    }

    // X2/Xn handover export, sorted by QFI for deterministic replay.
    std::vector<std::pair<qfi_t, drb_id_t>> export_mappings() const
    {
        std::vector<std::pair<qfi_t, drb_id_t>> out = qfi_to_drb_;
        std::sort(out.begin(), out.end());
        return out;
    }

    drb_id_t lookup(qfi_t qfi) const
    {
        for (const auto& [q, d] : qfi_to_drb_)
            if (q == qfi) return d;
        return 1;  // unmapped QFIs ride the UE's first (default) DRB
    }

private:
    std::vector<std::pair<qfi_t, drb_id_t>> qfi_to_drb_;
};

}  // namespace l4span::ran
