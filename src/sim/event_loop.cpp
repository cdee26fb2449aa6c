#include "sim/event_loop.h"

namespace l4span::sim {

void event_loop::run_until(tick until)
{
    while (next_ready(until)) fire_front();
    if (now_ < until) now_ = until;
}

void event_loop::run()
{
    while (run_one()) {
    }
}

bool event_loop::refill(tick limit)
{
    const std::uint64_t occupied = occupied_ & ~std::uint64_t{1};
    if (occupied == 0) return false;
    const auto b = static_cast<std::size_t>(std::countr_zero(occupied));
    if (min_[b] > limit) return false;
    last_ = min_[b];
    std::vector<entry>& src = rq_[b];
    for (const entry& e : src) push(e);
    src.clear();
    min_[b] = k_no_key;
    occupied_ &= ~(std::uint64_t{1} << b);
    return true;
}

}  // namespace l4span::sim
