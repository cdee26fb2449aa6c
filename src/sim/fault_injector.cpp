#include "sim/fault_injector.h"

#include <stdexcept>

namespace l4span::sim {

fault_injector::fault_injector(std::size_t num_classes)
    : armed_(num_classes, 0), injected_(num_classes)
{
    if (num_classes == 0)
        throw std::invalid_argument("fault_injector: need >= 1 fault class");
    for (auto& c : injected_) c.store(0, std::memory_order_relaxed);
}

void fault_injector::arm(event_loop& loop, tick when, std::size_t cls,
                         callback fire, callback observe)
{
    if (cls >= armed_.size())
        throw std::out_of_range("fault_injector: fault class out of range");
    ++armed_[cls];
    auto* counter = &injected_[cls];
    loop.schedule_at(when, [counter, fire = std::move(fire),
                            observe = std::move(observe)]() mutable {
        counter->fetch_add(1, std::memory_order_relaxed);
        if (observe) observe();
        fire();
    });
}

std::uint64_t fault_injector::armed(std::size_t cls) const
{
    return armed_.at(cls);
}

std::uint64_t fault_injector::injected(std::size_t cls) const
{
    if (cls >= injected_.size())
        throw std::out_of_range("fault_injector: fault class out of range");
    return injected_[cls].load(std::memory_order_relaxed);
}

}  // namespace l4span::sim
