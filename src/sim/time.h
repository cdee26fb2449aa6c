// Simulated time. One tick is one nanosecond; all module clocks share it.
#pragma once

#include <cstdint>

namespace l4span::sim {

using tick = std::int64_t;

inline constexpr tick k_nanosecond = 1;
inline constexpr tick k_microsecond = 1'000;
inline constexpr tick k_millisecond = 1'000'000;
inline constexpr tick k_second = 1'000'000'000;

constexpr tick from_us(double us) { return static_cast<tick>(us * k_microsecond); }
constexpr tick from_ms(double ms) { return static_cast<tick>(ms * k_millisecond); }
constexpr tick from_sec(double s) { return static_cast<tick>(s * k_second); }

constexpr double to_ms(tick t) { return static_cast<double>(t) / k_millisecond; }
constexpr double to_sec(tick t) { return static_cast<double>(t) / k_second; }

// Transmission (serialization) time of `bytes` at `rate_bps` bits per second.
constexpr tick tx_time(std::int64_t bytes, double rate_bps)
{
    if (rate_bps <= 0.0) return k_second * 3600;  // effectively "never"
    return static_cast<tick>(static_cast<double>(bytes) * 8.0 / rate_bps * k_second);
}

}  // namespace l4span::sim
