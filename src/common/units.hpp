// Units helpers: every quantity in manyworlds is a double in SI base units
// (seconds, Joules, Watts, bytes). These helpers convert and pretty-print the
// derived units the paper reports (Gbit/s, milliseconds, Watt-seconds).
#pragma once

#include <cstdint>
#include <string>

namespace mw {

inline constexpr double kBitsPerByte = 8.0;

/// Bytes -> bits.
constexpr double bits_of(double bytes) { return bytes * kBitsPerByte; }

/// Throughput in bits/second given a payload in bytes and a duration.
constexpr double throughput_bps(double bytes, double seconds) {
    return seconds > 0.0 ? bits_of(bytes) / seconds : 0.0;
}

/// Human-readable throughput, e.g. "14.8 Gbit/s" / "52.1 Mbit/s".
std::string format_throughput(double bits_per_second);

/// Human-readable duration, e.g. "1.24 ms" / "16.3 min"; "-" for NaN (no data).
std::string format_duration(double seconds);

/// Human-readable energy, e.g. "3.1 mJ" / "10.2 kJ".
std::string format_energy(double joules);

/// Human-readable power, e.g. "95.0 W".
std::string format_power(double watts);

/// Compact integer count with K/M suffixes (sample sizes: "256K").
std::string format_count(std::uint64_t n);

}  // namespace mw
