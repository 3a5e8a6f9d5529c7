#include "common/units.hpp"

#include <array>
#include <cmath>
#include "common/format.hpp"
#include <span>

namespace mw {
namespace {

struct Scale {
    double factor;
    const char* suffix;
};

std::string scaled(double value, std::span<const Scale> scales, const char* base_suffix) {
    for (const auto& s : scales) {
        if (std::abs(value) >= s.factor) {
            return format("{:.3g} {}", value / s.factor, s.suffix);
        }
    }
    return format("{:.3g} {}", value, base_suffix);
}

}  // namespace

std::string format_throughput(double bps) {
    static constexpr std::array<Scale, 3> kScales{{{1e9, "Gbit/s"}, {1e6, "Mbit/s"}, {1e3, "Kbit/s"}}};
    return scaled(bps, kScales, "bit/s");
}

std::string format_duration(double seconds) {
    // NaN marks "no data" (e.g. a percentile of an empty histogram).
    if (std::isnan(seconds)) return "-";
    if (seconds >= 60.0) return format("{:.3g} min", seconds / 60.0);
    if (seconds >= 1.0) return format("{:.3g} s", seconds);
    if (seconds >= 1e-3) return format("{:.3g} ms", seconds * 1e3);
    if (seconds >= 1e-6) return format("{:.3g} us", seconds * 1e6);
    return format("{:.3g} ns", seconds * 1e9);
}

std::string format_energy(double joules) {
    if (joules >= 1e3) return format("{:.3g} kJ", joules / 1e3);
    if (joules >= 1.0) return format("{:.3g} J", joules);
    if (joules >= 1e-3) return format("{:.3g} mJ", joules * 1e3);
    return format("{:.3g} uJ", joules * 1e6);
}

std::string format_power(double watts) { return format("{:.1f} W", watts); }

std::string format_count(std::uint64_t n) {
    if (n >= 1024ULL * 1024 && n % (1024ULL * 1024) == 0) return format("{}M", n >> 20);
    if (n >= 1024 && n % 1024 == 0) return format("{}K", n >> 10);
    return format("{}", n);
}

}  // namespace mw
