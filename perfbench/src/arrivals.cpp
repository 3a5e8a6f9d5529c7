#include "arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace perfbench {

std::vector<double> make_arrivals(mw::Rng& rng, std::size_t n, double duration,
                                  const ArrivalShape& shape) {
    constexpr std::size_t kCells = 4096;
    std::vector<double> burst_at(shape.bursts);
    for (std::size_t k = 0; k < shape.bursts; ++k) {
        burst_at[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(shape.bursts) -
                      shape.burst_share / 2.0;
    }

    // Cumulative intensity on a fine grid over [0, 1).
    std::vector<double> cum(kCells + 1, 0.0);
    for (std::size_t c = 0; c < kCells; ++c) {
        const double x = (static_cast<double>(c) + 0.5) / kCells;
        double rate = 1.0 + shape.diurnal_depth *
                                std::sin(2.0 * std::numbers::pi * shape.diurnal_cycles * x);
        for (const double b : burst_at) {
            if (x >= b && x < b + shape.burst_share) rate += shape.burst_gain;
        }
        cum[c + 1] = cum[c] + std::max(rate, 0.0);
    }

    // n + 1 exponential gaps; the first n partial sums, scaled onto the total
    // intensity, are the arrivals of the conditioned process.
    std::vector<double> sums(n + 1);
    double acc = 0.0;
    for (double& s : sums) {
        acc += -std::log(1.0 - rng.uniform());
        s = acc;
    }
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double target = sums[i] / acc * cum[kCells];
        const auto it = std::upper_bound(cum.begin(), cum.end(), target);
        const std::size_t c = std::min<std::size_t>(
            kCells - 1, static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, it - cum.begin() - 1)));
        const double width = cum[c + 1] - cum[c];
        const double frac = width > 0.0 ? (target - cum[c]) / width : 0.0;
        out[i] = (static_cast<double>(c) + frac) / kCells * duration;
    }
    return out;
}

}  // namespace perfbench
