// Seeded arrival schedules in modeled time.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// Shape of the arrival intensity over one round.
struct ArrivalShape {
    double diurnal_depth = 0.0;  ///< rate swing: mean * (1 +- depth); 0 = flat
    double diurnal_cycles = 2.0; ///< simulated "days" per round
    std::size_t bursts = 0;      ///< burst windows per round, evenly spaced
    double burst_share = 0.02;   ///< length of each burst as a share of the round
    double burst_gain = 4.0;     ///< extra intensity inside a burst, in mean rates
};

/// Exactly `n` sorted arrival times in [0, duration): a Poisson process with
/// the shaped intensity, conditioned on its count (flat shape = uniform order
/// statistics). The shape is fixed; the seed moves only the individual
/// arrivals, so schedules of different seeds load the devices alike.
std::vector<double> make_arrivals(mw::Rng& rng, std::size_t n, double duration,
                                  const ArrivalShape& shape);

}  // namespace perfbench
