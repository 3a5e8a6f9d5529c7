// Output checks the benchmark applies to every workload, each written apart
// from the code it checks. Every check returns an empty string when the
// result is acceptable and a one-line reason otherwise; run_selftest()
// corrupts one result per check and confirms the check rejects it.
#pragma once

#include <string>
#include <vector>

#include "device/params.hpp"
#include "graph/dag.hpp"
#include "graph/schedule.hpp"

namespace perfbench {

class Testbed;

/// One interval booked on a modeled device timeline.
struct Booking {
    int device = 0;          ///< index into the registry's device order
    double submit = 0.0;     ///< when the work was handed to the device
    double start = 0.0;
    double end = 0.0;
    double energy_j = 0.0;
};

/// Per-device timelines: no two bookings of one device overlap, every start
/// is at or after its submit time, every end after its start, energy > 0.
/// Sorts `bookings`.
std::string check_timelines(std::vector<Booking>& bookings);

/// A request's modeled end is not before its arrival.
std::string check_end_after_arrival(double arrival, double end);

/// submitted == completed + refused + failed.
std::string check_accounting(std::size_t submitted, std::size_t completed, std::size_t refused,
                             std::size_t failed);

/// Modeled goodput cannot exceed what the fleet can serve.
std::string check_capacity(double goodput_rps, double capacity_rps);

/// Longest dependency chain of the graph when every operator runs alone on
/// the device that is fastest for it at peak compute and memory rates.
double critical_path_lower_bound(const mw::graph::Graph& graph,
                                 const std::vector<mw::device::DeviceParams>& devices);

/// The schedule passes graph::verify_schedule, and the modeled makespan from
/// `submit` is at least the critical-path lower bound.
std::string check_schedule(const mw::graph::Graph& graph, const mw::graph::Schedule& schedule,
                           double submit, double lower_bound);

/// Corrupt one result per check and confirm each check rejects it (and
/// accepts the uncorrupted result). Returns one line per check; a line
/// starting with "FAIL" means the check let a corrupted result through.
std::vector<std::string> run_selftest(Testbed& testbed);

}  // namespace perfbench
