// The four workloads and the reporting helpers they share.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "nn/model.hpp"
#include "testbed.hpp"
#include "trace.hpp"

namespace perfbench {

using WorkloadFn = RunResult (*)(Testbed&, const Args&);

/// nullptr for an unknown name.
WorkloadFn find_workload(const std::string& name);

RunResult run_adaptive(Testbed& tb, const Args& args);
RunResult run_spine(Testbed& tb, const Args& args);
RunResult run_overload(Testbed& tb, const Args& args);
RunResult run_dag(Testbed& tb, const Args& args);

/// Per-layer values by name. A workload reports the layers it exercises;
/// run.py reports every other per-layer metric of BENCHMARK.json as 0.
using LayerValues = MetricValues;

/// Modeled outcome of the requests of a workload.
struct ModeledStats {
    std::vector<double> latencies_s;  ///< completed requests: device end - arrival
    std::size_t completed = 0;
    std::size_t within_slo = 0;
    double duration_s = 0.0;          ///< modeled length of the arrival schedules
    double energy_j = 0.0;            ///< device energy of the executed work
};

/// The modeled end-to-end figures of a set of requests.
struct ModeledFigures {
    double goodput_rps = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double energy_per_request_mj = 0.0;
};
ModeledFigures figures_of(ModeledStats modeled);

/// goodput_rps, latency_p50_ms, latency_p99_ms, energy_per_request_mj and
/// host_rps; `completed` is how many requests the modeled figures rest on.
void add_end_to_end(RunResult& result, const ModeledFigures& modeled, std::size_t completed,
                    double host_rps);

/// Host work in the nn layer, as seen through layered_forward().
struct NnStats {
    std::map<std::string, std::array<double, 2>> per_model;  ///< seconds, samples
    std::array<double, 4> kind_s{};  ///< dense, conv2d, pool, flatten
    double seconds = 0.0;
    double flops = 0.0;              ///< from LayerCost, not measured
    double bytes = 0.0;              ///< activations + weights, from LayerCost
    std::size_t requests = 0;

    void report(LayerValues& values) const;
};

/// Model::forward's work done one Layer::forward at a time, so each layer's
/// host time can be attributed; `log` may be null (untraced).
mw::Tensor layered_forward(const mw::nn::Model& model, const mw::Tensor& input, SpanLog* log,
                           NnStats& stats);

/// device.busy_share.* and device.energy_mj.* from the booked intervals.
void report_devices(LayerValues& values, const Testbed& tb, const std::vector<Booking>& bookings,
                    double duration_s, std::size_t completed);

/// sched.share.* from per-decision device indices.
void report_shares(LayerValues& values, const Testbed& tb, const std::vector<int>& devices);

/// trace.* and the layer summary JSON. With `check_closure`, also
/// trace.closure_share: the layers' self time per operation over the untraced
/// host time per operation, which layer_table.py requires to be within 10%.
void report_trace(RunResult& result, LayerValues& values,
                  const std::vector<const SpanLog*>& logs, double untraced_rps,
                  double traced_rps, std::size_t traced_ops, bool check_closure);

/// Index of a device name in the serving registry's order.
int device_index(const Testbed& tb, const std::string& name);

}  // namespace perfbench
