// The set-up every workload shares: the paper's simulated testbed, the five
// zoo models deployed through the Dispatcher, the measurement campaign over
// them on the paper's sample-size grid, a trained Random Forest scheduler, and a
// noise-free twin registry the oracle and the capacity bound price on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "nn/model.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Measurement noise of the serving registry (the paper's testbed is noisy;
/// the twin is not).
inline constexpr double kNoiseSigma = 0.05;

/// Seeded input rows per model: requests take contiguous row ranges from
/// here, so the reference check can rebuild any request's input exactly.
struct InputPool {
    std::size_t rows = 0;
    std::size_t elems = 0;  ///< floats per row
    std::vector<float> data;

    [[nodiscard]] const float* row(std::size_t r) const { return data.data() + (r % rows) * elems; }
    /// Fill `out` (already shaped samples x ...) with rows first..first+n.
    void fill(mw::Tensor& out, std::size_t first, std::size_t n) const;
};

class Testbed {
public:
    /// Build everything. Inputs depend on `seed`; models, weights and the
    /// training campaign do not.
    explicit Testbed(std::uint64_t seed);

    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    mw::device::DeviceRegistry registry;
    mw::device::DeviceRegistry twin;
    mw::sched::Dispatcher dispatcher{registry};
    std::unique_ptr<mw::sched::OnlineScheduler> scheduler;

    /// The five paper models, in paper order.
    std::vector<std::string> model_names;
    std::map<std::string, std::shared_ptr<mw::nn::Model>> models;
    std::map<std::string, InputPool> inputs;

    /// A freshly trained scheduler over the same dispatcher and campaign data
    /// (the DAG workload takes one per round, so its plan cache starts empty).
    [[nodiscard]] std::unique_ptr<mw::sched::OnlineScheduler> make_scheduler();

    /// Put every serving device back on a quiescent timeline and reseed its
    /// noise, so a round replays identically.
    void reset_timelines(std::uint64_t noise_seed);

    /// Isolated modeled latency of (model, samples) on each twin device,
    /// GPU warm; the fastest is what the SLOs scale from.
    [[nodiscard]] double best_isolated_latency_s(const std::string& model,
                                                 std::size_t samples);
    [[nodiscard]] double isolated_latency_s(const std::string& device, const std::string& model,
                                            std::size_t samples, bool warm);

    /// Summed modeled capacity (requests per modeled second) of the fleet for
    /// requests of `samples` rows of `model`, when each device coalesces up
    /// to `max_requests` of them per batch at its best size.
    [[nodiscard]] double fleet_capacity_rps(const std::string& model, std::size_t samples,
                                            std::size_t max_requests);

    /// The oracle's device for a decision (noise-free twin, forced GPU state).
    [[nodiscard]] const std::string& oracle_device(const std::string& model, std::size_t samples,
                                                   bool gpu_warm, mw::sched::Policy policy);

private:
    mw::sched::SchedulerDataset dataset_;
    /// One oracle for the twin: its harness keeps a private timeline cursor
    /// that a second harness on the same devices would fight.
    std::unique_ptr<mw::sched::Oracle> oracle_;
    std::map<std::string, std::string> oracle_cache_;
    std::map<std::string, double> latency_cache_;
};

/// Short device-kind label: cpu, igpu or dgpu.
std::string kind_label(const std::string& device_name);

}  // namespace perfbench
