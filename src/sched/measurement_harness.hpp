// The performance-characterization harness behind §IV-C (Figs. 3 and 4):
// sweeps (model x batch size x device x GPU state) and records throughput,
// latency, power and energy for every point.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "nn/model.hpp"
#include "sched/policy.hpp"

namespace mw::sched {

/// Controlled starting state of boost-clocked devices for a measurement
/// (the paper pins "Idle GTX 1080 Ti" vs "GTX 1080 Ti" separately).
enum class GpuState { kIdle, kWarm };

/// One characterization sample.
struct SweepPoint {
    std::string model_name;
    std::string device_name;
    device::DeviceKind device_kind = device::DeviceKind::kCpu;
    std::size_t batch = 0;
    GpuState gpu_state = GpuState::kWarm;
    double throughput_bps = 0.0;
    double latency_s = 0.0;
    double energy_j = 0.0;
    double avg_power_w = 0.0;
};

/// Runs controlled, mutually independent measurements on a registry.
class MeasurementHarness {
public:
    explicit MeasurementHarness(device::DeviceRegistry& registry);

    /// Measure one (model, device, batch) point. The named device is forced
    /// to `state` immediately before submission; every measurement starts
    /// from a quiescent timeline (long cool-down gap in simulated time).
    device::Measurement measure(const std::string& model_name, const std::string& device_name,
                                std::size_t batch, GpuState state);

    /// Full sweep: every loaded model x every device x every batch size x
    /// both GPU states. Models must already be loaded on all devices.
    std::vector<SweepPoint> sweep(const std::vector<std::string>& model_names,
                                  const std::vector<std::size_t>& batches);

    /// The paper's sample-size grid: 2, 4, 8, ..., 256K.
    static std::vector<std::size_t> paper_batch_sizes();

    [[nodiscard]] device::DeviceRegistry& registry() { return *registry_; }

private:
    device::DeviceRegistry* registry_;
    double sim_cursor_ = 0.0;
};

/// Best device name at one (model, batch, state) grid point under `policy`,
/// given the sweep rows for exactly that grid point.
std::string best_device(const std::vector<SweepPoint>& rows, Policy policy);

}  // namespace mw::sched
