#include "sched/measurement_harness.hpp"

#include <limits>

#include "common/error.hpp"

namespace mw::sched {
namespace {

/// Gap inserted between measurements so one run's warm-up never leaks into
/// the next (well beyond every decay constant).
constexpr double kQuiescenceGap = 1000.0;

}  // namespace

MeasurementHarness::MeasurementHarness(device::DeviceRegistry& registry)
    : registry_(&registry) {}

device::Measurement MeasurementHarness::measure(const std::string& model_name,
                                                const std::string& device_name,
                                                std::size_t batch, GpuState state) {
    device::Device& dev = registry_->at(device_name);
    sim_cursor_ += kQuiescenceGap;
    if (state == GpuState::kWarm) {
        dev.force_warm();
    } else {
        dev.force_idle();
    }
    const device::Measurement m = dev.profile(model_name, batch, sim_cursor_);
    sim_cursor_ = m.end_time;
    return m;
}

std::vector<SweepPoint> MeasurementHarness::sweep(const std::vector<std::string>& model_names,
                                                  const std::vector<std::size_t>& batches) {
    std::vector<SweepPoint> points;
    points.reserve(model_names.size() * batches.size() * registry_->size() * 2);
    for (const auto& model_name : model_names) {
        for (const std::size_t batch : batches) {
            for (device::Device* dev : registry_->devices()) {
                // Devices whose clock state is static (CPU) measure identically
                // in both states but are recorded under both labels so every
                // grid point has a complete device set.
                for (const GpuState state : {GpuState::kIdle, GpuState::kWarm}) {
                    const device::Measurement m =
                        measure(model_name, dev->name(), batch, state);
                    SweepPoint p;
                    p.model_name = model_name;
                    p.device_name = dev->name();
                    p.device_kind = dev->kind();
                    p.batch = batch;
                    p.gpu_state = state;
                    p.throughput_bps = m.throughput_bps();
                    p.latency_s = m.latency_s();
                    p.energy_j = m.energy_j;
                    p.avg_power_w = m.avg_power_w();
                    points.push_back(std::move(p));
                }
            }
        }
    }
    return points;
}

std::vector<std::size_t> MeasurementHarness::paper_batch_sizes() {
    std::vector<std::size_t> sizes;
    for (std::size_t n = 2; n <= (256U << 10); n *= 2) sizes.push_back(n);
    return sizes;
}

std::string best_device(const std::vector<SweepPoint>& rows, Policy policy) {
    MW_CHECK(!rows.empty(), "best_device over empty rows");
    double best_score = -std::numeric_limits<double>::infinity();
    const SweepPoint* best = nullptr;
    for (const auto& row : rows) {
        double score = 0.0;
        switch (policy) {
            case Policy::kMaxThroughput: score = row.throughput_bps; break;
            case Policy::kMinLatency: score = -row.latency_s; break;
            case Policy::kMinEnergy: score = -row.energy_j; break;
        }
        if (score > best_score) {
            best_score = score;
            best = &row;
        }
    }
    return best->device_name;
}

}  // namespace mw::sched
