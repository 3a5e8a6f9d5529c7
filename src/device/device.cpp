#include "device/device.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mw::device {
namespace {

constexpr double kWarmThreshold = 0.8;
constexpr std::size_t kMaxPowerSegments = 4096;

}  // namespace

Device::Device(DeviceParams params, ThreadPool* pool)
    : params_(std::move(params)), pool_(pool), clock_ratio_(params_.idle_clock_ratio) {
    MW_CHECK(!params_.name.empty(), "device needs a name");
    MW_CHECK(params_.idle_clock_ratio > 0.0 && params_.idle_clock_ratio <= 1.0,
             "idle_clock_ratio must be in (0,1]");
}

void Device::set_noise(double sigma, std::uint64_t seed) {
    MW_CHECK(sigma >= 0.0, "noise sigma must be non-negative");
    const MutexLock lock(mutex_);
    noise_sigma_ = sigma;
    noise_rng_.reseed(seed);
}

void Device::add_memory_peer(const Device* peer) {
    MW_CHECK(peer != nullptr && peer != this, "invalid memory peer");
    const MutexLock lock(mutex_);
    memory_peers_.push_back(peer);
}

std::size_t Device::memory_peer_count() const {
    const MutexLock lock(mutex_);
    return memory_peers_.size();
}

void Device::reset_timeline() {
    const MutexLock lock(mutex_);
    clock_ratio_ = params_.idle_clock_ratio;
    last_active_end_ = 0.0;
    busy_until_.store(0.0, std::memory_order_release);
    power_timeline_.clear();
}

void Device::set_throttle(double slowdown) {
    MW_CHECK(slowdown >= 1.0, "throttle factor must be >= 1");
    const MutexLock lock(mutex_);
    throttle_ = slowdown;
}

double Device::throttle() const {
    const MutexLock lock(mutex_);
    return throttle_;
}

void Device::load_model(std::shared_ptr<const nn::Model> model) {
    MW_CHECK(model != nullptr, "null model");
    const MutexLock lock(mutex_);
    models_[model->name()] = std::move(model);
}

void Device::unload_model(const std::string& model_name) {
    const MutexLock lock(mutex_);
    models_.erase(model_name);
}

bool Device::has_model(const std::string& model_name) const {
    const MutexLock lock(mutex_);
    return models_.count(model_name) > 0;
}

std::shared_ptr<const nn::Model> Device::find_model(const std::string& model_name) const {
    const MutexLock lock(mutex_);
    const auto it = models_.find(model_name);
    if (it == models_.end()) {
        throw StateError("model `" + model_name + "` is not loaded on device " + name());
    }
    return it->second;
}

const nn::Model& Device::model(const std::string& model_name) const {
    // The returned reference stays valid while the model remains loaded; the
    // shared_ptr in models_ keeps the object alive across the unlock.
    return *find_model(model_name);
}

std::vector<std::string> Device::loaded_models() const {
    const MutexLock lock(mutex_);
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto& [name, model] : models_) names.push_back(name);
    return names;
}

double Device::clock_ratio_at_locked(double sim_time) const {
    const double gap = std::max(0.0, sim_time - last_active_end_);
    return clock_after_idle(clock_ratio_, params_.idle_clock_ratio, params_.clock_decay_tau_s,
                            gap);
}

double Device::clock_ratio_at(double sim_time) const {
    const MutexLock lock(mutex_);
    return clock_ratio_at_locked(sim_time);
}

bool Device::is_warm(double sim_time) const {
    return clock_ratio_at(sim_time) >= kWarmThreshold * 1.0 ||
           params_.idle_clock_ratio >= kWarmThreshold;
}

void Device::force_warm() {
    const MutexLock lock(mutex_);
    clock_ratio_ = 1.0;
    // Pin the state until the next execution: pretend the device was active
    // "just now" forever, so the idle decay cannot erase the forced state.
    last_active_end_ = std::numeric_limits<double>::max();
}

void Device::force_idle() {
    const MutexLock lock(mutex_);
    clock_ratio_ = params_.idle_clock_ratio;
    last_active_end_ = std::numeric_limits<double>::max();
}

Measurement Device::execute(const nn::Model& model, std::size_t batch, double sim_time) {
    MW_CHECK(batch > 0, "batch must be positive");

    const MutexLock lock(mutex_);

    // Serialise on the device queue: a submission cannot start before the
    // previous one finished.
    const double start = std::max(
        sim_time,
        busy_until_.load(std::memory_order_relaxed));  // relaxed: scalar timeline estimate
    const double clock_start = clock_ratio_at_locked(start);

    const nn::ModelCost cost = model.cost(batch);
    const double bytes_in = static_cast<double>(batch) *
                            static_cast<double>(model.bytes_per_sample());
    const double bytes_out = static_cast<double>(batch) *
                             static_cast<double>(model.desc().output_dim) * sizeof(float);

    DeviceParams effective = params_;
    // Memory-domain contention: every peer currently mid-execution takes a
    // slice of the shared controller's bandwidth. Peers are read via their
    // atomic busy_until — never via their mutex — so two peer devices
    // executing concurrently cannot deadlock on each other.
    if (params_.contention_slowdown > 0.0) {
        std::size_t busy_peers = 0;
        for (const Device* peer : memory_peers_) {
            if (peer->busy_until() > start) ++busy_peers;
        }
        if (busy_peers > 0) {
            effective.mem_bandwidth_gbps /=
                1.0 + params_.contention_slowdown * static_cast<double>(busy_peers);
        }
    }
    if (throttle_ > 1.0) {
        effective.peak_gflops /= throttle_;
        effective.mem_bandwidth_gbps /= throttle_;
        if (effective.over_pcie) effective.pcie_bandwidth_gbps /= throttle_;
    }
    ExecBreakdown breakdown =
        estimate_execution(effective, cost, bytes_in, bytes_out, clock_start);

    // Measurement noise: scale duration and energy by independent-ish
    // log-normal factors (energy correlates with duration).
    double time_factor = 1.0;
    double energy_factor = 1.0;
    if (noise_sigma_ > 0.0) {
        time_factor = noise_rng_.lognormal_factor(noise_sigma_);
        energy_factor = time_factor * noise_rng_.lognormal_factor(noise_sigma_ * 0.5);
    }

    Measurement m;
    m.device_name = name();
    m.device_kind = kind();
    m.model_name = model.name();
    m.batch = batch;
    m.submit_time = sim_time;
    m.start_time = start;
    m.end_time = start + breakdown.total_s() * time_factor;
    m.breakdown = breakdown;
    m.bytes_in = bytes_in;
    m.energy_j = breakdown.energy_j() * energy_factor;
    m.device_was_warm = clock_start >= kWarmThreshold;

    // Advance device state.
    clock_ratio_ = breakdown.clock_end;
    last_active_end_ = m.end_time;
    busy_until_.store(m.end_time, std::memory_order_release);
    total_energy_j_ += m.energy_j;
    ++total_batches_;

    // Power timeline: host/xfer phases at near-idle power, kernel phase at
    // the breakdown's average kernel power.
    const double scaled = time_factor;
    const double t0 = start;
    const double t_pre = (breakdown.t_host + breakdown.t_xfer_in) * scaled;
    const double t_kern = breakdown.t_kernels * scaled;
    const double t_post = breakdown.t_xfer_out * scaled;
    const double kernel_watts =
        breakdown.t_kernels > 0.0
            ? (breakdown.energy_device_j -
               params_.idle_power_w * (breakdown.t_host + breakdown.t_xfer_in +
                                       breakdown.t_xfer_out)) /
                  breakdown.t_kernels
            : params_.idle_power_w;
    record_power_segment(t0, t0 + t_pre, params_.idle_power_w);
    record_power_segment(t0 + t_pre, t0 + t_pre + t_kern, std::max(kernel_watts,
                                                                   params_.idle_power_w));
    record_power_segment(t0 + t_pre + t_kern, t0 + t_pre + t_kern + t_post,
                         params_.idle_power_w);
    return m;
}

InferenceResult Device::run(const std::string& model_name, const Tensor& input, double sim_time,
                            const SubmitOptions& options) {
    const std::shared_ptr<const nn::Model> m = find_model(model_name);
    const std::size_t batch = input.shape()[0];
    InferenceResult result;
    result.measurement = execute(*m, batch, sim_time);
    // Traced outside the device mutex; the span covers the simulated
    // execution window, correlated with the batch leader's request id.
    MW_TRACE_SPAN(obs::Phase::kExecute, options.trace_id,
                  result.measurement.start_time, result.measurement.end_time,
                  name().c_str());
    if (options.compute_outputs) {
        // Real kernels: the outputs are the model's true predictions,
        // identical across devices (the paper's OpenCL kernels are portable).
        // Runs outside the device mutex — the forward pass touches no device
        // state, so concurrent submissions overlap on the host pool. Only a
        // flat payload is copied into the model's input shape.
        const Shape shape = m->input_shape(batch);
        MW_CHECK(shape.numel() == input.numel(), "input payload size mismatch");
        if (input.shape() == shape) {
            result.outputs = m->forward(input, pool_);
        } else {
            Tensor shaped(shape);
            std::copy_n(input.data(), input.numel(), shaped.data());
            result.outputs = m->forward(shaped, pool_);
        }
    }
    return result;
}

Measurement Device::profile(const std::string& model_name, std::size_t batch, double sim_time) {
    return execute(*find_model(model_name), batch, sim_time);
}

Measurement Device::book(const std::string& label, double busy_s, double energy_j,
                         double sim_time) {
    MW_CHECK(busy_s >= 0.0 && energy_j >= 0.0, "book() needs non-negative duration and energy");
    const MutexLock lock(mutex_);
    const double start = std::max(
        sim_time,
        busy_until_.load(std::memory_order_relaxed));  // relaxed: scalar timeline estimate
    const double clock_start = clock_ratio_at_locked(start);

    Measurement m;
    m.device_name = name();
    m.device_kind = kind();
    m.model_name = label;
    m.batch = 1;
    m.submit_time = sim_time;
    m.start_time = start;
    m.end_time = start + busy_s;
    m.energy_j = energy_j;
    m.device_was_warm = clock_start >= kWarmThreshold;

    clock_ratio_ = params_.clock_ramp_tau_s > 0.0
                       ? clock_after_run(clock_start, params_.clock_ramp_tau_s, busy_s)
                       : clock_start;
    last_active_end_ = m.end_time;
    busy_until_.store(m.end_time, std::memory_order_release);
    total_energy_j_ += energy_j;
    ++total_batches_;

    const double watts = busy_s > 0.0 ? energy_j / busy_s : params_.idle_power_w;
    record_power_segment(start, m.end_time, std::max(watts, params_.idle_power_w));
    return m;
}

double Device::power_at(double sim_time) const {
    const MutexLock lock(mutex_);
    // Walk the bounded timeline backwards (recent segments last).
    for (auto it = power_timeline_.rbegin(); it != power_timeline_.rend(); ++it) {
        if (sim_time >= it->t0 && sim_time < it->t1) return it->watts;
        if (it->t1 < sim_time && it == power_timeline_.rbegin()) break;
    }
    return params_.idle_power_w;
}

double Device::total_energy_j() const {
    const MutexLock lock(mutex_);
    return total_energy_j_;
}

std::size_t Device::total_batches() const {
    const MutexLock lock(mutex_);
    return total_batches_;
}

void Device::record_power_segment(double t0, double t1, double watts) {
    if (t1 <= t0) return;
    power_timeline_.push_back({t0, t1, watts});
    if (power_timeline_.size() > kMaxPowerSegments) {
        power_timeline_.erase(power_timeline_.begin(),
                              power_timeline_.begin() + kMaxPowerSegments / 2);
    }
}

}  // namespace mw::device
