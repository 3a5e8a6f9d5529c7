#include "fault/health.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mw::fault {

DeviceHealthTracker::DeviceHealthTracker(HealthConfig config, const Clock& clock,
                                         obs::MetricsRegistry* metrics)
    : config_(config), clock_(&clock) {
    MW_CHECK(config_.error_alpha > 0.0 && config_.error_alpha <= 1.0,
             "HealthConfig: error_alpha must be in (0,1]");
    MW_CHECK(config_.latency_alpha > 0.0 && config_.latency_alpha <= 1.0,
             "HealthConfig: latency_alpha must be in (0,1]");
    MW_CHECK(config_.open_error_threshold > 0.0 && config_.open_error_threshold <= 1.0,
             "HealthConfig: open_error_threshold must be in (0,1]");
    MW_CHECK(config_.consecutive_failures_to_open > 0,
             "HealthConfig: consecutive_failures_to_open must be positive");
    MW_CHECK(config_.cooldown_s > 0.0, "HealthConfig: cooldown_s must be positive");
    MW_CHECK(config_.probe_interval_s >= 0.0,
             "HealthConfig: probe_interval_s must be non-negative");
    if (metrics != nullptr) {
        opens_metric_ = &metrics->counter("mw_fault_breaker_open_total");
        half_opens_metric_ = &metrics->counter("mw_fault_breaker_half_open_total");
        closes_metric_ = &metrics->counter("mw_fault_breaker_close_total");
        retries_metric_ = &metrics->counter("mw_fault_retries_total");
        hedges_metric_ = &metrics->counter("mw_fault_hedges_total");
    }
}

DeviceHealthTracker::DeviceHealth& DeviceHealthTracker::health_for(
    const std::string& device_name) {
    return table_[device_name];
}

void DeviceHealthTracker::open_breaker(DeviceHealth& health, double now) {
    health.state = BreakerState::kOpen;
    health.reopen_at_s = now + config_.cooldown_s;
    opens_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    if (opens_metric_ != nullptr) opens_metric_->inc();
}

void DeviceHealthTracker::on_success(const std::string& device_name, double latency_s) {
    bool closed_now = false;
    {
        const MutexLock lock(mutex_);
        DeviceHealth& health = health_for(device_name);
        health.observations += 1;
        health.consecutive_failures = 0;
        health.error_ewma *= 1.0 - config_.error_alpha;
        health.latency_ewma_s = health.latency_ewma_s == 0.0
                                    ? latency_s
                                    : health.latency_ewma_s +
                                          config_.latency_alpha *
                                              (latency_s - health.latency_ewma_s);
        if (health.state == BreakerState::kHalfOpen) {
            // The probe came back healthy: re-admit and forget the bad spell,
            // so one residual transient can't instantly re-trip the EWMA gate.
            health.state = BreakerState::kClosed;
            health.error_ewma = 0.0;
            health.observations = 1;
            closed_now = true;
            closes_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            if (closes_metric_ != nullptr) closes_metric_->inc();
        }
    }
    if (closed_now) {
        MW_TRACE_INSTANT(obs::Phase::kBreaker, 0, clock_->now(), "close");
    }
}

void DeviceHealthTracker::on_failure(const std::string& device_name) {
    bool opened_now = false;
    {
        const MutexLock lock(mutex_);
        DeviceHealth& health = health_for(device_name);
        health.observations += 1;
        health.consecutive_failures += 1;
        health.error_ewma =
            health.error_ewma + config_.error_alpha * (1.0 - health.error_ewma);
        switch (health.state) {
            case BreakerState::kClosed:
                if (health.consecutive_failures >= config_.consecutive_failures_to_open ||
                    (health.observations >= config_.min_observations &&
                     health.error_ewma >= config_.open_error_threshold)) {
                    open_breaker(health, clock_->now());
                    opened_now = true;
                }
                break;
            case BreakerState::kHalfOpen:
                // The probe failed: straight back to open, cooldown restarts.
                open_breaker(health, clock_->now());
                opened_now = true;
                break;
            case BreakerState::kOpen:
                break;
        }
    }
    if (opened_now) {
        MW_TRACE_INSTANT(obs::Phase::kBreaker, 0, clock_->now(), "open");
    }
}

bool DeviceHealthTracker::allow(const std::string& device_name) {
    bool half_opened_now = false;
    bool allowed = false;
    {
        const MutexLock lock(mutex_);
        DeviceHealth& health = health_for(device_name);
        switch (health.state) {
            case BreakerState::kClosed:
                allowed = true;
                break;
            case BreakerState::kOpen: {
                const double now = clock_->now();
                if (now >= health.reopen_at_s) {
                    health.state = BreakerState::kHalfOpen;
                    health.last_probe_s = now;
                    half_opened_now = true;
                    half_opens_.fetch_add(1,
                                          std::memory_order_relaxed);  // relaxed: monotonic stat
                    if (half_opens_metric_ != nullptr) half_opens_metric_->inc();
                    allowed = true;  // this caller is the re-probe
                }
                break;
            }
            case BreakerState::kHalfOpen: {
                const double now = clock_->now();
                if (now - health.last_probe_s >= config_.probe_interval_s) {
                    health.last_probe_s = now;
                    allowed = true;
                }
                break;
            }
        }
    }
    if (half_opened_now) {
        MW_TRACE_INSTANT(obs::Phase::kBreaker, 0, clock_->now(), "half-open");
    }
    return allowed;
}

std::vector<std::string> DeviceHealthTracker::partition_allowed(
    const std::vector<std::string>& device_names, std::vector<std::string>* excluded) {
    std::vector<std::string> allowed;
    allowed.reserve(device_names.size());
    for (const std::string& name : device_names) {
        if (allow(name)) {
            allowed.push_back(name);
        } else if (excluded != nullptr) {
            excluded->push_back(name);
        }
    }
    return allowed;
}

BreakerState DeviceHealthTracker::state(const std::string& device_name) const {
    const MutexLock lock(mutex_);
    const auto it = table_.find(device_name);
    return it == table_.end() ? BreakerState::kClosed : it->second.state;
}

double DeviceHealthTracker::error_rate(const std::string& device_name) const {
    const MutexLock lock(mutex_);
    const auto it = table_.find(device_name);
    return it == table_.end() ? 0.0 : it->second.error_ewma;
}

double DeviceHealthTracker::latency_ewma_s(const std::string& device_name) const {
    const MutexLock lock(mutex_);
    const auto it = table_.find(device_name);
    return it == table_.end() ? 0.0 : it->second.latency_ewma_s;
}

void DeviceHealthTracker::note_retry(const std::string& device_name) {
    (void)device_name;
    retries_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    if (retries_metric_ != nullptr) retries_metric_->inc();
}

void DeviceHealthTracker::note_hedge(const std::string& device_name) {
    (void)device_name;
    hedges_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    if (hedges_metric_ != nullptr) hedges_metric_->inc();
}

}  // namespace mw::fault
