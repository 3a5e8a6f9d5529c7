// AdmissionController: the serving layer's backpressure policy. A full queue
// never blocks a client — the controller decides what to sacrifice:
//
//   reject-newest   refuse the incoming request (classic bounded queue)
//   reject-oldest   evict the globally oldest queued request to make room
//                   (freshest data wins — streaming analytics semantics)
//   deadline-shed   drop queued requests whose latency SLO is already
//                   unmeetable (their response would be useless anyway),
//                   then retry; refuse the newcomer only if still full
//
// Deadline feasibility combines the observed queue wait with a per-model
// EWMA of execute latency, so shedding sharpens as the server learns how
// expensive each model is.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "common/sync.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace mw::serve {

enum class BackpressurePolicy { kRejectNewest, kRejectOldest, kDeadlineShed };

struct AdmissionConfig {
    BackpressurePolicy policy = BackpressurePolicy::kRejectNewest;
    /// Applied to requests that carry no SLO of their own (0 = none).
    double default_slo_s = 0.0;
    /// Smoothing of the per-model execute-latency estimator.
    double ewma_alpha = 0.2;
    /// Execute-latency estimate for models with no EWMA samples yet. An
    /// unseen model is *unknown*, not free: with a 0 estimate kDeadlineShed
    /// could never shed a cold model's requests, so "hopeless on arrival"
    /// was a no-op until the EWMA warmed. Must be positive.
    double cold_execute_prior_s = 1e-3;
    /// Optional predictor hook consulted before the static prior (wire it to
    /// the scheduler's latency predictor for per-model cold estimates).
    /// Return <= 0 to fall through to cold_execute_prior_s. Must be
    /// thread-safe; may run with the queue lock held (rank kServeQueue), so
    /// it must not acquire locks ranked at or below kServeQueue.
    std::function<double(const std::string& model_name)> cold_prior_fn;
};

/// Thread safety: all members may be called concurrently.
class AdmissionController {
public:
    AdmissionController(AdmissionConfig config, RequestQueue& queue, ServerStats& stats);

    /// Admit `request` at time `now`, applying the backpressure policy when
    /// the queue is full. Completes the promise of every request it refuses,
    /// evicts, or sheds (including possibly `request` itself) and records
    /// the outcome in ServerStats. Returns true iff `request` was enqueued.
    bool admit(Request&& request, double now);

    /// Feed an observed execute latency into the per-model estimator.
    void observe_execute(const std::string& model_name, double execute_s);

    /// Current execute-latency estimate for a model. A model with no
    /// observations yet reports the cold-start prior (cold_prior_fn when set
    /// and positive, else cold_execute_prior_s), never 0.
    [[nodiscard]] double estimated_execute_s(const std::string& model_name) const;

    /// True when `request` can no longer meet its SLO at time `now` (no SLO
    /// -> never). Used at admission and again at dispatch time.
    [[nodiscard]] bool deadline_unmeetable(const Request& request, double now) const;

    [[nodiscard]] const AdmissionConfig& config() const { return config_; }

private:
    AdmissionConfig config_;
    RequestQueue* queue_;
    ServerStats* stats_;

    mutable Mutex mutex_{LockRank::kAdmission};
    std::map<std::string, Ewma> execute_ewma_ MW_GUARDED_BY(mutex_);
};

}  // namespace mw::serve
