// The Dispatcher of the paper's Fig. 2: receives architecture descriptions,
// has the Model Building Module build them, the Weights Building Module
// create/restore the parameter buffers, and finally loads every model onto
// every available processing device.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/sync.hpp"

#include "device/registry.hpp"
#include "graph/schedule.hpp"
#include "nn/model.hpp"

namespace mw::fault {
class FaultInjector;
class DeviceHealthTracker;
}  // namespace mw::fault

namespace mw::sched {

/// Retry ladder for run_resilient(): capped exponential backoff on the
/// simulated timeline (the backoff is added to the submit time of the next
/// attempt, never slept on a wall clock).
struct RetryPolicy {
    std::size_t max_attempts = 3;     ///< total tries, including the first
    double backoff_base_s = 0.001;    ///< delay before the second attempt
    double backoff_multiplier = 2.0;  ///< growth per further attempt
    double backoff_cap_s = 0.050;     ///< ceiling on any single delay
};

/// What run_resilient() actually did, alongside the result.
struct ResilientOutcome {
    device::InferenceResult result;
    std::string device_name;   ///< device that finally served the work
    std::size_t attempts = 1;  ///< tries consumed (1 = no retry)
    double backoff_s = 0.0;    ///< total simulated backoff added
};

/// Owns the deployed models and routes execution to chosen devices.
///
/// Thread safety: the model table is guarded by a reader-writer lock, so
/// run_on()/lookups from many serving threads proceed concurrently while
/// register_*/deploy/unregister_model remain safe to call at any time. Mutating a model's
/// weights (load_weights_from) while that model is serving is still a logic
/// race the caller must sequence.
class Dispatcher {
public:
    explicit Dispatcher(device::DeviceRegistry& registry);

    /// Fig. 2 steps 1-4: build the model from its spec and initialise
    /// weights; returns the built model for (optional offline) training.
    nn::Model& register_model(nn::ModelSpec spec, std::uint64_t weight_seed);

    /// Register an externally trained model.
    void register_model(std::shared_ptr<nn::Model> model);

    /// Dynamically add a model shipped as a .mwmodel file (§V-A): the
    /// architecture and trained weights are restored and the model becomes
    /// schedulable after deploy(). Returns its name.
    std::string register_from_file(const std::string& path);

    /// Restore a model's weights from a file saved by nn::save_weights.
    void load_weights_from(const std::string& model_name, const std::string& path);

    /// Fig. 2 step 5: load the named model onto every device.
    void deploy(const std::string& model_name);
    void deploy_all();

    /// Retire a model: remove it from the table and unload it from every
    /// device, freeing the name for hot-swap re-registration. In-flight
    /// run_on() calls finish safely — each device pins its model instance
    /// with a shared_ptr for the duration of the run; later lookups throw.
    /// Returns false when the name was not registered.
    bool unregister_model(const std::string& model_name);

    [[nodiscard]] bool has_model(const std::string& model_name) const;
    [[nodiscard]] const nn::Model& model(const std::string& model_name) const;
    [[nodiscard]] const nn::ModelDesc& desc(const std::string& model_name) const;
    [[nodiscard]] std::vector<std::string> model_names() const;

    /// Execute a data-carrying request on a specific device. When a fault
    /// injector is installed this is the injection point: the call may throw
    /// fault::TransientFault / fault::DeviceDownError, or return a
    /// straggler-stretched measurement.
    device::InferenceResult run_on(const std::string& device_name,
                                   const std::string& model_name, const Tensor& input,
                                   double sim_time,
                                   const device::SubmitOptions& options = {});

    /// Execute with retry-on-fault across a preference-ordered candidate
    /// list: attempt i runs on candidates[i % size] at
    /// sim_time + accumulated backoff. Only fault::FaultError is retried —
    /// precondition errors (unknown model, bad batch) propagate immediately,
    /// since no other device would answer them either. Each failure is
    /// reported to `health` (when given), emits a kRetry span, and backs off
    /// exponentially up to the cap; exhausting the ladder rethrows the last
    /// fault. Success reports on_success to `health`.
    ResilientOutcome run_resilient(const std::vector<std::string>& candidates,
                                   const std::string& model_name, const Tensor& input,
                                   double sim_time, const RetryPolicy& policy,
                                   fault::DeviceHealthTracker* health = nullptr,
                                   const device::SubmitOptions& options = {});

    /// Execute a planned DAG schedule: book every step's priced interval on
    /// its device, in plan order, respecting cross-device precedence on the
    /// actual timeline (a queue-delayed producer pushes its consumers).
    /// `schedule.devices` must name registered devices. Returns the schedule
    /// re-timed with what the devices actually did — still feasible under
    /// verify_schedule(), since phase durations and grouping are preserved
    /// and starts only ever move later.
    graph::Schedule run_schedule(const graph::Graph& graph, const graph::Schedule& schedule,
                                 double sim_time);

    /// Install (or clear, with nullptr) the fault injector consulted by
    /// run_on. The injector must outlive its installation.
    void set_fault_injector(fault::FaultInjector* injector) {
        injector_.store(injector, std::memory_order_release);
    }

    [[nodiscard]] device::DeviceRegistry& registry() { return *registry_; }

private:
    [[nodiscard]] std::shared_ptr<nn::Model> find_model(const std::string& model_name) const;

    device::DeviceRegistry* registry_;
    Atomic<fault::FaultInjector*> injector_{nullptr};
    mutable SharedMutex models_mutex_{LockRank::kDispatcher};
    std::map<std::string, std::shared_ptr<nn::Model>> models_ MW_GUARDED_BY(models_mutex_);
};

}  // namespace mw::sched
