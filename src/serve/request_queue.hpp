// Bounded MPMC request queue with one FIFO lane per scheduling policy, and
// the lane-owned gathering that turns it into batches (DESIGN.md §8).
//
// The queue never blocks producers: when full, try_push fails and the
// AdmissionController decides what to shed (explicit backpressure, "shed,
// don't block"). Lanes keep the three policy classes from starving each
// other — leaders are popped round-robin across non-empty lanes.
//
// Gathering: a worker's next_batch() pops a leader and, in the same critical
// section, claims the leader's (model, policy) for an open gather. From then
// on a request pushed for that (model, policy) joins the gather directly and
// never waits in a lane, so every queued request is unowned and any idle
// worker may lead it. A gather seals when
//   (a) it reaches its request or sample cap,
//   (b) the injected clock passes its deadline (leader arrival + max_wait_s),
//   (c) the queue closes, or
//   (d) work is queued and every worker is gathering — no worker is idle or
//       executing, so none would ever come for it. The gather with the
//       earliest deadline seals early; this is the only early seal.
// Every wait is event-driven: a push wakes the gather it fills (or one idle
// worker), a ManualClock move wakes only the gathers it has made due, close()
// wakes everyone. On a clock that runs by itself a gather waits with a
// real-time timeout that ends at its deadline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/timer.hpp"
#include "serve/request.hpp"

namespace mw::serve {

struct BatchConfig {
    bool enabled = true;
    std::size_t max_requests = 16;    ///< coalesce at most this many requests
    std::size_t max_samples = 16384;  ///< cap on total samples per batch
    double max_wait_s = 0.002;        ///< a gather closes this long after its leader arrived
};

/// Requests destined for one model run: same model, same policy, FIFO order.
struct PendingBatch {
    std::vector<Request> requests;
    std::size_t total_samples = 0;

    [[nodiscard]] const std::string& model_name() const {
        return requests.front().model_name;
    }
    [[nodiscard]] sched::Policy policy() const { return requests.front().policy; }
};

/// Thread safety: every member may be called concurrently; one internal
/// mutex guards the lanes and the open gathers.
class RequestQueue final : public ClockListener {
public:
    explicit RequestQueue(std::size_t capacity);

    /// Move `request` in if it can join an open gather of its (model, policy)
    /// or there is room in its lane. Returns false — leaving `request`
    /// untouched — when the queue is full or closed. Never blocks.
    bool try_push(Request& request);

    /// Blocking pop of one request: waits up to `timeout_s` (real time),
    /// round-robining across non-empty lanes. Returns nullopt on timeout, or
    /// when the queue is closed and fully drained (closed queues still drain).
    std::optional<Request> pop(double timeout_s);

    /// Non-blocking: pop up to `max_requests` requests of the same model and
    /// policy whose sample counts fit within `max_samples`. Scans the lane in
    /// FIFO order, skipping other models.
    std::vector<Request> pop_matching(const std::string& model_name, sched::Policy policy,
                                      std::size_t max_requests, std::size_t max_samples);

    /// Worker side: block until a batch is sealed (see the header note) and
    /// return it. `workers` is how many threads call next_batch() (the
    /// early-seal rule counts them). Returns nullopt once the queue is
    /// closed and, with `drain`, empty; without `drain`, at once on close.
    std::optional<PendingBatch> next_batch(const BatchConfig& config, const Clock& clock,
                                           std::size_t workers, bool drain);

    /// ClockListener: seal the open gathers whose deadline `now` passed.
    void clock_moved(double now) override;

    /// Remove and return the globally oldest queued request (smallest
    /// arrival_s across lane fronts) — reject-oldest backpressure.
    std::optional<Request> evict_oldest();

    /// Remove and return every queued request for which `pred` holds
    /// (deadline shedding).
    std::vector<Request> remove_if(const std::function<bool(const Request&)>& pred);

    /// Close the queue: subsequent try_push fails, open gathers seal, blocked
    /// consumers wake. Already-queued requests remain poppable/drainable.
    /// Idempotent and safe to call from several threads at once.
    void close();

    /// Remove and return everything still queued (shutdown completion).
    std::vector<Request> drain();

    [[nodiscard]] bool closed() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t lane_size(sched::Policy policy) const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] bool empty() const { return size() == 0; }

private:
    /// One worker's open gather; lives on that worker's stack while it waits.
    struct Gather {
        CondVar wake;
        PendingBatch batch;
        const BatchConfig* config = nullptr;
        double deadline = 0.0;
        bool sealed = false;
    };

    /// Pop the next leader round-robin across lanes (nullopt when empty).
    std::optional<Request> pop_leader() MW_REQUIRES(mutex_);
    /// Move queued requests of `model_name`/`policy` into `out`, FIFO, while
    /// `max_requests` and `max_samples` allow; returns the samples moved.
    std::size_t take_matching(const std::string& model_name, sched::Policy policy,
                              std::size_t max_requests, std::size_t max_samples,
                              std::vector<Request>& out) MW_REQUIRES(mutex_);
    [[nodiscard]] static bool full(const Gather& g);
    /// Close `g` to new mates and wake its worker.
    void seal(Gather& g) MW_REQUIRES(mutex_);
    /// Wake an idle worker for queued work, or seal early when every worker
    /// is gathering (rule (d)).
    void rebalance() MW_REQUIRES(mutex_);
    void refresh_next_deadline() MW_REQUIRES(mutex_);
    /// Re-aim the round-robin cursor at the next non-empty lane after a
    /// removal path (evict_oldest / remove_if) empties the lane it points
    /// at. Without this the cursor keeps "owing" a turn to the emptied lane:
    /// a request pushed there moments later is served ahead of lanes that
    /// have been waiting since before the eviction, breaking rotation order.
    void reanchor_cursor() MW_REQUIRES(mutex_);

    const std::size_t capacity_;

    mutable Mutex mutex_{LockRank::kServeQueue};
    CondVar idle_wake_;  ///< idle consumers: signalled on unowned work and close
    std::array<std::deque<Request>, kPolicyLanes> lanes_ MW_GUARDED_BY(mutex_);
    std::size_t total_ MW_GUARDED_BY(mutex_) = 0;
    std::size_t next_lane_ MW_GUARDED_BY(mutex_) = 0;  ///< round-robin cursor
    bool closed_ MW_GUARDED_BY(mutex_) = false;
    std::vector<Gather*> gathers_ MW_GUARDED_BY(mutex_);  ///< open, unsealed
    std::size_t idle_ MW_GUARDED_BY(mutex_) = 0;     ///< consumers waiting for work
    std::size_t workers_ MW_GUARDED_BY(mutex_) = 0;  ///< next_batch() callers
    /// Earliest deadline of an open gather (infinity when none); written
    /// under the mutex, read by clock_moved() before it takes the mutex.
    Atomic<double> next_deadline_{std::numeric_limits<double>::infinity()};
};

}  // namespace mw::serve
