#include "serve/request_queue.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mw::serve {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
    MW_CHECK(capacity > 0, "queue capacity must be positive");
}

bool RequestQueue::try_push(Request& request) {
    const MutexLock lock(mutex_);
    if (closed_) return false;
    // Every queued request is unowned, so a request whose (model, policy) an
    // open gather owns goes straight to that gather; its worker is woken
    // only when the newcomer fills it.
    for (Gather* g : gathers_) {
        if (g->batch.policy() != request.policy ||
            g->batch.model_name() != request.model_name) {
            continue;
        }
        if (g->batch.total_samples + request.samples <= g->config->max_samples) {
            g->batch.total_samples += request.samples;
            g->batch.requests.push_back(std::move(request));
            if (full(*g)) seal(*g);
            return true;
        }
        seal(*g);  // the newcomer does not fit: the gather is as full as it gets
        break;
    }
    if (total_ >= capacity_) return false;
    lanes_[lane_of(request.policy)].push_back(std::move(request));
    ++total_;
    rebalance();
    return true;
}

std::optional<Request> RequestQueue::pop(double timeout_s) {
    MutexLock lock(mutex_);
    ++idle_;
    (void)idle_wake_.wait_for(lock, timeout_s, [this] {
        mutex_.assert_held();
        return total_ > 0 || closed_;
    });
    --idle_;
    return pop_leader();  // nullopt on timeout, or closed and drained
}

std::optional<Request> RequestQueue::pop_leader() {
    mutex_.assert_held();
    if (total_ == 0) return std::nullopt;
    for (std::size_t probe = 0; probe < kPolicyLanes; ++probe) {
        auto& lane = lanes_[next_lane_];
        next_lane_ = (next_lane_ + 1) % kPolicyLanes;
        if (lane.empty()) continue;
        Request request = std::move(lane.front());
        lane.pop_front();
        --total_;
        return request;
    }
    MW_ASSERT_MSG(false, "total_ > 0 but every lane is empty");
    return std::nullopt;
}

std::vector<Request> RequestQueue::pop_matching(const std::string& model_name,
                                                sched::Policy policy,
                                                std::size_t max_requests,
                                                std::size_t max_samples) {
    std::vector<Request> matched;
    const MutexLock lock(mutex_);
    (void)take_matching(model_name, policy, max_requests, max_samples, matched);
    return matched;
}

std::size_t RequestQueue::take_matching(const std::string& model_name, sched::Policy policy,
                                        std::size_t max_requests, std::size_t max_samples,
                                        std::vector<Request>& out) {
    mutex_.assert_held();
    auto& lane = lanes_[lane_of(policy)];
    std::size_t samples = 0;
    for (auto it = lane.begin(); it != lane.end() && max_requests > 0;) {
        if (it->model_name == model_name && samples + it->samples <= max_samples) {
            samples += it->samples;
            out.push_back(std::move(*it));
            it = lane.erase(it);
            --total_;
            --max_requests;
        } else {
            ++it;
        }
    }
    return samples;
}

bool RequestQueue::full(const Gather& g) {
    return g.batch.requests.size() >= g.config->max_requests ||
           g.batch.total_samples >= g.config->max_samples;
}

std::optional<PendingBatch> RequestQueue::next_batch(const BatchConfig& config,
                                                     const Clock& clock,
                                                     std::size_t workers, bool drain) {
    MutexLock lock(mutex_);
    workers_ = workers;
    ++idle_;
    idle_wake_.wait(lock, [this] {
        mutex_.assert_held();
        return total_ > 0 || closed_;
    });
    --idle_;
    if (closed_ && (!drain || total_ == 0)) return std::nullopt;

    // Pop the leader and claim its (model, policy) in one critical section:
    // no push can slip between the two and start a rival gather.
    Gather g;
    g.config = &config;
    std::optional<Request> leader = pop_leader();
#if defined(MW_OBS_ENABLED)
    const double popped_at = clock.now();
#endif
    g.batch.total_samples = leader->samples;
    g.batch.requests.push_back(std::move(*leader));
    if (!config.enabled || config.max_requests <= 1) {
        MW_TRACE_INSTANT(obs::Phase::kBatch, g.batch.requests.front().id, popped_at,
                         "batching-off");
        rebalance();
        return std::move(g.batch);
    }
    // Reserved up front: the leader's model name, passed by reference below,
    // lives inside this vector.
    g.batch.requests.reserve(config.max_requests);
    g.deadline = g.batch.requests.front().arrival_s + config.max_wait_s;
    if (!full(g)) {
        g.batch.total_samples += take_matching(
            g.batch.model_name(), g.batch.policy(), config.max_requests - 1,
            config.max_samples - g.batch.total_samples, g.batch.requests);
    }
    if (!full(g) && !closed_ && clock.now() < g.deadline) {
        gathers_.push_back(&g);
        refresh_next_deadline();
        rebalance();  // may seal this very gather (rule (d))
        const auto sealed = [&] {
            mutex_.assert_held();
            return g.sealed || clock.now() >= g.deadline;
        };
        const double real_s = clock.real_wait_s(g.deadline);
        if (std::isinf(real_s)) {
            g.wake.wait(lock, sealed);
        } else {
            (void)g.wake.wait_for(lock, real_s, sealed);
        }
        if (!g.sealed) seal(g);
    }
    rebalance();
    // Aggregation window: leader popped -> batch sealed, tagged with the
    // leader's id (followers share the batch).
    MW_TRACE_SPAN(obs::Phase::kBatch, g.batch.requests.front().id, popped_at, clock.now(),
                  g.batch.model_name().c_str());
    return std::move(g.batch);
}

void RequestQueue::seal(Gather& g) {
    mutex_.assert_held();
    g.sealed = true;
    std::erase(gathers_, &g);
    refresh_next_deadline();
    g.wake.notify_one();
}

void RequestQueue::rebalance() {
    mutex_.assert_held();
    if (total_ == 0) return;
    if (idle_ > 0) {
        idle_wake_.notify_one();
        return;
    }
    // A worker that is executing comes back for the queued work; only when
    // every worker is gathering would it wait for a deadline (forever, on a
    // clock that moves only once the server is settled).
    if (gathers_.empty() || gathers_.size() < workers_) return;
    Gather* oldest = gathers_.front();
    for (Gather* g : gathers_) {
        if (g->deadline < oldest->deadline) oldest = g;
    }
    seal(*oldest);
}

void RequestQueue::refresh_next_deadline() {
    mutex_.assert_held();
    double next = std::numeric_limits<double>::infinity();
    for (const Gather* g : gathers_) next = std::min(next, g->deadline);
    // seq_cst pairs with the ManualClock's now_ (see ManualClock).
    next_deadline_.store(next, std::memory_order_seq_cst);
}

void RequestQueue::clock_moved(double now) {
    if (now < next_deadline_.load(std::memory_order_seq_cst)) return;
    const MutexLock lock(mutex_);
    for (std::size_t i = 0; i < gathers_.size();) {
        if (gathers_[i]->deadline <= now) {
            seal(*gathers_[i]);  // erases gathers_[i]
        } else {
            ++i;
        }
    }
}

std::optional<Request> RequestQueue::evict_oldest() {
    const MutexLock lock(mutex_);
    std::deque<Request>* oldest_lane = nullptr;
    for (auto& lane : lanes_) {
        if (lane.empty()) continue;
        // Lanes are FIFO, so each lane's front is its oldest entry.
        if (oldest_lane == nullptr ||
            lane.front().arrival_s < oldest_lane->front().arrival_s) {
            oldest_lane = &lane;
        }
    }
    if (oldest_lane == nullptr) return std::nullopt;
    Request victim = std::move(oldest_lane->front());
    oldest_lane->pop_front();
    --total_;
    reanchor_cursor();
    return victim;
}

std::vector<Request> RequestQueue::remove_if(
    const std::function<bool(const Request&)>& pred) {
    std::vector<Request> removed;
    const MutexLock lock(mutex_);
    for (auto& lane : lanes_) {
        for (auto it = lane.begin(); it != lane.end();) {
            if (pred(*it)) {
                removed.push_back(std::move(*it));
                it = lane.erase(it);
                --total_;
            } else {
                ++it;
            }
        }
    }
    reanchor_cursor();
    return removed;
}

void RequestQueue::reanchor_cursor() {
    mutex_.assert_held();
    if (total_ == 0) return;
    for (std::size_t probe = 0;
         probe < kPolicyLanes && lanes_[next_lane_].empty(); ++probe) {
        next_lane_ = (next_lane_ + 1) % kPolicyLanes;
    }
}

void RequestQueue::close() {
    {
        const MutexLock lock(mutex_);
        closed_ = true;
        while (!gathers_.empty()) seal(*gathers_.front());
    }
    idle_wake_.notify_all();
}

std::vector<Request> RequestQueue::drain() {
    std::vector<Request> out;
    const MutexLock lock(mutex_);
    for (auto& lane : lanes_) {
        while (!lane.empty()) {
            out.push_back(std::move(lane.front()));
            lane.pop_front();
            --total_;
        }
    }
    return out;
}

bool RequestQueue::closed() const {
    const MutexLock lock(mutex_);
    return closed_;
}

std::size_t RequestQueue::size() const {
    const MutexLock lock(mutex_);
    return total_;
}

std::size_t RequestQueue::lane_size(sched::Policy policy) const {
    const MutexLock lock(mutex_);
    return lanes_[lane_of(policy)].size();
}

}  // namespace mw::serve
