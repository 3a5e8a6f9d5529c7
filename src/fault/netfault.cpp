#include "fault/netfault.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mw::fault {
namespace {

/// FNV-1a over the link key: per-link stream seeds must not depend on
/// std::hash (implementation-defined), or a chaos seed recorded by CI would
/// not reproduce on a developer machine.
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

NetFaultInjector::NetFaultInjector(NetFaultConfig config, const Clock* clock,
                                   obs::MetricsRegistry* metrics)
    : config_(config), clock_(clock) {
    MW_ASSERT_MSG(config_.drop_p >= 0.0 && config_.drop_p <= 1.0,
                  "NetFaultInjector: drop_p must be a probability in [0,1]");
    MW_ASSERT_MSG(config_.delay_p >= 0.0 && config_.delay_p <= 1.0,
                  "NetFaultInjector: delay_p must be a probability in [0,1]");
    MW_ASSERT_MSG(config_.delay_s >= 0.0, "NetFaultInjector: delay_s must be >= 0");
    if (metrics != nullptr) {
        dropped_metric_ = &metrics->counter("mw_cluster_net_frames_dropped_total");
        partition_metric_ = &metrics->counter("mw_cluster_net_partition_drops_total");
        delays_metric_ = &metrics->counter("mw_cluster_net_delays_total");
    }
}

void NetFaultInjector::kill_node(const std::string& name) {
    const MutexLock lock(mutex_);
    down_.insert(name);
}

void NetFaultInjector::revive_node(const std::string& name) {
    const MutexLock lock(mutex_);
    down_.erase(name);
}

void NetFaultInjector::partition(std::vector<std::string> group) {
    const MutexLock lock(mutex_);
    group_.clear();
    group_.insert(group.begin(), group.end());
    partitioned_ = true;
}

void NetFaultInjector::heal_partition() {
    const MutexLock lock(mutex_);
    group_.clear();
    partitioned_ = false;
}

bool NetFaultInjector::partitioned() const {
    const MutexLock lock(mutex_);
    return partitioned_;
}

bool NetFaultInjector::reachable_locked(const std::string& from,
                                        const std::string& to) const {
    if (down_.count(from) > 0 || down_.count(to) > 0) return false;
    if (!partitioned_) return true;
    return (group_.count(from) > 0) == (group_.count(to) > 0);
}

bool NetFaultInjector::reachable(const std::string& from, const std::string& to) const {
    const MutexLock lock(mutex_);
    return reachable_locked(from, to);
}

Rng& NetFaultInjector::stream_for(const std::string& link) {
    auto it = streams_.find(link);
    if (it == streams_.end()) {
        it = streams_.emplace(link, Rng(config_.seed ^ fnv1a(link))).first;
    }
    return it->second;
}

void NetFaultInjector::count_drop(const std::string& from, const std::string& to,
                                  std::uint64_t trace_id, const char* why) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    if (dropped_metric_ != nullptr) dropped_metric_->inc();
    const double now = clock_ != nullptr ? clock_->now() : 0.0;
    const std::string label = std::string(why) + ":" + from + ">" + to;
    MW_TRACE_INSTANT(obs::Phase::kFault, trace_id, now, label.c_str());
}

FrameVerdict NetFaultInjector::on_frame(const std::string& from, const std::string& to,
                                        std::uint64_t trace_id) {
    FrameVerdict verdict;
    bool cut = false;
    {
        const MutexLock lock(mutex_);
        if (!reachable_locked(from, to)) {
            cut = true;
            if (partitioned_ && down_.count(from) == 0 && down_.count(to) == 0) {
                partition_drops_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                if (partition_metric_ != nullptr) partition_metric_->inc();
            }
        } else if (config_.drop_p > 0.0 || config_.delay_p > 0.0) {
            Rng& rng = stream_for(from + "->" + to);
            if (config_.drop_p > 0.0 && rng.uniform() < config_.drop_p) {
                cut = true;
            } else if (config_.delay_p > 0.0 && rng.uniform() < config_.delay_p) {
                verdict.extra_delay_s = config_.delay_s;
                delays_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                if (delays_metric_ != nullptr) delays_metric_->inc();
            }
        }
    }
    if (cut) {
        verdict.dropped = true;
        count_drop(from, to, trace_id, "link-drop");
    }
    return verdict;
}

}  // namespace mw::fault
