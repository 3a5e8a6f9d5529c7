#include "cluster/transport.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace mw::cluster {

Transport::Transport(const Clock& clock, TransportConfig config,
                     fault::NetFaultInjector* net, obs::MetricsRegistry* metrics)
    : config_(config), clock_(&clock), net_(net),
      pool_(config.delivery_workers == 0 ? 1 : config.delivery_workers) {
    MW_ASSERT_MSG(config_.default_link.latency_s >= 0.0,
                  "Transport: link latency must be >= 0");
    MW_ASSERT_MSG(config_.default_link.bandwidth_bps > 0.0,
                  "Transport: link bandwidth must be > 0");
    if (metrics != nullptr) {
        sent_metric_ = &metrics->counter("mw_cluster_frames_sent_total");
        delivered_metric_ = &metrics->counter("mw_cluster_frames_delivered_total");
        dropped_metric_ = &metrics->counter("mw_cluster_frames_dropped_total");
        bytes_metric_ = &metrics->counter("mw_cluster_bytes_sent_total");
    }
    const std::size_t workers = pool_.size();
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        workers_.push_back(pool_.submit([this] { delivery_loop(); }));
    }
}

Transport::~Transport() { stop(); }

void Transport::register_endpoint(const std::string& name, Handler handler) {
    MW_CHECK(handler != nullptr, "Transport: endpoint handler must be callable");
    const MutexLock lock(mutex_);
    endpoints_[name] = std::move(handler);
}

void Transport::set_link(const std::string& from, const std::string& to,
                         LinkConfig link) {
    MW_CHECK(link.latency_s >= 0.0, "Transport: link latency must be >= 0");
    MW_CHECK(link.bandwidth_bps > 0.0, "Transport: link bandwidth must be > 0");
    const MutexLock lock(mutex_);
    links_[from + "->" + to] = link;
}

LinkConfig Transport::link_for(const std::string& key) const {
    const auto it = links_.find(key);
    return it == links_.end() ? config_.default_link : it->second;
}

void Transport::send(const std::string& from, const std::string& to, Frame frame,
                     std::uint64_t trace_id) {
    const std::size_t frame_bytes = frame.size();
    const MutexLock lock(mutex_);
    if (stopped_ || endpoints_.find(to) == endpoints_.end()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
        if (dropped_metric_ != nullptr) dropped_metric_->inc();
        return;
    }
    fault::FrameVerdict verdict;
    if (net_ != nullptr) {
        verdict = net_->on_frame(from, to, trace_id);
        if (verdict.dropped) {
            dropped_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            if (dropped_metric_ != nullptr) dropped_metric_->inc();
            return;
        }
    }
    const std::string key = from + "->" + to;
    const LinkConfig link = link_for(key);
    const double now = clock_->now();
    // Frames on one directed link serialize behind each other: the wire is
    // busy for bytes/bandwidth, then the frame propagates for latency_s
    // (plus any injected delay, which models in-flight perturbation).
    double& busy = link_busy_[key];
    const double start = busy > now ? busy : now;
    const double wire_s = static_cast<double>(frame_bytes) * 8.0 / link.bandwidth_bps;
    busy = start + wire_s;
    heap_.push(InFlight{start + wire_s + link.latency_s + verdict.extra_delay_s, now,
                        next_seq_++, trace_id, from, to, std::move(frame)});
    if (sent_metric_ != nullptr) sent_metric_->inc();
    if (bytes_metric_ != nullptr) bytes_metric_->inc(frame_bytes);
    activity_.notify_one();
}

std::size_t Transport::in_flight() const {
    const MutexLock lock(mutex_);
    return heap_.size();
}

void Transport::delivery_loop() {
    while (true) {
        std::vector<InFlight> ready;
        Handler handler;
        {
            MutexLock lock(mutex_);
            activity_.wait_for(lock, config_.poll_s, [this] {
                mutex_.assert_held();
                return stopped_ ||
                       (!heap_.empty() && heap_.top().deliver_at <= clock_->now());
            });
            if (stopped_) {
                // Drain-as-dropped: the router's shutdown path accounts for
                // the requests these frames carried.
                while (!heap_.empty()) {
                    heap_.pop();
                    dropped_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                    if (dropped_metric_ != nullptr) dropped_metric_->inc();
                }
                return;
            }
            const double now = clock_->now();
            while (!heap_.empty() && heap_.top().deliver_at <= now) {
                ready.push_back(heap_.top());
                heap_.pop();
            }
        }
        for (InFlight& item : ready) {
            {
                const MutexLock lock(mutex_);
                const auto it = endpoints_.find(item.to);
                handler = it == endpoints_.end() ? Handler{} : it->second;
            }
            if (!handler) {
                dropped_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                if (dropped_metric_ != nullptr) dropped_metric_->inc();
                continue;
            }
            const std::string label = item.from + ">" + item.to;
            MW_TRACE_SPAN(obs::Phase::kLink, item.trace_id, item.sent_at,
                          item.deliver_at, label.c_str());
            handler(item.from, item.frame);
            delivered_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            if (delivered_metric_ != nullptr) delivered_metric_->inc();
        }
    }
}

void Transport::stop() {
    {
        const MutexLock lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
    }
    activity_.notify_all();
    for (auto& worker : workers_) worker.get();
    workers_.clear();
}

}  // namespace mw::cluster
