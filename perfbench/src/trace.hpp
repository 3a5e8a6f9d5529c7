// The benchmark's own spans: host time of each call the benchmark makes into
// a layer's public functions, recorded into a preallocated per-thread log and
// summarised when the run ends. A full log drops further spans and counts
// them; a run that dropped spans cannot support its overhead figure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names, one per layer entry point the benchmark calls. `kRequest` is
/// the root of one operation; its self time is the benchmark's own work.
enum class SpanName : std::uint8_t {
    kRequest,
    kDecide,      ///< sched: OnlineScheduler::decide / SchedulerSnapshot::decide
    kPrice,       ///< device: Device::profile
    kForward,     ///< nn: one model forward pass, layer by layer
    kDense,       ///< nn: Dense::forward
    kConv2d,      ///< nn: Conv2d::forward
    kPool,        ///< nn: MaxPool::forward
    kFlatten,     ///< nn: Flatten::forward
    kPlan,        ///< graph: OnlineScheduler::plan_graph
    kVerify,      ///< graph: verify_schedule
    kBook,        ///< graph: Dispatcher::run_schedule
    kSubmit,      ///< serve: Server::submit / submit_ticket
    kCount
};

const char* span_name(SpanName name);

struct SpanRecord {
    double t0 = 0.0;
    double t1 = 0.0;
    SpanName name = SpanName::kRequest;
    std::uint8_t depth = 0;
};

/// Per-layer summary over a log.
struct LayerSummary {
    std::size_t count = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< durations minus the child spans they contain
};

/// Single-thread span log with a fixed capacity.
class SpanLog {
public:
    explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

    void record(SpanName name, double t0, double t1, int depth) {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return;
        }
        spans_.push_back({t0, t1, name, static_cast<std::uint8_t>(depth)});
    }

    [[nodiscard]] std::size_t dropped() const { return dropped_; }
    [[nodiscard]] std::size_t size() const { return spans_.size(); }
    [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Summaries indexed by SpanName. Spans must have been recorded in
    /// completion order by one thread (children close before parents).
    [[nodiscard]] std::vector<LayerSummary> summarize() const;

private:
    std::vector<SpanRecord> spans_;
    std::size_t dropped_ = 0;
};

/// RAII span: records [construction, destruction) into `log` at the current
/// nesting depth of this thread. A null log records nothing.
class ScopedSpan {
public:
    ScopedSpan(SpanLog* log, SpanName name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog* log_;
    SpanName name_;
    double t0_ = 0.0;
};

/// JSON object {"<span>": {"count":..,"p50_us":..,"p99_us":..,"total_s":..,"self_s":..}}.
std::string layers_json(const std::vector<LayerSummary>& layers);

}  // namespace perfbench
