#include "trace.hpp"

#include <array>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {
thread_local int t_depth = 0;
}  // namespace

const char* span_name(SpanName name) {
    static constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)> kNames{
        "request",     "sched.decide", "device.price", "nn.forward", "nn.dense",
        "nn.conv2d",   "nn.pool",      "nn.flatten",   "graph.plan", "graph.verify",
        "graph.book",  "serve.submit"};
    return kNames[static_cast<std::size_t>(name)];
}

std::vector<LayerSummary> SpanLog::summarize() const {
    constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
    std::vector<std::vector<double>> durations(kNames);
    std::vector<LayerSummary> out(kNames);
    // Post-order walk: when a span at depth d closes, every span that closed
    // at depth d+1 since the previous depth-d span is one of its children.
    std::array<double, 256> child_sum{};
    for (const SpanRecord& s : spans_) {
        const double d = s.t1 - s.t0;
        const auto idx = static_cast<std::size_t>(s.name);
        durations[idx].push_back(d);
        LayerSummary& l = out[idx];
        l.total_s += d;
        const std::size_t below = static_cast<std::size_t>(s.depth) + 1;
        l.self_s += d - (below < child_sum.size() ? child_sum[below] : 0.0);
        if (below < child_sum.size()) child_sum[below] = 0.0;
        child_sum[s.depth] += d;
    }
    for (std::size_t i = 0; i < kNames; ++i) {
        out[i].count = durations[i].size();
        out[i].p50_us = percentile(durations[i], 50.0) * 1e6;
        out[i].p99_us = percentile(durations[i], 99.0) * 1e6;
    }
    return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanName name) : log_(log), name_(name) {
    if (log_ == nullptr) return;
    ++t_depth;
    t0_ = host_now();
}

ScopedSpan::~ScopedSpan() {
    if (log_ == nullptr) return;
    const double t1 = host_now();
    --t_depth;
    log_->record(name_, t0_, t1, t_depth);
}

std::string layers_json(const std::vector<LayerSummary>& layers) {
    std::string out = "{";
    bool first = true;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerSummary& l = layers[i];
        if (l.count == 0) continue;
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"count\": %zu, \"p50_us\": %.4f, \"p99_us\": %.4f, "
                      "\"total_s\": %.6f, \"self_s\": %.6f}",
                      first ? "" : ", ", span_name(static_cast<SpanName>(i)), l.count,
                      l.p50_us, l.p99_us, l.total_s, l.self_s);
        out += buf;
        first = false;
    }
    return out + "}";
}

}  // namespace perfbench
