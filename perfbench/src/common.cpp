#include <cmath>
#include <cstdio>
#include <utility>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mw;

WorkloadFn find_workload(const std::string& name) {
    if (name == "adaptive") return &run_adaptive;
    if (name == "spine") return &run_spine;
    if (name == "overload") return &run_overload;
    if (name == "dag") return &run_dag;
    return nullptr;
}

ModeledFigures figures_of(ModeledStats modeled) {
    ModeledFigures f;
    f.goodput_rps = static_cast<double>(modeled.within_slo) / modeled.duration_s;
    f.latency_p50_ms = percentile(modeled.latencies_s, 50.0) * 1e3;
    f.latency_p99_ms = percentile(modeled.latencies_s, 99.0) * 1e3;
    f.energy_per_request_mj = modeled.energy_j / static_cast<double>(modeled.completed) * 1e3;
    return f;
}

void add_end_to_end(RunResult& result, const ModeledFigures& modeled, std::size_t completed,
                    double host_rps) {
    MetricValues& m = result.end_to_end;
    m["goodput_rps"] = modeled.goodput_rps;
    m["latency_p50_ms"] = modeled.latency_p50_ms;
    m["latency_p99_ms"] = modeled.latency_p99_ms;
    m["energy_per_request_mj"] = modeled.energy_per_request_mj;
    m["host_rps"] = host_rps;
    if (completed < 1000) {
        result.fail_check("fewer than 1000 completed requests behind the modeled percentiles");
    }
}

void NnStats::report(LayerValues& values) const {
    for (const auto& [model, v] : per_model) {
        if (v[1] > 0.0) values["nn.forward_us_per_sample." + model] = v[0] / v[1] * 1e6;
    }
    const char* kinds[] = {"dense", "conv2d", "pool", "flatten"};
    const double per = requests > 0 ? 1e6 / static_cast<double>(requests) : 0.0;
    for (std::size_t k = 0; k < kind_s.size(); ++k) {
        values[std::string("nn.layer_us.") + kinds[k]] = kind_s[k] * per;
    }
    if (seconds > 0.0) {
        values["nn.gflops"] = flops / seconds * 1e-9;
        values["nn.gbytes"] = bytes / seconds * 1e-9;
    }
}

Tensor layered_forward(const nn::Model& model, const Tensor& input, SpanLog* log,
                       NnStats& stats) {
    // With a log, the layer times come from its spans: a host clock read is
    // not free, and reading it twice per layer would inflate the traced run.
    const ScopedSpan forward_span(log, SpanName::kForward);
    const double t_start = log != nullptr ? 0.0 : host_now();
    double elapsed = 0.0;
    Tensor current;
    const Tensor* in = &input;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const nn::Layer& layer = model.layer(i);
        std::size_t kind = 3;
        SpanName name = SpanName::kFlatten;
        if (dynamic_cast<const nn::Dense*>(&layer) != nullptr) {
            kind = 0;
            name = SpanName::kDense;
        } else if (dynamic_cast<const nn::Conv2d*>(&layer) != nullptr) {
            kind = 1;
            name = SpanName::kConv2d;
        } else if (dynamic_cast<const nn::MaxPool*>(&layer) != nullptr) {
            kind = 2;
            name = SpanName::kPool;
        }
        const nn::LayerCost cost = layer.cost(in->shape());
        stats.flops += cost.flops;
        stats.bytes += cost.bytes_in + cost.bytes_out + cost.bytes_weights;
        Tensor next(layer.output_shape(in->shape()));
        if (log != nullptr) {
            {
                const ScopedSpan layer_span(log, name);
                layer.forward(*in, next, nullptr);
            }
            const SpanRecord& span = log->spans().back();
            stats.kind_s[kind] += span.t1 - span.t0;
            elapsed += span.t1 - span.t0;
        } else {
            const double t0 = host_now();
            layer.forward(*in, next, nullptr);
            stats.kind_s[kind] += host_now() - t0;
        }
        current = std::move(next);
        in = &current;
    }
    if (log == nullptr) elapsed = host_now() - t_start;
    stats.seconds += elapsed;
    auto& per = stats.per_model[model.name()];
    per[0] += elapsed;
    per[1] += static_cast<double>(input.shape()[0]);
    ++stats.requests;
    return current;
}

int device_index(const Testbed& tb, const std::string& name) {
    const auto names = tb.registry.names();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
}

void report_devices(LayerValues& values, const Testbed& tb, const std::vector<Booking>& bookings,
                    double duration_s, std::size_t completed) {
    const auto names = tb.registry.names();
    std::vector<double> busy(names.size(), 0.0), energy(names.size(), 0.0);
    for (const Booking& b : bookings) {
        busy[b.device] += b.end - b.start;
        energy[b.device] += b.energy_j;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string kind = kind_label(names[i]);
        values["device.busy_share." + kind] = busy[i] / duration_s;
        values["device.energy_mj." + kind] =
            completed > 0 ? energy[i] / static_cast<double>(completed) * 1e3 : 0.0;
    }
}

void report_shares(LayerValues& values, const Testbed& tb, const std::vector<int>& devices) {
    const auto names = tb.registry.names();
    std::vector<double> count(names.size(), 0.0);
    for (const int d : devices) count[static_cast<std::size_t>(d)] += 1.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        values["sched.share." + kind_label(names[i])] =
            devices.empty() ? 0.0 : count[i] / static_cast<double>(devices.size());
    }
}

void report_trace(RunResult& result, LayerValues& values, const std::vector<const SpanLog*>& logs,
                  double untraced_rps, double traced_rps, std::size_t traced_ops,
                  bool check_closure) {
    std::size_t dropped = 0;
    std::vector<LayerSummary> merged(static_cast<std::size_t>(SpanName::kCount));
    for (const SpanLog* log : logs) {
        dropped += log->dropped();
        const auto layers = log->summarize();
        for (std::size_t i = 0; i < layers.size(); ++i) {
            if (layers[i].count == 0) continue;
            // Logs of different threads hold different span names.
            merged[i] = layers[i];
        }
    }
    const bool overhead_valid = dropped == 0;
    const double overhead = 1.0 - traced_rps / untraced_rps;
    values["trace.dropped_spans"] = static_cast<double>(dropped);
    values["trace.overhead_share"] = overhead;

    double layer_self = 0.0;
    for (std::size_t i = 1; i < merged.size(); ++i) layer_self += merged[i].self_s;
    const double per_op_traced = traced_ops > 0 ? layer_self / static_cast<double>(traced_ops) : 0.0;
    const double per_op_untraced = 1.0 / untraced_rps;
    const double closure = per_op_traced / per_op_untraced;
    if (check_closure) values["trace.closure_share"] = closure;
    char buf[400];
    std::snprintf(buf, sizeof(buf),
                  "\"untraced_rps\": %.6g, \"traced_rps\": %.6g, \"traced_ops\": %zu, "
                  "\"dropped_spans\": %zu, \"overhead_share\": %.6g, \"overhead_valid\": %s, "
                  "\"closure_checked\": %s, \"closure_share\": %.6g, \"untraced_us_per_op\": %.6g, "
                  "\"layers\": ",
                  untraced_rps, traced_rps, traced_ops, dropped, overhead,
                  overhead_valid ? "true" : "false", check_closure ? "true" : "false", closure,
                  per_op_untraced * 1e6);
    result.trace_json = buf + layers_json(merged);
}

}  // namespace perfbench
