#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/lowering.hpp"
#include "graph/planner.hpp"
#include "graph/verify.hpp"
#include "reference.hpp"
#include "testbed.hpp"

namespace perfbench {

using namespace mw;

namespace {

std::string fmt(const char* format, double a, double b) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), format, a, b);
    return buf;
}

/// Relative slack for float sums compared across two code paths.
constexpr double kRel = 1e-9;

}  // namespace

std::string check_timelines(std::vector<Booking>& bookings) {
    std::sort(bookings.begin(), bookings.end(), [](const Booking& a, const Booking& b) {
        return a.device != b.device ? a.device < b.device : a.start < b.start;
    });
    for (std::size_t i = 0; i < bookings.size(); ++i) {
        const Booking& b = bookings[i];
        if (b.start < b.submit * (1 - kRel) - kRel) {
            return fmt("booking starts at %.9g before its submit time %.9g", b.start, b.submit);
        }
        if (!(b.end >= b.start)) return fmt("booking ends at %.9g before it starts at %.9g", b.end, b.start);
        if (!(b.energy_j > 0.0)) return fmt("booking energy %.3g J at t=%.9g is not positive", b.energy_j, b.start);
        if (i > 0 && bookings[i - 1].device == b.device &&
            b.start < bookings[i - 1].end - kRel * std::max(1.0, std::abs(b.start))) {
            return "device " + std::to_string(b.device) +
                   fmt(": booking at %.9g overlaps one ending at %.9g", b.start, bookings[i - 1].end);
        }
    }
    return {};
}

std::string check_end_after_arrival(double arrival, double end) {
    if (end < arrival) return fmt("modeled end %.9g precedes arrival %.9g", end, arrival);
    return {};
}

std::string check_accounting(std::size_t submitted, std::size_t completed, std::size_t refused,
                             std::size_t failed) {
    if (submitted != completed + refused + failed) {
        return "accounting: submitted " + std::to_string(submitted) + " != completed " +
               std::to_string(completed) + " + refused " + std::to_string(refused) +
               " + failed " + std::to_string(failed);
    }
    return {};
}

std::string check_capacity(double goodput_rps, double capacity_rps) {
    if (!(goodput_rps <= capacity_rps)) {
        return fmt("goodput %.6g/s exceeds the fleet's modeled capacity %.6g/s", goodput_rps,
                   capacity_rps);
    }
    return {};
}

double critical_path_lower_bound(const graph::Graph& graph,
                                 const std::vector<device::DeviceParams>& devices) {
    std::vector<double> finish(graph.size(), 0.0);
    double longest = 0.0;
    for (graph::NodeId v = 0; v < graph.size(); ++v) {
        const graph::OpNode& node = graph.node(v);
        double fastest = 1e300;
        for (const device::DeviceParams& p : devices) {
            const double compute = node.cost.flops / (p.peak_gflops * 1e9);
            const double weights = node.cost.bytes_weights / (p.mem_bandwidth_gbps * 1e9);
            fastest = std::min(fastest, std::max(compute, weights));
        }
        double ready = 0.0;
        for (const graph::NodeId u : node.inputs) ready = std::max(ready, finish[u]);
        finish[v] = ready + fastest;
        longest = std::max(longest, finish[v]);
    }
    return longest;
}

std::string check_schedule(const graph::Graph& graph, const graph::Schedule& schedule,
                           double submit, double lower_bound) {
    const auto violations = graph::verify_schedule(graph, schedule);
    if (!violations.empty()) {
        return "verify_schedule rejected `" + graph.name() + "`: " + violations.front().message;
    }
    const double makespan = schedule.makespan_s() - submit;
    if (makespan < lower_bound * (1 - 1e-9)) {
        return fmt("makespan %.9g s is below the critical-path lower bound %.9g s", makespan,
                   lower_bound);
    }
    return {};
}

std::vector<std::string> run_selftest(Testbed& tb) {
    std::vector<std::string> lines;
    const auto expect = [&lines](const char* what, const std::string& clean,
                                 const std::string& corrupted) {
        if (!clean.empty()) {
            lines.push_back(std::string("FAIL ") + what + ": rejects a correct result: " + clean);
        } else if (corrupted.empty()) {
            lines.push_back(std::string("FAIL ") + what + ": accepts a corrupted result");
        } else {
            lines.push_back(std::string("ok   ") + what + ": rejects corruption (" + corrupted +
                            ")");
        }
    };

    // Reference forward pass, on a dense and a convolutional model.
    for (const char* name : {"mnist-small", "mnist-cnn"}) {
        const nn::Model& model = *tb.models.at(name);
        const InputPool& pool = tb.inputs.at(name);
        Tensor input(model.input_shape(1));
        pool.fill(input, 3, 1);
        Tensor out = model.forward(input);
        const auto ref = reference_forward(model, {pool.row(3), pool.elems});
        const std::string clean = compare_outputs(out.span(), ref);
        out[out.numel() / 2] += 0.01F;
        expect(name, clean, compare_outputs(out.span(), ref));
    }

    // Device timelines: overlap, start before submit, zero energy.
    std::vector<Booking> good{{0, 0.0, 0.0, 1.0, 2.0}, {0, 0.5, 1.0, 2.0, 2.0},
                              {1, 0.0, 0.5, 0.7, 1.0}};
    {
        auto a = good, b = good, c = good, d = good;
        b[1].start = 0.9;
        c[2].start = -0.1;
        d[2].energy_j = 0.0;
        const std::string clean = check_timelines(a);
        expect("timeline overlap", clean, check_timelines(b));
        expect("timeline start>=submit", clean, check_timelines(c));
        expect("timeline energy>0", clean, check_timelines(d));
    }
    expect("end>=arrival", check_end_after_arrival(1.0, 1.5), check_end_after_arrival(1.0, 0.9));
    expect("accounting", check_accounting(10, 7, 2, 1), check_accounting(10, 7, 2, 0));
    expect("capacity", check_capacity(100.0, 200.0), check_capacity(201.0, 200.0));

    // Schedules: a planned lowering must verify and respect the critical path;
    // one that moves a step before its producer (or, for a one-step plan,
    // drops an operator) must fail verification, and a schedule
    // whose compute is shrunk a millionfold must fall below the lower bound.
    {
        const graph::LoweredGraph lowered = graph::lower(*tb.models.at("mnist-cnn"), 16);
        std::vector<graph::PlannerDevice> devices;
        std::vector<device::DeviceParams> params;
        for (const device::Device* dev : tb.twin.devices()) {
            devices.push_back({dev->params(), 0.0, 1.0});
            params.push_back(dev->params());
        }
        graph::GraphPlanner planner;
        const graph::Schedule plan =
            planner.plan(lowered.graph, devices, graph::Objective::kMakespan);
        const double lb = critical_path_lower_bound(lowered.graph, params);
        const std::string clean = check_schedule(lowered.graph, plan, 0.0, lb);
        graph::Schedule early = plan;
        if (early.steps.size() >= 2) early.steps.back().start_s = 0.0;
        if (early.steps.size() < 2) early.steps.front().nodes.pop_back();
        expect("verify_schedule", clean, check_schedule(lowered.graph, early, 0.0, lb));
        graph::Schedule fast = plan;
        for (graph::Step& s : fast.steps) {
            s.start_s *= 1e-6;
            s.load_s *= 1e-6;
            s.compute_s *= 1e-6;
            s.store_s *= 1e-6;
        }
        const auto lb_only = [&](const graph::Schedule& s) {
            const double makespan = s.makespan_s();
            return makespan < lb ? fmt("makespan %.3g below bound %.3g", makespan, lb)
                                 : std::string();
        };
        expect("critical-path bound", lb_only(plan), lb_only(fast));
    }
    return lines;
}

}  // namespace perfbench
