// dag: a single-threaded stream of operator-DAG requests. Half are the zoo
// models lowered at a few batch sizes; they recur and hit the plan cache.
// The rest are fresh seeded random_dag graphs from a memory-bound and a
// compute-bound family; they miss it. Each request is planned by
// OnlineScheduler::plan_graph, checked by graph::verify_schedule, booked by
// Dispatcher::run_schedule and checked again. The planner and the verifier do
// the work; the nn kernels and the serve spine do none.
//
// Every round takes a freshly trained scheduler (an empty plan cache) and a
// fresh set of random graphs; modeled figures come from the first eight
// rounds, which depend on the seed alone.
#include <set>

#include "arrivals.hpp"
#include "graph/lowering.hpp"
#include "graph/planner.hpp"
#include "graph/synth.hpp"
#include "graph/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mw;

namespace {

constexpr std::size_t kLoweredBatches[] = {1, 16, 128};
constexpr std::size_t kRoundRequests = 3000;
/// Distinct seeded rounds whose outcomes make up the modeled figures.
constexpr std::size_t kModeledRounds = 8;
/// Shares of the round: lowered (recurring), memory-bound, compute-bound.
constexpr double kLoweredShare = 0.5;
constexpr double kMemoryShare = 0.25;
constexpr double kSloFactor = 4.0;
/// Offered work (isolated makespans) as a share of the round's modeled time.
constexpr double kLoad = 0.4;
constexpr sched::Policy kPolicies[] = {sched::Policy::kMaxThroughput, sched::Policy::kMinLatency,
                                       sched::Policy::kMinEnergy};

const graph::SynthConfig kMemoryBound{.stages = 6, .branches = 3, .tensor_mb = 6.0,
                                      .flops_per_byte = 0.5};
const graph::SynthConfig kComputeBound{.stages = 8, .branches = 2, .tensor_mb = 0.25,
                                       .flops_per_byte = 300.0};

struct Request {
    const graph::Graph* graph = nullptr;
    sched::Policy policy = sched::Policy::kMaxThroughput;
    double lower_bound = 0.0;
};

/// Megabytes crossing step boundaries of one schedule: graph inputs, cut
/// tensors loaded and stored, graph outputs.
double spill_mb(const graph::Graph& g, const graph::Schedule& s) {
    const auto consumers = g.consumers();
    double bytes = 0.0;
    for (const graph::Step& step : s.steps) {
        const std::set<graph::NodeId> members(step.nodes.begin(), step.nodes.end());
        std::set<graph::NodeId> loaded;
        for (const graph::NodeId v : step.nodes) {
            bytes += g.node(v).external_in_bytes;
            for (const graph::NodeId u : g.node(v).inputs) {
                if (members.count(u) == 0 && loaded.insert(u).second) bytes += g.node(u).out_bytes;
            }
            bool leaves = consumers[v].empty();
            for (const graph::NodeId w : consumers[v]) leaves = leaves || members.count(w) == 0;
            if (leaves) bytes += g.node(v).out_bytes;
        }
    }
    return bytes / 1e6;
}

}  // namespace

RunResult run_dag(Testbed& tb, const Args& args) {
    RunResult result;
    std::vector<device::DeviceParams> params;
    for (const device::Device* dev : tb.registry.devices()) params.push_back(dev->params());

    std::vector<graph::Graph> lowered;
    for (const std::string& model : tb.model_names) {
        for (const std::size_t b : kLoweredBatches) {
            lowered.push_back(graph::lower(*tb.models.at(model), b).graph);
        }
    }
    std::vector<double> lowered_lb;
    for (const graph::Graph& g : lowered) lowered_lb.push_back(critical_path_lower_bound(g, params));

    // A round: recurring lowered graphs and fresh random graphs, shuffled.
    // The modeled rounds also get their pace and SLOs: each graph is planned
    // once, alone, on idle devices by a separate planner. Later rounds reuse
    // the arrival times of a modeled round with new random graphs.
    struct Round {
        std::vector<graph::Graph> fresh;  ///< requests point into it
        std::vector<Request> reqs;
        std::vector<double> arrivals, slo;
        double duration = 0.0;
    };
    std::vector<graph::PlannerDevice> idle;
    for (const auto& p : params) idle.push_back({p, 0.0, 1.0});
    const auto make_round = [&](std::uint64_t index, Round& round) {
        Rng rng(args.seed * 0xD1B54A32D192ED03ULL + index * 7919 + 1);
        round.fresh.clear();
        round.fresh.reserve(kRoundRequests);
        round.reqs.assign(kRoundRequests, Request{});
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
            const double u = static_cast<double>(i) / kRoundRequests;
            Request& r = round.reqs[i];
            if (u < kLoweredShare) {
                const std::size_t k = rng.below(lowered.size());
                r.graph = &lowered[k];
                r.lower_bound = lowered_lb[k];
            } else {
                round.fresh.push_back(graph::random_dag(
                    rng, u < kLoweredShare + kMemoryShare ? kMemoryBound : kComputeBound));
                r.graph = &round.fresh.back();
                r.lower_bound = critical_path_lower_bound(round.fresh.back(), params);
            }
            r.policy = kPolicies[i % 3];
        }
        for (std::size_t i = kRoundRequests; i > 1; --i) {
            std::swap(round.reqs[i - 1], round.reqs[rng.below(i)]);
        }
        if (index >= kModeledRounds) return;
        round.slo.resize(kRoundRequests);
        double offered = 0.0;
        graph::GraphPlanner planner;
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
            const graph::Objective objective = round.reqs[i].policy == sched::Policy::kMinEnergy
                                                   ? graph::Objective::kEnergy
                                                   : graph::Objective::kMakespan;
            const double alone =
                planner.plan_cached(*round.reqs[i].graph, idle, objective, nullptr)->makespan_s();
            round.slo[i] = kSloFactor * alone;
            offered += alone;
        }
        round.duration = offered / kLoad;
        round.arrivals = make_arrivals(rng, kRoundRequests, round.duration,
                                       {.diurnal_depth = 0.3});
    };
    std::vector<Round> modeled_rounds(kModeledRounds);
    for (std::size_t r = 0; r < kModeledRounds; ++r) make_round(r, modeled_rounds[r]);

    SpanLog log(1U << 21);
    std::vector<double> plan_miss_s, plan_hit_s;
    std::vector<graph::Schedule> executed(kRoundRequests);
    std::vector<Booking> bookings;
    std::uint64_t round_allocations = 0;

    const auto run_round = [&](const std::vector<Request>& reqs,
                               const std::vector<double>& arrivals, SpanLog* trace) {
        tb.reset_timelines(args.seed);
        const std::unique_ptr<sched::OnlineScheduler> scheduler = tb.make_scheduler();
        const std::uint64_t allocs0 = allocations();
        const double t0 = host_now();
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
            const ScopedSpan request_span(trace, SpanName::kRequest);
            const Request& r = reqs[i];
            const double now = arrivals[i];
            const std::size_t hits0 = trace != nullptr ? scheduler->graph_planner().cache_hits() : 0;
            graph::Schedule planned;
            {
                const ScopedSpan s(trace, SpanName::kPlan);
                planned = scheduler->plan_graph(*r.graph, r.policy, now);
            }
            if (trace != nullptr && trace->size() > 0) {
                const SpanRecord& span = trace->spans().back();
                (scheduler->graph_planner().cache_hits() > hits0 ? plan_hit_s : plan_miss_s)
                    .push_back(span.t1 - span.t0);
            }
            std::vector<graph::Violation> violations;
            {
                const ScopedSpan s(trace, SpanName::kVerify);
                violations = graph::verify_schedule(*r.graph, planned);
            }
            if (!violations.empty()) {
                result.fail_check("planned schedule rejected: " + violations.front().message);
            }
            {
                const ScopedSpan s(trace, SpanName::kBook);
                executed[i] = tb.dispatcher.run_schedule(*r.graph, planned, now);
            }
            {
                const ScopedSpan s(trace, SpanName::kVerify);
                violations = graph::verify_schedule(*r.graph, executed[i]);
            }
            if (!violations.empty()) {
                result.fail_check("executed schedule rejected: " + violations.front().message);
            }
        }
        const double host_s = host_now() - t0;
        round_allocations = allocations() - allocs0;

        // Checks, outside the timed loop.
        bookings.clear();
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
            const graph::Schedule& s = executed[i];
            if (const std::string e = check_schedule(*reqs[i].graph, s, arrivals[i],
                                                     reqs[i].lower_bound);
                !e.empty()) {
                result.fail_check(e);
            }
            for (const graph::Step& step : s.steps) {
                const int dev = device_index(tb, s.devices[step.device].name);
                bookings.push_back({dev, arrivals[i], step.start_s, step.end_s(), step.energy_j});
            }
        }
        std::vector<Booking> sorted = bookings;
        if (const std::string e = check_timelines(sorted); !e.empty()) result.fail_check(e);
        return host_s;
    };

    // The modeled rounds first, then fresh rounds until the window is full.
    ModeledStats modeled;
    double host_s = 0.0, groups = 0.0, spill = 0.0;
    std::uint64_t first_allocations = 0;
    std::vector<Booking> modeled_bookings;
    // Host seconds and requests of the untraced and of the traced rounds.
    std::array<double, 2> window_s{};
    std::array<std::size_t, 2> window_ops{};
    const auto timed_round = [&](const Round& round, SpanLog* trace) {
        const double round_s = run_round(round.reqs, round.arrivals, trace);
        window_s[trace != nullptr ? 1 : 0] += round_s;
        window_ops[trace != nullptr ? 1 : 0] += kRoundRequests;
        host_s += round_s;
    };
    for (std::size_t r = 0; r < kModeledRounds; ++r) {
        const Round& round = modeled_rounds[r];
        timed_round(round, nullptr);
        if (r == 0) first_allocations = round_allocations;
        modeled.duration_s += round.duration;
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
            const double latency = executed[i].makespan_s() - round.arrivals[i];
            modeled.latencies_s.push_back(latency);
            modeled.within_slo += latency <= round.slo[i] ? 1 : 0;
            modeled.energy_j += executed[i].total_energy_j();
            groups += static_cast<double>(executed[i].steps.size());
            spill += spill_mb(*round.reqs[i].graph, executed[i]);
        }
        modeled_bookings.insert(modeled_bookings.end(), bookings.begin(), bookings.end());
    }
    modeled.completed = kModeledRounds * kRoundRequests;

    // Then fresh rounds until the window is full; a traced run alternates
    // traced and untraced rounds, so a change in the host's speed during the
    // run reaches both sides alike.
    std::uint64_t index = kModeledRounds;
    Round round;
    while (host_s < args.seconds || (args.trace && window_ops[1] == 0)) {
        make_round(index, round);
        round.arrivals = modeled_rounds[index % kModeledRounds].arrivals;
        const bool traced = args.trace && (index - kModeledRounds) % 2 == 0;
        timed_round(round, traced ? &log : nullptr);
        ++index;
    }
    result.attempted = index * kRoundRequests;
    const std::size_t traced_ops = window_ops[1];
    const double untraced_rps = static_cast<double>(window_ops[0]) / window_s[0];
    add_end_to_end(result, figures_of(modeled), modeled.completed, untraced_rps);
    if (!args.trace) return result;

    LayerValues values;
    const auto layers = log.summarize();
    values["graph.plan_us_miss"] = percentile(plan_miss_s, 50.0) * 1e6;
    values["graph.plan_us_hit"] = percentile(plan_hit_s, 50.0) * 1e6;
    values["graph.cache_hit_share"] =
        static_cast<double>(plan_hit_s.size()) /
        static_cast<double>(plan_hit_s.size() + plan_miss_s.size());
    values["graph.verify_us"] = layers[static_cast<std::size_t>(SpanName::kVerify)].p50_us;
    values["graph.book_us"] = layers[static_cast<std::size_t>(SpanName::kBook)].p50_us;
    values["graph.groups_mean"] = groups / static_cast<double>(modeled.completed);
    values["graph.spill_mb"] = spill / static_cast<double>(modeled.completed);
    report_devices(values, tb, modeled_bookings, modeled.duration_s, modeled.completed);
    values["alloc.per_request"] =
        static_cast<double>(first_allocations) / static_cast<double>(kRoundRequests);
    report_trace(result, values, {&log}, untraced_rps,
                 static_cast<double>(traced_ops) / window_s[1], traced_ops, true);
    result.per_layer = std::move(values);
    return result;
}

}  // namespace perfbench
