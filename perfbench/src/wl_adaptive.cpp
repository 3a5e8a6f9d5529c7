// adaptive: the paper's own experiment. A single-threaded, open-loop trace in
// modeled time: the five zoo models at sample counts spanning the DESIGN.md
// §4 crossovers, the three policies in equal shares, diurnal-plus-burst
// arrivals below the fleet's modeled capacity. Every request goes through
// OnlineScheduler::decide and Dispatcher::run_on with real outputs.
//
// A round is a fixed multiset of requests, shuffled and timed by the seed;
// the run cycles through five such rounds, each on a reset device timeline.
// Modeled figures come from the first pass over the five and every later
// pass must reproduce them exactly. Host figures cover every round.
#include <cstring>

#include "arrivals.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mw;

namespace {

struct RequestClass {
    const char* model;
    std::size_t samples;
    std::size_t per_policy;  ///< requests of this class per policy per round
};

// Sample counts straddle the calibrated crossovers (DESIGN.md §4): Simple at
// 2048, Mnist-Small at 4 and 32, Mnist-Deep at 8, Mnist-CNN at 32, Cifar-10
// at 8. The serial host kernels take milliseconds per sample on the larger
// models, so their requests are few and small, and the request count comes
// from the cheap models; a round stays a few host seconds.
constexpr RequestClass kMix[] = {
    {"simple", 8, 200},       {"simple", 512, 100},    {"simple", 2048, 50},
    {"simple", 8192, 20},     {"mnist-small", 2, 40},  {"mnist-small", 8, 10},
    {"mnist-small", 40, 2},   {"mnist-deep", 2, 1},    {"mnist-deep", 10, 1},
    {"mnist-cnn", 8, 1},      {"mnist-cnn", 40, 1},    {"cifar-10", 2, 1},
    {"cifar-10", 9, 1},
};
constexpr sched::Policy kPolicies[] = {sched::Policy::kMaxThroughput, sched::Policy::kMinLatency,
                                       sched::Policy::kMinEnergy};

/// SLO = this many times the class's best isolated modeled latency...
constexpr double kSloFactor = 4.0;
/// ...but never below this.
constexpr double kMinSloS = 0.002;
/// Offered work as a share of one device's time over the round: the fleet
/// runs well below capacity outside bursts, and the modeled tail is set by
/// the requests' own work more than by which of them happen to collide.
constexpr double kLoad = 0.08;
/// Every this many requests, one output row is checked against the reference.
constexpr std::size_t kCheckEvery = 53;
/// Distinct seeded schedules whose first runs make up the modeled figures.
constexpr std::size_t kModeledRounds = 5;

struct Request {
    std::size_t cls = 0;
    sched::Policy policy = sched::Policy::kMaxThroughput;
    double arrival = 0.0;
    double slo = 0.0;
    std::size_t first_row = 0;
};

/// What one round produced, per request in schedule order.
struct RoundOut {
    std::vector<int> device;
    std::vector<char> warm;
    std::vector<Booking> bookings;
    std::vector<float> checked;  ///< one output row per checked request
    std::uint64_t allocations = 0;
    double host_s = 0.0;

    void reset(std::size_t n, std::size_t checked_floats) {
        device.assign(n, -1);
        warm.assign(n, 0);
        bookings.assign(n, Booking{});
        checked.assign(checked_floats, 0.0F);
    }
};

}  // namespace

RunResult run_adaptive(Testbed& tb, const Args& args) {
    RunResult result;

    // --- the rounds: the same multiset each time, order and timing by seed ---
    std::vector<Request> base;
    double offered_s = 0.0;
    for (std::size_t c = 0; c < std::size(kMix); ++c) {
        const double best = tb.best_isolated_latency_s(kMix[c].model, kMix[c].samples);
        for (const sched::Policy policy : kPolicies) {
            for (std::size_t k = 0; k < kMix[c].per_policy; ++k) {
                base.push_back({c, policy, 0.0, std::max(kMinSloS, kSloFactor * best), 0});
                offered_s += best;
            }
        }
    }
    const std::size_t n = base.size();
    const double duration = offered_s / kLoad;
    std::vector<std::vector<Request>> rounds;
    for (std::size_t r = 0; r < kModeledRounds; ++r) {
        Rng rng(args.seed * 0x2545F4914F6CDD1DULL + 17 + r);
        std::vector<Request> reqs = base;
        for (std::size_t i = n; i > 1; --i) std::swap(reqs[i - 1], reqs[rng.below(i)]);
        const std::vector<double> arrivals = make_arrivals(
            rng, n, duration,
            {.diurnal_depth = 0.5, .diurnal_cycles = 2.0, .bursts = 4, .burst_share = 0.02,
             .burst_gain = 4.0});
        for (std::size_t i = 0; i < n; ++i) {
            reqs[i].arrival = arrivals[i];
            reqs[i].first_row = rng.below(tb.inputs.at(kMix[reqs[i].cls].model).rows);
        }
        rounds.push_back(std::move(reqs));
    }
    const auto names = tb.registry.names();
    const auto index_of = [&names](const std::string& name) {
        for (std::size_t d = 0; d < names.size(); ++d) {
            if (names[d] == name) return static_cast<int>(d);
        }
        return -1;
    };
    constexpr std::size_t kRowFloats = 16;  // widest zoo output is 10
    const std::size_t checks = (n + kCheckEvery - 1) / kCheckEvery;

    SpanLog log(1U << 21);
    NnStats nn_stats;
    RoundOut out;
    const auto run_round = [&](const std::vector<Request>& reqs, SpanLog* trace) {
        out.reset(n, checks * kRowFloats);
        tb.reset_timelines(args.seed);
        const std::uint64_t allocs0 = allocations();
        const double t0 = host_now();
        for (std::size_t i = 0; i < n; ++i) {
            const ScopedSpan request_span(trace, SpanName::kRequest);
            const Request& r = reqs[i];
            const RequestClass& c = kMix[r.cls];
            sched::ScheduleDecision decision;
            {
                const ScopedSpan s(trace, SpanName::kDecide);
                decision = tb.scheduler->decide({c.model, c.samples, r.policy}, r.arrival);
            }
            const nn::Model& model = *tb.models.at(c.model);
            Tensor input(model.input_shape(c.samples));
            tb.inputs.at(c.model).fill(input, r.first_row, c.samples);
            device::Measurement m;
            Tensor outputs;
            if (trace != nullptr) {
                {
                    const ScopedSpan s(trace, SpanName::kPrice);
                    m = tb.registry.at(decision.device_name).profile(c.model, c.samples, r.arrival);
                }
                outputs = layered_forward(model, input, trace, nn_stats);
            } else {
                device::InferenceResult res =
                    tb.dispatcher.run_on(decision.device_name, c.model, input, r.arrival);
                m = std::move(res.measurement);
                outputs = std::move(res.outputs);
            }
            const int dev = index_of(decision.device_name);
            out.device[i] = dev;
            out.warm[i] = decision.gpu_was_warm ? 1 : 0;
            out.bookings[i] = {dev, m.submit_time, m.start_time, m.end_time, m.energy_j};
            if (i % kCheckEvery == 0) {
                const std::size_t width = outputs.numel() / c.samples;
                const std::size_t row = i % c.samples;
                std::memcpy(out.checked.data() + (i / kCheckEvery) * kRowFloats,
                            outputs.data() + row * width, width * sizeof(float));
            }
        }
        out.host_s = host_now() - t0;
        out.allocations = allocations() - allocs0;
    };

    // Checks on a finished round; returns its modeled signature.
    const auto check_round = [&](const std::vector<Request>& reqs, bool with_reference) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::string e = check_end_after_arrival(reqs[i].arrival, out.bookings[i].end);
            if (!e.empty()) result.fail_check(e);
        }
        std::vector<Booking> bookings = out.bookings;
        if (const std::string e = check_timelines(bookings); !e.empty()) result.fail_check(e);
        if (with_reference) {
            for (std::size_t i = 0; i < n; i += kCheckEvery) {
                const RequestClass& c = kMix[reqs[i].cls];
                const nn::Model& model = *tb.models.at(c.model);
                const InputPool& pool = tb.inputs.at(c.model);
                const std::size_t row = i % c.samples;
                const auto ref =
                    reference_forward(model, {pool.row(reqs[i].first_row + row), pool.elems});
                const std::string e = compare_outputs(
                    {out.checked.data() + (i / kCheckEvery) * kRowFloats, ref.size()}, ref);
                if (!e.empty()) result.fail_check(std::string(c.model) + ": " + e);
            }
        }
        double signature = 0.0;
        for (const Booking& b : out.bookings) signature += b.end * 1e3 + b.energy_j + b.device;
        return signature;
    };

    // Rounds cycle through the seeded schedules; the first pass over them
    // gives the modeled figures and every later pass must reproduce them. A
    // traced run then alternates traced and untraced rounds, so a change in
    // the host's speed during the run reaches both sides alike.
    std::vector<RoundOut> modeled_rounds;
    std::vector<double> signatures;
    // Host seconds and requests of the untraced and of the traced rounds.
    std::array<double, 2> window_s{};
    std::array<std::size_t, 2> window_ops{};
    std::size_t executed = 0;
    double host_s = 0.0;
    while (executed < kModeledRounds || host_s < args.seconds ||
           (args.trace && window_ops[1] == 0)) {
        const std::size_t r = executed % kModeledRounds;
        const bool first_pass = executed < kModeledRounds;
        const bool traced = args.trace && !first_pass && (executed - kModeledRounds) % 2 == 0;
        run_round(rounds[r], traced ? &log : nullptr);
        const double signature =
            check_round(rounds[r], first_pass || (traced && window_ops[1] == 0));
        if (first_pass) {
            signatures.push_back(signature);
            modeled_rounds.push_back(out);
        } else if (signature != signatures[r]) {
            result.fail_check("a repeated round did not reproduce its modeled figures");
        }
        ++executed;
        host_s += out.host_s;
        window_s[traced ? 1 : 0] += out.host_s;
        window_ops[traced ? 1 : 0] += n;
    }
    result.attempted = executed * n;
    const double untraced_rps = static_cast<double>(window_ops[0]) / window_s[0];
    const std::size_t traced_ops = window_ops[1];

    ModeledStats modeled;
    modeled.duration_s = duration * kModeledRounds;
    for (std::size_t r = 0; r < kModeledRounds; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            const double latency = modeled_rounds[r].bookings[i].end - rounds[r][i].arrival;
            modeled.latencies_s.push_back(latency);
            modeled.completed += 1;
            modeled.within_slo += latency <= rounds[r][i].slo ? 1 : 0;
            modeled.energy_j += modeled_rounds[r].bookings[i].energy_j;
        }
    }
    add_end_to_end(result, figures_of(modeled), modeled.completed, untraced_rps);
    if (!args.trace) return result;

    LayerValues values;
    const auto layers = log.summarize();
    const LayerSummary& decide = layers[static_cast<std::size_t>(SpanName::kDecide)];
    values["sched.decide_us_p50"] = decide.p50_us;
    values["sched.decide_us_p99"] = decide.p99_us;
    values["device.price_us_p50"] = layers[static_cast<std::size_t>(SpanName::kPrice)].p50_us;
    nn_stats.report(values);
    std::size_t match = 0;
    std::vector<int> devices;
    std::vector<Booking> bookings;
    for (std::size_t r = 0; r < kModeledRounds; ++r) {
        const RoundOut& o = modeled_rounds[r];
        for (std::size_t i = 0; i < n; ++i) {
            const RequestClass& c = kMix[rounds[r][i].cls];
            match += tb.oracle_device(c.model, c.samples, o.warm[i] != 0, rounds[r][i].policy) ==
                             names[static_cast<std::size_t>(o.device[i])]
                         ? 1
                         : 0;
        }
        devices.insert(devices.end(), o.device.begin(), o.device.end());
        bookings.insert(bookings.end(), o.bookings.begin(), o.bookings.end());
    }
    values["sched.oracle_match"] = static_cast<double>(match) / static_cast<double>(devices.size());
    report_shares(values, tb, devices);
    report_devices(values, tb, bookings, modeled.duration_s, modeled.completed);
    values["alloc.per_request"] =
        static_cast<double>(modeled_rounds.front().allocations) / static_cast<double>(n);
    report_trace(result, values, {&log}, untraced_rps,
                 static_cast<double>(traced_ops) / window_s[1], traced_ops, true);
    result.per_layer = std::move(values);
    return result;
}

}  // namespace perfbench
