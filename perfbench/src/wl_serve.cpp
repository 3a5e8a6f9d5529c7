// spine and overload: the serving tier (mw::serve::Server) on a modeled clock.
//
// Both workloads drive a Server whose injected clock is a ManualClock that
// the benchmark sets to each arrival's due time before submitting it, so
// queueing, gathering and the device timelines all run in modeled time. One
// client thread submits, moves the clock and collects results; the server's
// workers take the other cores. The clock stands still while the server has
// host work to do at the current modeled time (a request queued, a batch
// booked whose kernels are still running), so host compute never ages a
// request in modeled time (details at the client loop).
//
//   spine     lock-free hot path (kRejectNewest, ticket API), `simple` at one
//             sample per request, mixed policies, at 4% of the fleet's
//             capacity for full batches: host time goes to admission, the
//             sharded queue, gathering, the snapshot decide and publishing.
//   overload  legacy mutexed path (kDeadlineShed, future API), `mnist-small`
//             at two samples per request, a latency SLO per policy, arrivals
//             at twice the fleet's summed modeled capacity: admission,
//             shedding and modeled queueing decide the outcome.
#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <tuple>

#include "arrivals.hpp"
#include "common/timer.hpp"
#include "reference.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mw;

namespace {

struct ServeSpec {
    const char* model;
    std::size_t samples;                ///< rows per request
    bool tickets;                       ///< ticket API on the hot path, else futures
    serve::BackpressurePolicy backpressure;
    double load;                        ///< arrival rate / fleet's summed modeled capacity
    std::array<double, 3> slo_s;        ///< per policy lane
    std::size_t round_requests;
    /// Rounds whose modeled outcomes make up the end-to-end figures; later
    /// rounds add host time only, so memory stays bounded however fast the
    /// host is.
    std::size_t modeled_rounds;
    std::size_t check_every;            ///< reference-check every n-th completed request
    bool check_capacity;
};

constexpr std::size_t kMaxBatchRequests = 16;
constexpr double kMaxWaitS = 0.0005;  ///< modeled gather window
/// Requests in flight, in full batches per worker.
constexpr std::size_t kCapBatches = 4;
/// A request's gather closes by its arrival plus the gather window; the
/// clock stops just past that until the request has finished.
constexpr double kGatherLimitS = kMaxWaitS * 1.001;
/// Each completed request adds kBatchUnits / (requests in its batch), so a
/// batch whose every request has finished adds exactly kBatchUnits
/// (720720 is divisible by every batch size up to kMaxBatchRequests).
constexpr std::uint64_t kBatchUnits = 720720;
static_assert([] {
    for (std::uint64_t b = 1; b <= kMaxBatchRequests; ++b) {
        if (kBatchUnits % b != 0) return false;
    }
    return true;
}());
/// A worker reads the clock for its gather deadline just after it pops the
/// leader, so a clock move in between can put that deadline slightly past
/// the limit. When the server is settled and nothing has moved for
/// kCreepAfterS host seconds (longer than a gather's sleep slice), the clock
/// creeps kCreepS further.
constexpr double kCreepAfterS = 0.002;
constexpr double kCreepS = kMaxWaitS / 20;
/// Host seconds the client waits on an unsettled server before it reports
/// the clock stalled (a batch booked but never finished) and moves on.
constexpr double kStallS = 5.0;
constexpr std::size_t kOutWidth = 10;  ///< widest zoo output
constexpr std::size_t kReplays = 2000;
/// Traced rounds time one request in this many (submit span, turnaround), so
/// the span log holds a whole window of a fast host.
constexpr std::size_t kSpanEvery = 16;

const ServeSpec kSpine{"simple", 1, true, serve::BackpressurePolicy::kRejectNewest, 0.04,
                       {0.001, 0.001, 0.001}, 5000, 8, 1, false};
const ServeSpec kOverload{"mnist-small", 2, false, serve::BackpressurePolicy::kDeadlineShed, 2.0,
                          {0.002, 0.001, 0.004}, 3000, 32, 29, true};

struct Request {
    double arrival = 0.0;
    sched::Policy policy = sched::Policy::kMaxThroughput;
    std::size_t first_row = 0;
};

/// One request's outcome.
struct Outcome {
    bool seen = false;
    serve::RequestStatus status = serve::RequestStatus::kFailed;
    std::size_t batch = 0;
    double queue_s = 0.0;
    double turnaround_s = -1.0;  ///< host seconds, for sampled requests of traced rounds
    Booking booking;
    std::array<float, kOutWidth> row{};
};

struct Slot {
    serve::Ticket ticket;
    std::future<serve::Response> future;
    std::size_t req = 0;
    double submit_host = 0.0;
};

/// What the rounds of one window add up to.
struct Window {
    std::size_t ops = 0;
    double host_s = 0.0;
    std::size_t rounds = 0;
    ModeledStats modeled;           ///< the spec's modeled rounds, pooled
    std::vector<Booking> bookings;  ///< distinct executed batches, modeled rounds
    std::vector<double> queue_s, turnaround_s;
    std::size_t shed = 0, rejected = 0;
    std::vector<std::tuple<std::size_t, sched::Policy, int>> batches;  ///< samples, policy, device
    std::uint64_t first_round_allocations = 0;
};

bool is_refusal(serve::RequestStatus s) {
    return s == serve::RequestStatus::kRejectedFull || s == serve::RequestStatus::kEvicted ||
           s == serve::RequestStatus::kShedDeadline;
}

RunResult run_serve(Testbed& tb, const Args& args, const ServeSpec& spec) {
    RunResult result;
    Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + (spec.tickets ? 3 : 5));
    const nn::Model& model = *tb.models.at(spec.model);
    const InputPool& pool = tb.inputs.at(spec.model);
    const auto names = tb.registry.names();
    const std::size_t n = spec.round_requests;
    const double capacity = tb.fleet_capacity_rps(spec.model, spec.samples, kMaxBatchRequests);
    const double duration = static_cast<double>(n) / (spec.load * capacity);
    // One client thread plus the workers: no more threads than cores.
    const std::size_t workers =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 3) - 1;
    const std::size_t cap = kCapBatches * workers * kMaxBatchRequests;
    const std::vector<device::Device*> devices = tb.registry.devices();
    SpanLog submit_log(1U << 21);

    const auto make_round = [&]() {
        std::vector<Request> reqs(n);
        const std::vector<double> arrivals = make_arrivals(rng, n, duration, {});
        for (std::size_t i = 0; i < n; ++i) {
            reqs[i].arrival = arrivals[i];
            reqs[i].policy = static_cast<sched::Policy>(rng.below(3));
            reqs[i].first_row = rng.below(pool.rows - spec.samples + 1);
        }
        return reqs;
    };

    std::vector<Outcome> outcomes(n);
    std::vector<Slot> slots(cap);
    std::vector<std::size_t> free_slots, busy_slots;
    const auto run_round = [&](const std::vector<Request>& reqs, SpanLog* trace, Window& w) {
        std::fill(outcomes.begin(), outcomes.end(), Outcome{});
        tb.reset_timelines(args.seed);
        ManualClock clock(0.0);
        serve::ServerConfig config;
        config.workers = workers;
        config.queue_capacity = 4 * cap;
        config.admission.policy = spec.backpressure;
        config.batching.max_requests = kMaxBatchRequests;
        config.batching.max_wait_s = kMaxWaitS;
        serve::Server server(*tb.scheduler, tb.dispatcher, clock, config);
        if (spec.tickets != server.hot_path_active()) {
            throw std::runtime_error("server did not pick the expected serving path");
        }
        const bool timed = trace != nullptr;
        // Batches the devices have booked this round, and the share of them
        // whose requests have all come back (in kBatchUnits).
        const auto booked = [&]() {
            std::uint64_t total = 0;
            for (const device::Device* d : devices) total += d->total_batches();
            return total;
        };
        const std::uint64_t booked0 = booked();
        std::uint64_t finished_units = 0;

        const auto record = [&](std::size_t i, serve::RequestStatus status, const std::string* dev,
                                const device::Measurement* m, double queue_s,
                                std::span<const float> outputs, std::size_t coalesced,
                                double turnaround) {
            Outcome& o = outcomes[i];
            o.seen = true;
            o.status = status;
            o.turnaround_s = turnaround;
            if (status != serve::RequestStatus::kCompleted) return;
            finished_units += kBatchUnits / coalesced;
            int device = -1;
            for (std::size_t d = 0; d < names.size(); ++d) {
                if (dev != nullptr && names[d] == *dev) device = static_cast<int>(d);
            }
            o.batch = m->batch;
            o.queue_s = queue_s;
            o.booking = {device, m->submit_time, m->start_time, m->end_time, m->energy_j};
            if (i % spec.check_every == 0) {
                std::copy_n(outputs.begin(), std::min(outputs.size(), kOutWidth), o.row.begin());
            }
        };
        serve::TicketResult res;
        // Collect every finished request; true when any finished.
        const auto collect = [&]() {
            bool progress = false;
            for (std::size_t j = 0; j < busy_slots.size();) {
                Slot& s = slots[busy_slots[j]];
                if (spec.tickets) {
                    if (!server.try_result(s.ticket, res)) {
                        ++j;
                        continue;
                    }
                    const double ta = s.submit_host >= 0.0 ? host_now() - s.submit_host : -1.0;
                    record(s.req, res.status, res.device_name, res.measurement, res.queue_s,
                           res.outputs, res.coalesced, ta);
                    server.release(s.ticket);
                } else {
                    if (s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                        ++j;
                        continue;
                    }
                    const double ta = s.submit_host >= 0.0 ? host_now() - s.submit_host : -1.0;
                    const serve::Response r = s.future.get();
                    record(s.req, r.status, &r.device_name, &r.measurement, r.queue_s,
                           r.outputs.span(), r.coalesced, ta);
                }
                free_slots.push_back(busy_slots[j]);
                busy_slots[j] = busy_slots.back();
                busy_slots.pop_back();
                progress = true;
            }
            return progress;
        };

        free_slots.clear();
        busy_slots.clear();
        for (std::size_t k = 0; k < cap; ++k) free_slots.push_back(k);
        const std::uint64_t allocs0 = allocations();
        const double t0 = host_now();
        serve::InferenceRequest request;
        request.model_name = spec.model;
        // The server is settled when nothing is queued and every batch the
        // devices booked has come back: its workers are idle or gathering,
        // and a gather waits only on the modeled clock. Only then does the
        // clock move, to the next arrival or to just past the gather window
        // of the oldest request in flight, whichever is first; it then stands
        // there until that request finishes (or creeps, see kCreepS). So
        // however long the host takes to run a batch's kernels, no request
        // waits longer in modeled time than it would on an infinitely fast
        // host. (A gather that closes early, because another request was
        // queued, is dispatched a moment later; if the client moves the clock
        // in that moment, the batch dispatches at most one gather window
        // late.)
        std::size_t oldest = 0;
        double last_progress = host_now();
        bool stall_reported = false;
        const auto settled = [&]() {
            if (collect()) last_progress = host_now();
            if (server.queue_depth() == 0 &&
                (booked() - booked0) * kBatchUnits == finished_units) {
                return true;
            }
            if (host_now() - last_progress < kStallS) return false;
            if (!stall_reported) result.fail_check("modeled clock stalled on an unfinished batch");
            stall_reported = true;
            last_progress = host_now();
            return true;
        };
        // Move the clock toward `next_arrival` if the server is settled; true
        // once it stands at `next_arrival`.
        const auto step_clock = [&](std::size_t submitted, double next_arrival) {
            if (!settled()) return false;
            while (oldest < submitted && outcomes[oldest].seen) ++oldest;
            const double limit =
                oldest < submitted ? reqs[oldest].arrival + kGatherLimitS : next_arrival;
            const double target = std::min(next_arrival, limit);
            if (target > clock.now()) {
                clock.set(target);
                last_progress = host_now();
            } else if (target < next_arrival && host_now() - last_progress > kCreepAfterS) {
                clock.set(std::min(clock.now() + kCreepS, next_arrival));
                last_progress = host_now();
            }
            return next_arrival <= clock.now();
        };
        for (std::size_t i = 0; i < n; ++i) {
            const Request& r = reqs[i];
            while (!step_clock(i, r.arrival) || free_slots.empty()) std::this_thread::yield();
            const double slo = spec.slo_s[static_cast<std::size_t>(r.policy)];
            const std::span<const float> payload{pool.row(r.first_row), spec.samples * pool.elems};
            Slot& slot = slots[free_slots.back()];
            slot.req = i;
            // A traced round times every kSpanEvery-th request; the submit
            // span's start doubles as the turnaround's start.
            const bool sampled = timed && i % kSpanEvery == 0;
            slot.submit_host = sampled ? host_now() : -1.0;
            const auto end_submit = [&]() {
                if (sampled) trace->record(SpanName::kSubmit, slot.submit_host, host_now(), 0);
            };
            if (spec.tickets) {
                const serve::Server::SubmitOutcome o =
                    server.submit_ticket(spec.model, payload, spec.samples, r.policy, slo);
                end_submit();
                if (!o.admitted) {
                    record(i, o.status, nullptr, nullptr, 0.0, {}, 1, -1.0);
                    continue;
                }
                slot.ticket = o.ticket;
            } else {
                request.payload = Tensor(Shape{spec.samples, pool.elems});
                std::memcpy(request.payload.data(), payload.data(), payload.size_bytes());
                request.policy = r.policy;
                request.slo_s = slo;
                if (sampled) slot.submit_host = host_now();
                slot.future = server.submit(request);
                end_submit();
            }
            busy_slots.push_back(free_slots.back());
            free_slots.pop_back();
        }
        // Let the last gathers close: their windows end only on the modeled clock.
        while (!busy_slots.empty()) {
            step_clock(n, 1e300);
            std::this_thread::yield();
        }
        w.host_s += host_now() - t0;
        if (w.rounds == 0) w.first_round_allocations = allocations() - allocs0;
        server.stop();
        const serve::PolicyCounters totals = server.stats().totals();

        // --- accounting, timelines, reference outputs ---
        const bool modeled = w.rounds < spec.modeled_rounds;
        std::size_t within_slo = 0;
        std::size_t completed = 0, refused = 0, failed = 0, lost = 0;
        std::set<std::pair<int, double>> seen_batches;
        std::vector<Booking> round_bookings;
        for (std::size_t i = 0; i < n; ++i) {
            const Outcome& o = outcomes[i];
            if (!o.seen) {
                ++lost;
                continue;
            }
            if (is_refusal(o.status)) {
                ++refused;
                w.shed += o.status == serve::RequestStatus::kShedDeadline ? 1 : 0;
                w.rejected += o.status == serve::RequestStatus::kRejectedFull ? 1 : 0;
                continue;
            }
            if (o.status != serve::RequestStatus::kCompleted) {
                ++failed;
                continue;
            }
            ++completed;
            if (const std::string e = check_end_after_arrival(reqs[i].arrival, o.booking.end);
                !e.empty()) {
                result.fail_check(e);
            }
            const bool new_batch =
                seen_batches.insert({o.booking.device, o.booking.start}).second;
            if (new_batch) round_bookings.push_back(o.booking);
            if (i % spec.check_every == 0) {
                const auto ref = reference_forward(model, {pool.row(reqs[i].first_row), pool.elems});
                const std::string e = compare_outputs({o.row.data(), ref.size()}, ref);
                if (!e.empty()) result.fail_check(std::string(spec.model) + ": " + e);
            }
            if (!modeled) continue;
            const double latency = o.booking.end - reqs[i].arrival;
            w.modeled.latencies_s.push_back(latency);
            within_slo +=
                latency <= spec.slo_s[static_cast<std::size_t>(reqs[i].policy)] ? 1 : 0;
            w.queue_s.push_back(o.queue_s);
            if (o.turnaround_s >= 0.0) w.turnaround_s.push_back(o.turnaround_s);
            if (new_batch) {
                w.modeled.energy_j += o.booking.energy_j;
                if (w.batches.size() < kReplays) {
                    w.batches.emplace_back(o.batch, reqs[i].policy, o.booking.device);
                }
            }
        }
        if (const std::string e = check_timelines(round_bookings); !e.empty()) result.fail_check(e);
        result.failed += failed + lost;
        if (lost > 0) result.fail_check(std::to_string(lost) + " requests lost from the accounting");
        if (const std::string e = check_accounting(n, completed, refused, failed + lost);
            !e.empty()) {
            result.fail_check(e);
        }
        if (totals.submitted != n || totals.completed != completed || totals.failed != failed ||
            totals.rejected_full + totals.shed + totals.evicted != refused) {
            result.fail_check("server stats disagree with the requests' own outcomes");
        }
        if (modeled) {
            w.modeled.completed += completed;
            w.modeled.duration_s += duration;
            w.modeled.within_slo += within_slo;
            w.bookings.insert(w.bookings.end(), round_bookings.begin(), round_bookings.end());
            if (spec.check_capacity) {
                const double goodput = static_cast<double>(within_slo) / duration;
                if (const std::string e = check_capacity(goodput, capacity); !e.empty()) {
                    result.fail_check(e);
                }
            }
        }
        w.ops += n;
        ++w.rounds;
    };

    // A traced run alternates untraced and traced rounds, so a change in the
    // host's speed during the run reaches both sides alike.
    Window untraced, traced;
    const auto full = [&](const Window& w) { return w.rounds >= spec.modeled_rounds; };
    while (!full(untraced) || (args.trace && !full(traced)) ||
           untraced.host_s + traced.host_s < args.seconds) {
        run_round(make_round(), nullptr, untraced);
        if (args.trace) run_round(make_round(), &submit_log, traced);
    }
    result.attempted = untraced.ops + traced.ops;
    const double untraced_rps = static_cast<double>(untraced.ops) / untraced.host_s;
    // The modeled figures pool the requests of the first modeled rounds.
    const std::size_t completed = untraced.modeled.completed;
    add_end_to_end(result, figures_of(std::move(untraced.modeled)), completed, untraced_rps);
    if (!args.trace) return result;

    LayerValues values;
    const auto submit = submit_log.summarize()[static_cast<std::size_t>(SpanName::kSubmit)];
    values["serve.submit_us_p50"] = submit.p50_us;
    values["serve.submit_us_p99"] = submit.p99_us;
    values["serve.turnaround_us_p50"] = percentile(traced.turnaround_s, 50.0) * 1e6;
    values["serve.turnaround_us_p99"] = percentile(traced.turnaround_s, 99.0) * 1e6;
    values["serve.batch_size_mean"] = static_cast<double>(traced.modeled.completed) /
                                      static_cast<double>(traced.bookings.size());
    values["serve.queue_ms_p50"] = percentile(traced.queue_s, 50.0) * 1e3;
    values["serve.queue_ms_p99"] = percentile(traced.queue_s, 99.0) * 1e3;
    const double per_round = 1.0 / static_cast<double>(traced.rounds);
    values["serve.completed"] =
        static_cast<double>(traced.modeled.completed) / static_cast<double>(spec.modeled_rounds);
    values["serve.shed"] = static_cast<double>(traced.shed) * per_round;
    values["serve.rejected"] = static_cast<double>(traced.rejected) * per_round;
    report_devices(values, tb, traced.bookings, traced.modeled.duration_s,
                   traced.modeled.completed);
    std::vector<int> decided;
    for (const auto& b : traced.batches) decided.push_back(std::get<2>(b));
    report_shares(values, tb, decided);
    values["alloc.per_request"] =
        static_cast<double>(untraced.first_round_allocations) / static_cast<double>(n);

    // Replays: the server makes these calls on its workers, out of the
    // benchmark's reach, so the same calls with the same inputs are timed
    // here, after the window, against a fresh snapshot of the scheduler.
    const auto snapshot = tb.scheduler->build_snapshot(0.0);
    std::vector<double> scratch(snapshot->scratch_size());
    std::vector<double> decide_s, price_s;
    std::size_t match = 0;
    NnStats nn_stats;
    constexpr double kForwardBudgetS = 0.5;
    for (std::size_t i = 0; i < traced.batches.size(); ++i) {
        const auto& [batch, policy, dev] = traced.batches[i];
        std::string device_name;
        double t0 = host_now();
        if (spec.tickets) {
            const auto d = snapshot->decide(spec.model, policy, batch, scratch);
            decide_s.push_back(host_now() - t0);
            device_name = d.device->name();
        } else {
            const auto d = tb.scheduler->decide({spec.model, batch, policy}, 0.0);
            decide_s.push_back(host_now() - t0);
            device_name = d.device_name;
        }
        match += tb.oracle_device(spec.model, batch, snapshot->gpu_warm, policy) == device_name;
        device::Device& device = tb.registry.at(device_name);
        t0 = host_now();
        (void)device.profile(spec.model, batch, 0.0);
        price_s.push_back(host_now() - t0);
        if (nn_stats.seconds < kForwardBudgetS) {
            Tensor input(model.input_shape(batch));
            pool.fill(input, i, batch);
            (void)layered_forward(model, input, nullptr, nn_stats);
        }
    }
    values["sched.decide_us_p50"] = percentile(decide_s, 50.0) * 1e6;
    values["sched.decide_us_p99"] = percentile(decide_s, 99.0) * 1e6;
    values["sched.oracle_match"] =
        traced.batches.empty()
            ? 0.0
            : static_cast<double>(match) / static_cast<double>(traced.batches.size());
    values["device.price_us_p50"] = percentile(price_s, 50.0) * 1e6;
    nn_stats.report(values);

    report_trace(result, values, {&submit_log}, untraced_rps,
                 static_cast<double>(traced.ops) / traced.host_s, traced.ops, false);
    result.per_layer = std::move(values);
    return result;
}

}  // namespace

RunResult run_spine(Testbed& tb, const Args& args) { return run_serve(tb, args, kSpine); }
RunResult run_overload(Testbed& tb, const Args& args) { return run_serve(tb, args, kOverload); }

}  // namespace perfbench
