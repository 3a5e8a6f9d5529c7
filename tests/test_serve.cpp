// mw::serve unit + integration suite: queue semantics, admission/backpressure
// policies, dynamic batching, SLO shedding, and the Server end-to-end (all
// deterministic via ManualClock except the concurrent-submitter test, which
// doubles as TSan coverage under the `tsan` preset).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/timer.hpp"
#include "common/units.hpp"
#include "ml/random_forest.hpp"
#include "nn/zoo.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

namespace {

using namespace mw;
using namespace mw::serve;

Request make_request(std::uint64_t id, const std::string& model, std::size_t samples,
                     sched::Policy policy = sched::Policy::kMaxThroughput,
                     double slo_s = 0.0, double arrival_s = 0.0) {
    Request r;
    r.id = id;
    r.model_name = model;
    r.samples = samples;
    r.policy = policy;
    r.payload = Tensor(Shape{samples, 4});
    r.slo_s = slo_s;
    r.arrival_s = arrival_s;
    return r;
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, BoundedPushAndFifoPop) {
    RequestQueue queue(2);
    Request a = make_request(1, "m", 1);
    Request b = make_request(2, "m", 1);
    Request c = make_request(3, "m", 1);
    EXPECT_TRUE(queue.try_push(a));
    EXPECT_TRUE(queue.try_push(b));
    EXPECT_FALSE(queue.try_push(c)) << "full queue must refuse";
    EXPECT_EQ(c.id, 3U) << "failed push leaves the request intact";
    EXPECT_EQ(queue.size(), 2U);

    EXPECT_EQ(queue.pop(0.0)->id, 1U);
    EXPECT_EQ(queue.pop(0.0)->id, 2U);
    EXPECT_FALSE(queue.pop(0.0).has_value());
}

TEST(RequestQueue, RoundRobinAcrossLanes) {
    RequestQueue queue(8);
    Request t1 = make_request(1, "m", 1, sched::Policy::kMaxThroughput);
    Request t2 = make_request(2, "m", 1, sched::Policy::kMaxThroughput);
    Request l1 = make_request(3, "m", 1, sched::Policy::kMinLatency);
    Request e1 = make_request(4, "m", 1, sched::Policy::kMinEnergy);
    ASSERT_TRUE(queue.try_push(t1) && queue.try_push(t2) && queue.try_push(l1) &&
                queue.try_push(e1));
    EXPECT_EQ(queue.lane_size(sched::Policy::kMaxThroughput), 2U);

    std::map<std::uint64_t, bool> seen;
    std::vector<sched::Policy> order;
    for (int i = 0; i < 4; ++i) {
        auto r = queue.pop(0.0);
        ASSERT_TRUE(r.has_value());
        seen[r->id] = true;
        order.push_back(r->policy);
    }
    EXPECT_EQ(seen.size(), 4U);
    // One lane must not be drained back-to-back while others hold requests:
    // the first three pops cover all three policies (round-robin fairness).
    EXPECT_NE(order[0], order[1]);
    EXPECT_NE(order[1], order[2]);
    EXPECT_NE(order[0], order[2]);
}

TEST(RequestQueue, PopMatchingCoalescesSameModelOnly) {
    RequestQueue queue(8);
    Request a = make_request(1, "alpha", 2);
    Request b = make_request(2, "beta", 2);
    Request c = make_request(3, "alpha", 2);
    Request d = make_request(4, "alpha", 100);
    ASSERT_TRUE(queue.try_push(a) && queue.try_push(b) && queue.try_push(c) &&
                queue.try_push(d));

    // Only "alpha" with sample budget 10: ids 1 and 3 fit, 4 (100 samples)
    // does not, 2 is another model.
    auto mates = queue.pop_matching("alpha", sched::Policy::kMaxThroughput, 10, 10);
    ASSERT_EQ(mates.size(), 2U);
    EXPECT_EQ(mates[0].id, 1U);
    EXPECT_EQ(mates[1].id, 3U);
    EXPECT_EQ(queue.size(), 2U);
}

TEST(RequestQueue, EvictOldestPicksGloballyOldest) {
    RequestQueue queue(8);
    Request a = make_request(1, "m", 1, sched::Policy::kMaxThroughput, 0.0, /*arrival=*/5.0);
    Request b = make_request(2, "m", 1, sched::Policy::kMinLatency, 0.0, /*arrival=*/1.0);
    ASSERT_TRUE(queue.try_push(a) && queue.try_push(b));
    auto victim = queue.evict_oldest();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->id, 2U) << "the earliest arrival across lanes is evicted";
}

TEST(RequestQueue, RemoveIfAndDrain) {
    RequestQueue queue(8);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        Request r = make_request(i, "m", 1);
        ASSERT_TRUE(queue.try_push(r));
    }
    auto even = queue.remove_if([](const Request& r) { return r.id % 2 == 0; });
    EXPECT_EQ(even.size(), 2U);
    EXPECT_EQ(queue.size(), 3U);
    auto rest = queue.drain();
    EXPECT_EQ(rest.size(), 3U);
    EXPECT_TRUE(queue.empty());
}

TEST(RequestQueue, EvictOldestReanchorsRoundRobinCursor) {
    RequestQueue queue(8);
    // Occupy all three lanes, then advance the round-robin cursor onto the
    // kMinLatency lane by popping once (kMaxThroughput goes first).
    Request t1 = make_request(1, "m", 1, sched::Policy::kMaxThroughput, 0.0, 2.0);
    Request l1 = make_request(2, "m", 1, sched::Policy::kMinLatency, 0.0, 1.0);
    Request e1 = make_request(3, "m", 1, sched::Policy::kMinEnergy, 0.0, 3.0);
    ASSERT_TRUE(queue.try_push(t1) && queue.try_push(l1) && queue.try_push(e1));
    ASSERT_EQ(queue.pop(0.0)->id, 1U);

    // Evicting the globally oldest (l1) empties the cursor's lane; the
    // cursor must re-anchor onto the next non-empty lane instead of keeping
    // the emptied lane's turn reserved.
    ASSERT_EQ(queue.evict_oldest()->id, 2U);
    Request l2 = make_request(4, "m", 1, sched::Policy::kMinLatency, 0.0, 4.0);
    ASSERT_TRUE(queue.try_push(l2));
    // Regression (pre-fix): the stale cursor handed the freshly-pushed l2
    // the next turn ahead of e1, which had been waiting longer.
    EXPECT_EQ(queue.pop(0.0)->id, 3U);
    EXPECT_EQ(queue.pop(0.0)->id, 4U);
}

TEST(RequestQueue, RemoveIfReanchorsRoundRobinCursor) {
    RequestQueue queue(8);
    Request t1 = make_request(1, "m", 1, sched::Policy::kMaxThroughput);
    Request l1 = make_request(2, "m", 1, sched::Policy::kMinLatency);
    Request e1 = make_request(3, "m", 1, sched::Policy::kMinEnergy);
    ASSERT_TRUE(queue.try_push(t1) && queue.try_push(l1) && queue.try_push(e1));
    ASSERT_EQ(queue.pop(0.0)->id, 1U);  // cursor now on the kMinLatency lane

    // Same audit as evict_oldest: remove_if that empties the cursor's lane
    // must re-anchor the cursor (deadline shedding uses this path).
    auto removed = queue.remove_if(
        [](const Request& r) { return r.policy == sched::Policy::kMinLatency; });
    ASSERT_EQ(removed.size(), 1U);
    Request l2 = make_request(4, "m", 1, sched::Policy::kMinLatency);
    ASSERT_TRUE(queue.try_push(l2));
    EXPECT_EQ(queue.pop(0.0)->id, 3U) << "the waiting lane goes before the refilled one";
    EXPECT_EQ(queue.pop(0.0)->id, 4U);
}

TEST(RequestQueue, CloseRefusesPushesButDrainsPops) {
    RequestQueue queue(4);
    Request a = make_request(1, "m", 1);
    ASSERT_TRUE(queue.try_push(a));
    queue.close();
    EXPECT_TRUE(queue.closed());
    Request b = make_request(2, "m", 1);
    EXPECT_FALSE(queue.try_push(b));
    EXPECT_EQ(queue.pop(0.0)->id, 1U) << "closed queues still drain";
    EXPECT_FALSE(queue.pop(5.0).has_value()) << "closed+empty returns immediately";
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramPercentileIsNaN) {
    // 0.0 looked like a real (excellent!) latency in every report; NaN is
    // unambiguous "no data", and the renderers print it as a dash.
    LatencyHistogram hist;
    EXPECT_TRUE(std::isnan(hist.percentile(50.0)));
    EXPECT_TRUE(std::isnan(hist.percentile(99.0)));
    EXPECT_EQ(format_duration(hist.percentile(50.0)), "-");
}

TEST(LatencyHistogram, PercentilesTrackLogBuckets) {
    LatencyHistogram hist;
    for (int i = 1; i <= 1000; ++i) hist.add(static_cast<double>(i) * 1e-3);
    EXPECT_EQ(hist.count(), 1000U);
    const double p50 = hist.percentile(50.0);
    const double p95 = hist.percentile(95.0);
    const double p99 = hist.percentile(99.0);
    // Exact values are 0.5 / 0.95 / 0.99 s; buckets are ~12% wide.
    EXPECT_NEAR(p50, 0.5, 0.5 * 0.15);
    EXPECT_NEAR(p95, 0.95, 0.95 * 0.15);
    EXPECT_NEAR(p99, 0.99, 0.99 * 0.15);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

struct AdmissionWorld {
    RequestQueue queue;
    ServerStats stats;
    AdmissionController admission;

    AdmissionWorld(BackpressurePolicy policy, std::size_t capacity,
                   double default_slo = 0.0)
        : queue(capacity),
          admission({.policy = policy, .default_slo_s = default_slo}, queue, stats) {}
};

TEST(Admission, RejectNewestRefusesIncoming) {
    AdmissionWorld world(BackpressurePolicy::kRejectNewest, 2);
    Request a = make_request(1, "m", 1);
    Request b = make_request(2, "m", 1);
    Request c = make_request(3, "m", 1);
    auto future_c = c.promise.get_future();
    EXPECT_TRUE(world.admission.admit(std::move(a), 0.0));
    EXPECT_TRUE(world.admission.admit(std::move(b), 0.0));
    EXPECT_FALSE(world.admission.admit(std::move(c), 0.0));
    EXPECT_EQ(future_c.get().status, RequestStatus::kRejectedFull);
    const auto t = world.stats.snapshot().totals();
    EXPECT_EQ(t.submitted, 3U);
    EXPECT_EQ(t.admitted, 2U);
    EXPECT_EQ(t.rejected_full, 1U);
}

TEST(Admission, RejectOldestEvictsAndAdmits) {
    AdmissionWorld world(BackpressurePolicy::kRejectOldest, 2);
    Request a = make_request(1, "m", 1);
    Request b = make_request(2, "m", 1);
    Request c = make_request(3, "m", 1);
    auto future_a = a.promise.get_future();
    EXPECT_TRUE(world.admission.admit(std::move(a), 0.0));
    EXPECT_TRUE(world.admission.admit(std::move(b), 1.0));
    EXPECT_TRUE(world.admission.admit(std::move(c), 2.0)) << "newcomer displaces oldest";
    EXPECT_EQ(future_a.get().status, RequestStatus::kEvicted);
    EXPECT_EQ(world.queue.size(), 2U);
    EXPECT_EQ(world.stats.snapshot().totals().evicted, 1U);
}

TEST(Admission, DeadlineShedDropsExpiredQueueEntries) {
    AdmissionWorld world(BackpressurePolicy::kDeadlineShed, 2);
    Request a = make_request(1, "m", 1, sched::Policy::kMaxThroughput, /*slo=*/1.0);
    Request b = make_request(2, "m", 1, sched::Policy::kMaxThroughput, /*slo=*/100.0);
    Request c = make_request(3, "m", 1);
    auto future_a = a.promise.get_future();
    EXPECT_TRUE(world.admission.admit(std::move(a), 0.0));
    EXPECT_TRUE(world.admission.admit(std::move(b), 0.0));
    // By t=2 request 1's 1 s SLO is blown; it is shed to make room.
    EXPECT_TRUE(world.admission.admit(std::move(c), 2.0));
    EXPECT_EQ(future_a.get().status, RequestStatus::kShedDeadline);
    EXPECT_EQ(world.queue.size(), 2U);
    EXPECT_EQ(world.stats.snapshot().totals().shed, 1U);
}

TEST(Admission, DeadlineShedUsesExecuteEstimator) {
    AdmissionWorld world(BackpressurePolicy::kDeadlineShed, 8);
    world.admission.observe_execute("slow-model", 5.0);
    EXPECT_GT(world.admission.estimated_execute_s("slow-model"), 4.0);

    // SLO 3 s < estimated 5 s execute: hopeless on arrival, shed immediately.
    Request r = make_request(1, "slow-model", 1, sched::Policy::kMinLatency, /*slo=*/3.0);
    auto future = r.promise.get_future();
    EXPECT_FALSE(world.admission.admit(std::move(r), 0.0));
    EXPECT_EQ(future.get().status, RequestStatus::kShedDeadline);

    // No SLO: never shed regardless of the estimator.
    Request relaxed = make_request(2, "slow-model", 1);
    EXPECT_TRUE(world.admission.admit(std::move(relaxed), 0.0));
}

TEST(Admission, ColdModelEstimateIsPriorNotZero) {
    AdmissionWorld world(BackpressurePolicy::kDeadlineShed, 8);
    EXPECT_GT(world.admission.estimated_execute_s("never-seen"), 0.0);
    EXPECT_NEAR(world.admission.estimated_execute_s("never-seen"),
                world.admission.config().cold_execute_prior_s, 1e-15);
}

TEST(Admission, DeadlineShedShedsColdModelOnArrival) {
    // Regression: estimated_execute_s() returned 0.0 for a model with no
    // observations, so kDeadlineShed admitted every cold-model request no
    // matter how tight its SLO — "hopeless on arrival" only worked after the
    // EWMA warmed up.
    AdmissionWorld world(BackpressurePolicy::kDeadlineShed, 8);
    Request r = make_request(1, "cold-model", 1, sched::Policy::kMinLatency,
                             /*slo=*/1e-4);  // below the 1e-3 default prior
    auto future = r.promise.get_future();
    EXPECT_FALSE(world.admission.admit(std::move(r), 0.0));
    EXPECT_EQ(future.get().status, RequestStatus::kShedDeadline);
    EXPECT_EQ(world.stats.snapshot().totals().shed, 1U);

    // A feasible SLO (above the prior) is still admitted.
    Request ok = make_request(2, "cold-model", 1, sched::Policy::kMinLatency,
                              /*slo=*/1.0);
    EXPECT_TRUE(world.admission.admit(std::move(ok), 0.0));
}

TEST(Admission, ColdPriorFnSeedsPerModelEstimates) {
    RequestQueue queue(8);
    ServerStats stats;
    AdmissionConfig config;
    config.policy = BackpressurePolicy::kDeadlineShed;
    config.cold_prior_fn = [](const std::string& model) {
        return model == "heavy" ? 10.0 : -1.0;  // decline everything else
    };
    AdmissionController admission(config, queue, stats);
    EXPECT_NEAR(admission.estimated_execute_s("heavy"), 10.0, 1e-12);
    EXPECT_NEAR(admission.estimated_execute_s("light"),
                config.cold_execute_prior_s, 1e-15);
    // Real observations override any prior.
    admission.observe_execute("heavy", 0.25);
    EXPECT_NEAR(admission.estimated_execute_s("heavy"), 0.25, 1e-12);
}

// ---------------------------------------------------------------------------
// Server end-to-end (real scheduler + devices, ManualClock)
// ---------------------------------------------------------------------------

struct ServeWorld {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::optional<sched::OnlineScheduler> scheduler;
    ManualClock clock;

    ServeWorld() {
        dispatcher.register_model(nn::zoo::simple(), 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, {nn::zoo::simple()}, {.batches = {1, 4, 16}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 8, .seed = 3}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler.emplace(dispatcher, std::move(predictor), dataset,
                          sched::SchedulerConfig{.explore_probability = 0.0});
        for (device::Device* dev : registry.devices()) dev->reset_timeline();
    }

    InferenceRequest request(Tensor payload,
                             sched::Policy policy = sched::Policy::kMaxThroughput,
                             double slo_s = 0.0) {
        return InferenceRequest{"simple", std::move(payload), policy, slo_s};
    }
};

TEST(Server, CompletesRequestsWithCorrectOutputs) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 2;
    config.batching.enabled = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(99);
    std::vector<Tensor> payloads;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 16; ++i) {
        payloads.push_back(source.next_batch(3, 4));
        futures.push_back(server.submit(world.request(Tensor(payloads.back()))));
    }
    for (int i = 0; i < 16; ++i) {
        Response response = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(response.status, RequestStatus::kCompleted) << response.error;
        EXPECT_EQ(response.coalesced, 1U);
        // Outputs must equal a direct forward pass of the same payload.
        Tensor shaped(world.dispatcher.model("simple").input_shape(3));
        std::copy_n(payloads[static_cast<std::size_t>(i)].data(), shaped.numel(),
                    shaped.data());
        const Tensor reference = world.dispatcher.model("simple").forward(shaped);
        EXPECT_EQ(response.outputs.max_abs_diff(reference), 0.0F);
    }
    server.stop();
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 16U);
    EXPECT_EQ(totals.completed, 16U);
    EXPECT_EQ(totals.samples, 48.0);
}

TEST(Server, DynamicBatchingCoalescesSameModelRequests) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 3600.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(5);
    std::vector<Tensor> payloads;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        payloads.push_back(source.next_batch(2, 4));
        futures.push_back(server.submit(world.request(Tensor(payloads.back()))));
    }
    // The ManualClock never reaches the max-wait deadline, so the single
    // worker must assemble the full 4-request batch before executing.
    for (int i = 0; i < 4; ++i) {
        Response response = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(response.status, RequestStatus::kCompleted) << response.error;
        EXPECT_EQ(response.coalesced, 4U);
        EXPECT_EQ(response.measurement.batch, 8U) << "4 requests x 2 samples";
        // Slicing must hand every member its own rows.
        Tensor shaped(world.dispatcher.model("simple").input_shape(2));
        std::copy_n(payloads[static_cast<std::size_t>(i)].data(), shaped.numel(),
                    shaped.data());
        const Tensor reference = world.dispatcher.model("simple").forward(shaped);
        EXPECT_EQ(response.outputs.max_abs_diff(reference), 0.0F);
    }
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.batches_executed, 1U);
    EXPECT_EQ(totals.coalesced_requests, 4U);
}

TEST(Server, ManualClockFlushesPartialBatch) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 50.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(6);
    auto f1 = server.submit(world.request(source.next_batch(2, 4)));
    auto f2 = server.submit(world.request(source.next_batch(2, 4)));
    // Only 2 of 4 slots filled; advancing past max_wait flushes the batch.
    // The deadline is the leader's arrival (t=0) plus max_wait, so it holds
    // whether or not the worker has popped the leader before the clock jumps.
    world.clock.advance(51.0);
    EXPECT_EQ(f1.get().coalesced, 2U);
    EXPECT_EQ(f2.get().coalesced, 2U);
}

// Lane-owned gathering (legacy queue path). Every assertion below holds in
// every interleaving of the workers with the submitting thread, so none of
// these tests waits on host time.
ServerConfig lane_owned_config(std::size_t workers, double max_wait_s) {
    ServerConfig config;
    config.workers = workers;
    config.hot_path.enabled = false;
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = max_wait_s};
    return config;
}

TEST(Server, SameLaneRequestJoinsTheOpenGather) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  lane_owned_config(2, 50.0));
    ASSERT_FALSE(server.hot_path_active());
    workload::SyntheticSource source(12);
    // Whether the second request finds the first one's gather open or both
    // still queued, it must join that gather: the idle worker may not lead
    // it into a batch of its own.
    auto f1 = server.submit(world.request(source.next_batch(1, 4)));
    auto f2 = server.submit(world.request(source.next_batch(1, 4)));
    world.clock.advance(51.0);
    EXPECT_EQ(f1.get().coalesced, 2U);
    EXPECT_EQ(f2.get().coalesced, 2U);
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.batches_executed, 1U);
    EXPECT_EQ(totals.coalesced_requests, 2U);
}

TEST(Server, ThirdLaneSealsAGatherWhenEveryWorkerGathers) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  lane_owned_config(2, 50.0));
    workload::SyntheticSource source(13);
    // Deadlines 50, 51 and 52: the throughput gather is the oldest.
    auto ft = server.submit(
        world.request(source.next_batch(1, 4), sched::Policy::kMaxThroughput));
    world.clock.set(1.0);
    auto fl = server.submit(world.request(source.next_batch(1, 4), sched::Policy::kMinLatency));
    world.clock.set(2.0);
    auto fe = server.submit(world.request(source.next_batch(1, 4), sched::Policy::kMinEnergy));
    // Two workers, three lanes: once both workers gather, the queued third
    // lane has no worker to come for it, so the oldest gather seals early
    // although the clock stands far before its deadline.
    const Response early = ft.get();
    EXPECT_EQ(early.status, RequestStatus::kCompleted);
    EXPECT_EQ(early.coalesced, 1U);
    EXPECT_EQ(world.clock.now(), 2.0);
    // Its worker came back for the third lane; both gathers now wait for
    // their deadlines.
    EXPECT_NE(fl.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NE(fe.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    world.clock.set(60.0);
    EXPECT_EQ(fl.get().status, RequestStatus::kCompleted);
    EXPECT_EQ(fe.get().status, RequestStatus::kCompleted);
}

TEST(Server, GatherStaysOpenUntilTheClockPassesItsDeadline) {
    for (const bool hot : {false, true}) {
        ServeWorld world;
        ServerConfig config = lane_owned_config(1, 50.0);
        config.hot_path.enabled = hot;
        Server server(*world.scheduler, world.dispatcher, world.clock, config);
        ASSERT_EQ(server.hot_path_active(), hot);
        workload::SyntheticSource source(14);
        auto f = server.submit(world.request(source.next_batch(1, 4)));
        // A move that leaves the deadline (t=50) ahead wakes nobody.
        world.clock.advance(10.0);
        EXPECT_NE(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        EXPECT_EQ(server.stats().totals().batches_executed, 0U);
        world.clock.advance(41.0);
        const Response r = f.get();
        EXPECT_EQ(r.status, RequestStatus::kCompleted);
        EXPECT_EQ(r.coalesced, 1U);
    }
}

TEST(Server, StopReturnsWithoutTheClockMoving) {
    for (const bool hot : {false, true}) {
        ServeWorld world;
        ServerConfig config = lane_owned_config(2, 50.0);
        config.hot_path.enabled = hot;
        {
            // Idle: nothing to drain, every worker parked.
            Server idle(*world.scheduler, world.dispatcher, world.clock, config);
            idle.stop();
            EXPECT_FALSE(idle.running());
        }
        // An open gather: close() seals it, so stop() drains it at once
        // instead of waiting for a deadline the clock will never reach.
        Server server(*world.scheduler, world.dispatcher, world.clock, config);
        workload::SyntheticSource source(15);
        auto f = server.submit(world.request(source.next_batch(1, 4)));
        server.stop();
        const Response r = f.get();
        EXPECT_EQ(r.status, RequestStatus::kCompleted);
        EXPECT_EQ(r.coalesced, 1U);
        EXPECT_EQ(world.clock.now(), 0.0);
    }
}

TEST(Server, FullQueueShedsInsteadOfBlocking) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.batching.enabled = false;
    config.start_on_construction = false;  // stage the overload deterministically
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(7);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(server.submit(world.request(source.next_batch(1, 4))));
    }
    // Submissions 5 and 6 found the queue full: already resolved, no block.
    EXPECT_EQ(futures[4].get().status, RequestStatus::kRejectedFull);
    EXPECT_EQ(futures[5].get().status, RequestStatus::kRejectedFull);

    server.start();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
                  RequestStatus::kCompleted);
    }
    server.stop();
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 6U);
    EXPECT_EQ(totals.completed, 4U);
    EXPECT_EQ(totals.rejected_full, 2U);
}

TEST(Server, StopWithoutDrainCompletesPendingAsShutdown) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.drain_on_stop = false;
    config.start_on_construction = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(8);
    auto pending = server.submit(world.request(source.next_batch(1, 4)));
    server.stop();
    EXPECT_EQ(pending.get().status, RequestStatus::kShutdown);

    // Submissions after stop() resolve immediately as shutdown.
    auto late = server.submit(world.request(source.next_batch(1, 4)));
    EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
}

TEST(Server, ConcurrentSubmittersAllResolve) {
    ServeWorld world;
    WallClock wall;
    ServerConfig config;
    config.workers = 3;
    config.queue_capacity = 64;
    config.admission.policy = BackpressurePolicy::kRejectOldest;
    config.batching = {.enabled = true, .max_requests = 8, .max_samples = 4096,
                       .max_wait_s = 0.001};
    Server server(*world.scheduler, world.dispatcher, wall, config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 40;
    workload::SyntheticSource source(11);
    ThreadPool clients(kClients);
    std::vector<std::future<void>> client_futures;
    std::array<std::atomic<std::size_t>, 2> outcome_counts{};  // [completed, other]
    for (std::size_t c = 0; c < kClients; ++c) {
        client_futures.push_back(clients.submit([&, c] {
            for (std::size_t i = 0; i < kPerClient; ++i) {
                const auto policy = static_cast<sched::Policy>((c + i) % kPolicyLanes);
                auto future = server.submit(
                    InferenceRequest{"simple", source.next_batch(2, 4), policy});
                const Response response = future.get();
                outcome_counts[response.ok() ? 0 : 1].fetch_add(
                    1, std::memory_order_relaxed);
            }
        }));
    }
    for (auto& f : client_futures) f.get();
    server.stop();

    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, kClients * kPerClient);
    EXPECT_EQ(outcome_counts[0].load(), totals.completed);
    EXPECT_EQ(totals.completed + totals.rejected_full + totals.evicted + totals.shed +
                  totals.failed + totals.shutdown,
              kClients * kPerClient);
    EXPECT_EQ(totals.failed, 0U);
    EXPECT_GT(totals.completed, 0U);
}

}  // namespace
