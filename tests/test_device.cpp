// Tests for the heterogeneous device runtime: the execution model, the
// DVFS clock governor, queueing, noise, the registry, and result
// correctness across devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "device/exec_model.hpp"
#include "device/registry.hpp"
#include "nn/model_builder.hpp"
#include "nn/zoo.hpp"

namespace {

using namespace mw;
using namespace mw::device;

std::shared_ptr<const nn::Model> shared_model(const nn::ModelSpec& spec, std::uint64_t seed) {
    return std::make_shared<nn::Model>(nn::build_model(spec, seed));
}

TEST(RampSolver, FullClockIsIdentity) {
    EXPECT_NEAR(solve_ramp_time(0.5, 1.0, 0.1), 0.5, 1e-9);
    EXPECT_NEAR(solve_ramp_time(0.5, 0.3, 0.0), 0.5, 1e-9);
    EXPECT_EQ(solve_ramp_time(0.0, 0.5, 0.1), 0.0);
}

TEST(RampSolver, ColdShortRunApproachesWorkOverR0) {
    // Work far below the ramp constant: the clock stays ~r0.
    const double t = solve_ramp_time(1e-5, 0.2, 1.0);
    EXPECT_NEAR(t, 1e-5 / 0.2, 1e-6);
}

TEST(RampSolver, ColdLongRunApproachesWorkPlusConstant) {
    // Work far above the ramp constant: T ~= W + (1 - r0) * tau.
    const double tau = 0.01;
    const double r0 = 0.2;
    const double w = 10.0;
    EXPECT_NEAR(solve_ramp_time(w, r0, tau), w + (1.0 - r0) * tau, 1e-3);
}

TEST(RampSolver, MonotoneInWork) {
    double prev = 0.0;
    for (double w = 1e-6; w < 1.0; w *= 4.0) {
        const double t = solve_ramp_time(w, 0.14, 0.04);
        EXPECT_GT(t, prev);
        EXPECT_GE(t, w);            // never faster than full clock
        EXPECT_LE(t, w / 0.14 + 1e-9);  // never slower than cold clock
        prev = t;
    }
}

TEST(ClockGovernor, DecayTowardIdle) {
    EXPECT_NEAR(clock_after_idle(1.0, 0.2, 1.0, 1e9), 0.2, 1e-6);
    EXPECT_NEAR(clock_after_idle(1.0, 0.2, 1.0, 0.0), 1.0, 1e-12);
    const double mid = clock_after_idle(1.0, 0.2, 1.0, 1.0);
    EXPECT_GT(mid, 0.2);
    EXPECT_LT(mid, 1.0);
}

TEST(ExecModel, CpuHasNoPciePhases) {
    const auto model = shared_model(nn::zoo::simple(), 1);
    const auto cost = model->cost(1024);
    const auto b = estimate_execution(i7_8700_params(), cost, 1024.0 * 16, 1024.0 * 12, 1.0);
    EXPECT_EQ(b.t_xfer_in, 0.0);
    EXPECT_EQ(b.t_xfer_out, 0.0);
    EXPECT_GT(b.t_kernels, 0.0);
    EXPECT_GT(b.energy_j(), 0.0);
}

TEST(ExecModel, DiscreteGpuPaysTransfers) {
    const auto model = shared_model(nn::zoo::simple(), 1);
    const auto cost = model->cost(1024);
    const auto b = estimate_execution(gtx1080ti_params(), cost, 1024.0 * 16, 1024.0 * 12, 1.0);
    EXPECT_GT(b.t_xfer_in, 0.0);
    EXPECT_GT(b.t_xfer_out, 0.0);
}

TEST(ExecModel, ColdStartSlowerAndCostsMoreEnergy) {
    const auto model = shared_model(nn::zoo::mnist_small(), 1);
    const auto cost = model->cost(512);
    const auto params = gtx1080ti_params();
    const double bytes_in = 512.0 * 784 * 4;
    const auto warm = estimate_execution(params, cost, bytes_in, 512.0 * 40, 1.0);
    const auto cold = estimate_execution(params, cost, bytes_in, 512.0 * 40,
                                         params.idle_clock_ratio);
    EXPECT_GT(cold.total_s(), warm.total_s() * 1.5);
    EXPECT_GT(cold.energy_j(), warm.energy_j());
    EXPECT_GT(cold.clock_end, params.idle_clock_ratio);  // it warmed up a bit
}

TEST(ExecModel, ThroughputMonotoneInBatchUntilSaturation) {
    const auto model = shared_model(nn::zoo::mnist_cnn(), 1);
    const auto params = gtx1080ti_params();
    double prev_tput = 0.0;
    for (std::size_t n = 2; n <= 4096; n *= 2) {
        const auto b = estimate_execution(params, model->cost(n),
                                          static_cast<double>(n) * 784 * 4,
                                          static_cast<double>(n) * 40, 1.0);
        const double tput = static_cast<double>(n) / b.total_s();
        EXPECT_GT(tput, prev_tput);
        prev_tput = tput;
    }
}

TEST(ExecModel, EnergyScalesRoughlyLinearlyAtSaturation) {
    const auto model = shared_model(nn::zoo::mnist_deep(), 1);
    const auto params = i7_8700_params();
    const auto e1 = estimate_execution(params, model->cost(8192), 8192.0 * 3136, 1.0, 1.0);
    const auto e2 = estimate_execution(params, model->cost(16384), 16384.0 * 3136, 1.0, 1.0);
    EXPECT_NEAR(e2.energy_j() / e1.energy_j(), 2.0, 0.15);
}

TEST(Device, RunComputesRealOutputs) {
    Device dev(i7_8700_params());
    auto model = shared_model(nn::zoo::simple(), 3);
    dev.load_model(model);

    Rng rng(1);
    Tensor x(model->input_shape(16));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const auto result = dev.run("simple", x, 0.0);
    EXPECT_EQ(result.outputs.shape(), Shape({16, 3}));
    // Outputs equal the model's own forward pass, bit for bit.
    EXPECT_EQ(result.outputs.max_abs_diff(model->forward(x)), 0.0F);
    EXPECT_GT(result.measurement.latency_s(), 0.0);
}

TEST(Device, RunTakesShapedOrFlatPayloads) {
    // A CNN input in the model's own shape runs as given; the same samples
    // as a flat (batch, elems) payload are copied into that shape first.
    // Both give the same outputs; a payload of the wrong size throws.
    Device dev(i7_8700_params());
    auto model = shared_model(nn::zoo::mnist_cnn(), 5);
    dev.load_model(model);
    Rng rng(3);
    Tensor x(model->input_shape(3));
    x.fill_uniform(rng, 0.0F, 1.0F);
    Tensor flat(Shape{3, x.numel() / 3});
    std::copy_n(x.data(), x.numel(), flat.data());
    const Tensor shaped_out = dev.run("mnist-cnn", x, 0.0).outputs;
    EXPECT_EQ(shaped_out.max_abs_diff(model->forward(x)), 0.0F);
    EXPECT_EQ(shaped_out.max_abs_diff(dev.run("mnist-cnn", flat, 0.0).outputs), 0.0F);
    EXPECT_THROW(dev.run("mnist-cnn", Tensor(Shape{3, 5}), 0.0), InvalidArgument);
}

TEST(Device, OutputsIdenticalAcrossDevices) {
    // The paper's kernels are portable: every device classifies identically.
    auto registry = DeviceRegistry::standard_testbed();
    auto model = shared_model(nn::zoo::mnist_cnn(), 4);
    registry.load_model_everywhere(model);
    Rng rng(2);
    Tensor x(model->input_shape(4));
    x.fill_uniform(rng, 0.0F, 1.0F);

    Tensor reference;
    for (Device* dev : registry.devices()) {
        auto result = dev->run("mnist-cnn", x, 0.0);
        if (reference.empty()) {
            reference = std::move(result.outputs);
        } else {
            EXPECT_EQ(reference.max_abs_diff(result.outputs), 0.0F) << dev->name();
        }
    }
}

TEST(Device, ProfileSkipsCompute) {
    Device dev(gtx1080ti_params());
    dev.load_model(shared_model(nn::zoo::mnist_deep(), 5));
    // A 256K-sample profile must be instantaneous (no tensor math).
    const auto m = dev.profile("mnist-deep", 256U << 10, 0.0);
    EXPECT_GT(m.latency_s(), 0.0);
    EXPECT_EQ(m.batch, 256U << 10);
}

TEST(Device, QueueingSerialisesSubmissions) {
    Device dev(i7_8700_params());
    dev.load_model(shared_model(nn::zoo::mnist_small(), 6));
    const auto first = dev.profile("mnist-small", 4096, 0.0);
    // Submitted while the first is still running: starts after it.
    const auto second = dev.profile("mnist-small", 4096, 0.0);
    EXPECT_GE(second.start_time, first.end_time);
    EXPECT_GT(second.latency_s(), first.latency_s());  // includes queueing
}

TEST(Device, WarmStateDecaysOverTime) {
    Device dev(gtx1080ti_params());
    dev.load_model(shared_model(nn::zoo::mnist_small(), 7));
    dev.force_warm();
    const auto m = dev.profile("mnist-small", 65536, 0.0);
    EXPECT_TRUE(m.device_was_warm);
    // Right after the run the device is warm; much later it cooled down.
    EXPECT_TRUE(dev.is_warm(m.end_time + 0.01));
    EXPECT_FALSE(dev.is_warm(m.end_time + 60.0));
}

TEST(Device, ForceIdleProducesColdRun) {
    Device dev(gtx1080ti_params());
    dev.load_model(shared_model(nn::zoo::mnist_small(), 8));
    dev.force_warm();
    const auto warm = dev.profile("mnist-small", 512, 0.0);
    dev.force_idle();
    const auto cold = dev.profile("mnist-small", 512, warm.end_time + 1.0);
    EXPECT_FALSE(cold.device_was_warm);
    EXPECT_GT(cold.latency_s(), warm.latency_s() * 1.5);
}

TEST(Device, CpuIsAlwaysWarm) {
    Device dev(i7_8700_params());
    EXPECT_TRUE(dev.is_warm(0.0));
    EXPECT_TRUE(dev.is_warm(1e6));
}

TEST(Device, NoiseProducesSpreadWithMedianNearClean) {
    Device clean(gtx1080ti_params());
    Device noisy(gtx1080ti_params());
    noisy.set_noise(0.1, 99);
    auto model = shared_model(nn::zoo::mnist_small(), 9);
    clean.load_model(model);
    noisy.load_model(model);

    clean.force_warm();
    const double reference = clean.profile("mnist-small", 1024, 0.0).latency_s();
    std::vector<double> samples;
    double t = 0.0;
    for (int i = 0; i < 101; ++i) {
        noisy.force_warm();
        const auto m = noisy.profile("mnist-small", 1024, t + 1000.0);
        samples.push_back(m.latency_s());
        t = m.end_time;
    }
    EXPECT_NEAR(median(samples), reference, reference * 0.08);
    EXPECT_GT(stddev(samples), reference * 0.02);
}

TEST(Device, UnknownModelThrows) {
    Device dev(i7_8700_params());
    EXPECT_THROW(dev.profile("nope", 8, 0.0), StateError);
    Tensor x(Shape{1, 4});
    EXPECT_THROW(dev.run("nope", x, 0.0), StateError);
}

TEST(Device, EnergyAccumulates) {
    Device dev(uhd630_params());
    dev.load_model(shared_model(nn::zoo::simple(), 10));
    EXPECT_EQ(dev.total_energy_j(), 0.0);
    dev.profile("simple", 1024, 0.0);
    const double e1 = dev.total_energy_j();
    EXPECT_GT(e1, 0.0);
    dev.profile("simple", 1024, 100.0);
    EXPECT_GT(dev.total_energy_j(), e1);
    EXPECT_EQ(dev.total_batches(), 2U);
}

TEST(Registry, StandardTestbedHasThreeDevices) {
    auto registry = DeviceRegistry::standard_testbed();
    EXPECT_EQ(registry.size(), 3U);
    EXPECT_EQ(registry.at("i7-8700").kind(), DeviceKind::kCpu);
    EXPECT_EQ(registry.at("uhd630").kind(), DeviceKind::kIntegratedGpu);
    EXPECT_EQ(registry.at("gtx1080ti").kind(), DeviceKind::kDiscreteGpu);
    EXPECT_THROW((void)registry.at("tpu"), InvalidArgument);
}

TEST(Registry, DeviceAgnosticExtension) {
    // Register a hypothetical NPU: the runtime treats it like any other
    // device (the paper's device-agnostic claim).
    auto registry = DeviceRegistry::standard_testbed();
    DeviceParams npu;
    npu.name = "npu0";
    npu.kind = DeviceKind::kAccelerator;
    npu.peak_gflops = 2000.0;
    npu.compute_efficiency = 0.8;
    npu.mem_bandwidth_gbps = 25.0;
    npu.parallel_width = 4096.0;
    npu.idle_power_w = 0.5;
    npu.max_power_w = 6.0;
    registry.emplace(npu);
    EXPECT_EQ(registry.size(), 4U);

    auto model = shared_model(nn::zoo::simple(), 11);
    registry.load_model_everywhere(model);
    const auto m = registry.at("npu0").profile("simple", 4096, 0.0);
    EXPECT_GT(m.throughput_bps(), 0.0);
}

TEST(Registry, DuplicateNameRejected) {
    auto registry = DeviceRegistry::standard_testbed();
    EXPECT_THROW(registry.emplace(i7_8700_params()), InvalidArgument);
}

TEST(WorkGroups, PaperOptimaReproduced) {
    // §IV-B: "the best configuration for the CPU is 4096 work-items per
    // work-group, whilst the best configuration for the GPU is 256".
    auto best_group = [](const DeviceParams& p) {
        double best_eff = 0.0;
        std::size_t best_wg = 0;
        for (std::size_t wg = 32; wg <= 16384; wg *= 2) {
            const double eff = work_group_efficiency(p, static_cast<double>(wg), 1 << 20);
            if (eff > best_eff) {
                best_eff = eff;
                best_wg = wg;
            }
        }
        return best_wg;
    };
    EXPECT_EQ(best_group(i7_8700_params()), 4096U);
    EXPECT_EQ(best_group(gtx1080ti_params()), 256U);
}

TEST(Contention, CpuAndIgpuShareTheMemoryDomain) {
    auto registry = DeviceRegistry::standard_testbed();
    EXPECT_EQ(registry.at("i7-8700").memory_peer_count(), 1U);
    EXPECT_EQ(registry.at("uhd630").memory_peer_count(), 1U);
    EXPECT_EQ(registry.at("gtx1080ti").memory_peer_count(), 0U);
}

TEST(Contention, BusyIgpuSlowsMemoryBoundCpuRun) {
    // mnist-deep at small batch is weight-streaming (memory) bound on the
    // CPU; a concurrently running iGPU must visibly shrink its bandwidth.
    auto registry = DeviceRegistry::standard_testbed();
    auto model = shared_model(nn::zoo::mnist_deep(), 7);
    registry.load_model_everywhere(model);

    Device& cpu = registry.at("i7-8700");
    Device& igpu = registry.at("uhd630");

    const auto alone = cpu.profile("mnist-deep", 8, 0.0);

    // Make the iGPU busy across the CPU's next submission window.
    igpu.profile("mnist-deep", 65536, 1000.0);
    ASSERT_GT(igpu.busy_until(), 1000.0);
    const auto contended = cpu.profile("mnist-deep", 8, 1000.0);

    EXPECT_GT(contended.latency_s(), alone.latency_s() * 1.1);
}

TEST(Contention, DiscreteGpuIsImmune) {
    // The dGPU has its own GDDR: concurrent CPU work must not slow it.
    auto registry = DeviceRegistry::standard_testbed();
    auto model = shared_model(nn::zoo::mnist_deep(), 7);
    registry.load_model_everywhere(model);

    Device& gpu = registry.at("gtx1080ti");
    gpu.force_warm();
    const auto alone = gpu.profile("mnist-deep", 64, 0.0);

    registry.at("i7-8700").profile("mnist-deep", 65536, 1000.0);
    gpu.force_warm();
    const auto concurrent = gpu.profile("mnist-deep", 64, 1000.0);
    EXPECT_NEAR(concurrent.latency_s(), alone.latency_s(), alone.latency_s() * 1e-6);
}

TEST(Contention, ComputeBoundWorkBarelyAffected) {
    // mnist-small at large batch is compute-bound on the CPU: contention on
    // the memory controller must not dominate.
    auto registry = DeviceRegistry::standard_testbed();
    auto model = shared_model(nn::zoo::mnist_small(), 7);
    registry.load_model_everywhere(model);

    Device& cpu = registry.at("i7-8700");
    const auto alone = cpu.profile("mnist-small", 65536, 0.0);
    registry.at("uhd630").profile("mnist-small", 65536, 1000.0);
    const auto contended = cpu.profile("mnist-small", 65536, 1000.0);
    EXPECT_LT(contended.latency_s(), alone.latency_s() * 1.1);
}

}  // namespace
