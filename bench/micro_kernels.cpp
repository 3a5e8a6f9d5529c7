// google-benchmark microbenchmarks of the real inference kernels that every
// device executes (GEMM, convolution, pooling, full-model forward passes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/im2col.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

/// gemm_bt at one lane width (4, 8 or 16; a width the CPU lacks is skipped)
/// and the zoo's shapes, as (m, k, n): mnist-small's 784x784 layer at the
/// serving batches 2 and 19 and at 8, mnist-deep's 2500x2000 at batch 8,
/// and cifar-10's convolutions over a 32x32 plane as im2col runs them: 32
/// filters by 288 taps (32 channels) and by 27 taps (the 3-channel input).
void BM_GemmBt(benchmark::State& state) {
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const auto m = static_cast<std::size_t>(state.range(1));
    const auto k = static_cast<std::size_t>(state.range(2));
    const auto n = static_cast<std::size_t>(state.range(3));
    const std::vector<std::size_t> widths = detail::gemm_bt_lane_widths();
    if (std::find(widths.begin(), widths.end(), lanes) == widths.end()) {
        state.SkipWithError("this CPU has no gemm_bt kernel at this lane width");
        return;
    }
    Rng rng(1);
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    Tensor c(Shape{m, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);
    for (auto _ : state) {
        detail::gemm_bt_lanes(lanes, a.data(), bt.data(), c.data(), m, k, n);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m * k * n) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBt)
    ->ArgNames({"lanes", "m", "k", "n"})
    ->ArgsProduct({{4, 8, 16}, {2}, {784}, {784}})
    ->ArgsProduct({{4, 8, 16}, {19}, {784}, {784}})
    ->ArgsProduct({{4, 8, 16}, {8}, {784}, {784}})
    ->ArgsProduct({{4, 8, 16}, {8}, {2500}, {2000}})
    ->ArgsProduct({{4, 8, 16}, {32}, {288}, {1024}})
    ->ArgsProduct({{4, 8, 16}, {32}, {27}, {1024}});

void BM_GemmBtParallel(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = 784;
    const std::size_t n = 800;
    Rng rng(1);
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    Tensor c(Shape{m, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);
    ThreadPool pool;
    for (auto _ : state) {
        gemm_bt(a, bt, c, &pool);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_GemmBtParallel)->Arg(64)->Arg(256);

/// cifar-10's convolutions: the 3-channel input layer and a 32-channel one.
void BM_Conv2d(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    const auto channels = static_cast<std::size_t>(state.range(1));
    nn::Conv2d conv(channels, 32, 3, nn::Activation::kRelu);
    Rng rng(2);
    conv.weights().fill_normal(rng, 0.0F, 0.1F);
    Tensor in(Shape{batch, channels, 32, 32});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{batch, 32, 32, 32});
    for (auto _ : state) {
        conv.forward(in, out, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * conv.cost(in.shape()).flops / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2d)->Args({1, 3})->Args({8, 3})->Args({1, 32})->Args({8, 32});

/// The patch matrix of one 32x32 sample at cifar-10's two convolution
/// shapes (3 and 32 channels, k = 3), as BM_Conv2d builds it before its GEMM.
void BM_Im2col(benchmark::State& state) {
    const auto channels = static_cast<std::size_t>(state.range(0));
    const std::size_t hw = 32;
    const std::size_t k = 3;
    Rng rng(2);
    Tensor in(Shape{1, channels, hw, hw});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor patches(Shape{hw * hw, channels * k * k});
    for (auto _ : state) {
        nn::im2col_same(in.data(), channels, hw, hw, k, patches.data());
        benchmark::DoNotOptimize(patches.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(patches.numel() * sizeof(float)));
}
BENCHMARK(BM_Im2col)->ArgName("channels")->Arg(3)->Arg(32);

void BM_MaxPool(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    nn::MaxPool pool(2);
    Rng rng(3);
    Tensor in(Shape{batch, 32, 32, 32});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{batch, 32, 16, 16});
    for (auto _ : state) {
        pool.forward(in, out, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_MaxPool)->Arg(8)->Arg(64);

void BM_ModelForward(benchmark::State& state, const char* model_name) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(model_name), 7);
    Rng rng(4);
    Tensor in(model.input_shape(8));
    in.fill_uniform(rng, 0.0F, 1.0F);
    for (auto _ : state) {
        const Tensor out = model.forward(in);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK_CAPTURE(BM_ModelForward, simple, "simple");
BENCHMARK_CAPTURE(BM_ModelForward, mnist_small, "mnist-small");
BENCHMARK_CAPTURE(BM_ModelForward, mnist_cnn, "mnist-cnn");

}  // namespace

BENCHMARK_MAIN();
