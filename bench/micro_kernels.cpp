// google-benchmark microbenchmarks of the real inference kernels that every
// device executes (GEMM, convolution, pooling, full-model forward passes).
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

/// gemm_bt at the zoo's shapes, as (m, k, n): mnist-small's 784x784 and
/// mnist-deep's 2500x2000 dense layers at batch 8, and cifar-10's 32-filter
/// 3x3x32 convolution over a 32x32 plane (taps 288, plane 1024).
void BM_GemmBt(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(1);
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    Tensor c(Shape{m, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);
    for (auto _ : state) {
        gemm_bt(a, bt, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m * k * n) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBt)->Args({8, 784, 784})->Args({8, 2500, 2000})->Args({32, 288, 1024});

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
