// google-benchmark microbenchmarks of the real inference kernels that every
// device executes (GEMM, convolution, pooling, full-model forward passes),
// plus the serving hot path's ring primitives — there the interesting number
// is the cross-core handoff rate, and the padded-vs-unpadded pair puts a
// figure on what the alignas(kCacheLineBytes) separation of the producer
// and consumer cursors buys (DESIGN.md §15).
#include <benchmark/benchmark.h>

#include <thread>

#include "common/spsc_ring.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

/// Bench-local ring identical in protocol to mw::SpscRing but with the
/// cursors and slots packed together — the layout the alignas fix replaced.
/// Kept here (not as a template knob on the real ring) so production code
/// cannot instantiate the false-sharing variant.
class UnpaddedSpscRing {
public:
    explicit UnpaddedSpscRing(std::size_t capacity)
        : buffer_(capacity + 1), capacity_(capacity + 1) {}

    [[nodiscard]] bool try_push(int value) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t next = (head + 1) % capacity_;
        if (next == tail_.load(std::memory_order_acquire)) return false;
        buffer_[head] = value;
        head_.store(next, std::memory_order_release);
        return true;
    }

    [[nodiscard]] bool try_pop(int& out) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_.load(std::memory_order_acquire)) return false;
        out = buffer_[tail];
        tail_.store((tail + 1) % capacity_, std::memory_order_release);
        return true;
    }

private:
    Atomic<std::size_t> head_{0};  // deliberately adjacent: shares a line
    Atomic<std::size_t> tail_{0};  // with head_ and the first slots
    std::vector<int> buffer_;
    std::size_t capacity_;
};

/// Cross-core handoff: a producer thread pushes as fast as the ring accepts
/// while the bench thread pops. Items/s is the sustained transfer rate; the
/// padded mw::SpscRing vs the packed layout above isolates the false-sharing
/// cost the alignas separation removes.
template <typename Ring>
void spsc_handoff(benchmark::State& state) {
    Ring ring(1024);
    Atomic<bool> stop{false};
    std::thread producer([&] {
        int i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            if (ring.try_push(i)) ++i;
        }
    });
    std::int64_t popped = 0;
    for (auto _ : state) {
        int v = 0;
        if (ring.try_pop(v)) {
            benchmark::DoNotOptimize(v);
            ++popped;
        }
    }
    stop.store(true, std::memory_order_release);
    producer.join();
    state.SetItemsProcessed(popped);
}

void BM_SpscRing(benchmark::State& state) { spsc_handoff<SpscRing<int>>(state); }
BENCHMARK(BM_SpscRing);

void BM_SpscRingUnpadded(benchmark::State& state) {
    spsc_handoff<UnpaddedSpscRing>(state);
}
BENCHMARK(BM_SpscRingUnpadded);

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
