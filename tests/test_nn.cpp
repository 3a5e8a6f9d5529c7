// Tests for the inference engine: layer semantics, hand-computed forwards,
// finite-difference gradient checks, training convergence, the model zoo,
// weight serialization and the analytic cost accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "data/synth.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/im2col.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/trainer.hpp"
#include "nn/weights.hpp"
#include "nn/zoo.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;
using namespace mw::nn;

TEST(Activation, Names) {
    EXPECT_EQ(activation_from_name("relu"), Activation::kRelu);
    EXPECT_EQ(activation_name(Activation::kSoftmax), "softmax");
    EXPECT_THROW(activation_from_name("gelu"), InvalidArgument);
}

TEST(Activation, ReluTanhSigmoid) {
    Tensor t(Shape{4});
    t.at(0) = -1.0F;
    t.at(1) = 2.0F;
    Tensor r(t);
    apply_activation(Activation::kRelu, r);
    EXPECT_EQ(r.at(0), 0.0F);
    EXPECT_EQ(r.at(1), 2.0F);
    Tensor s(t);
    apply_activation(Activation::kSigmoid, s);
    EXPECT_NEAR(s.at(0), 1.0F / (1.0F + std::exp(1.0F)), 1e-6F);
    Tensor h(t);
    apply_activation(Activation::kTanh, h);
    EXPECT_NEAR(h.at(1), std::tanh(2.0F), 1e-6F);
}

TEST(Activation, SoftmaxRowsSumToOne) {
    Rng rng(1);
    Tensor t(Shape{5, 7});
    t.fill_normal(rng, 0.0F, 3.0F);
    apply_activation(Activation::kSoftmax, t);
    for (std::size_t r = 0; r < 5; ++r) {
        float sum = 0.0F;
        for (std::size_t c = 0; c < 7; ++c) {
            EXPECT_GT(t.at(r, c), 0.0F);
            sum += t.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0F, 1e-5F);
    }
}

TEST(Activation, GradFromOutput) {
    EXPECT_EQ(activation_grad_from_output(Activation::kRelu, 0.5F), 1.0F);
    EXPECT_EQ(activation_grad_from_output(Activation::kRelu, 0.0F), 0.0F);
    EXPECT_NEAR(activation_grad_from_output(Activation::kTanh, 0.5F), 0.75F, 1e-6F);
    EXPECT_NEAR(activation_grad_from_output(Activation::kSigmoid, 0.25F), 0.1875F, 1e-6F);
    EXPECT_THROW(activation_grad_from_output(Activation::kSoftmax, 0.1F), InvalidArgument);
}

TEST(Dense, HandComputedForward) {
    Dense layer(2, 2, Activation::kIdentity);
    // W = [[1, 2], [3, 4]], b = [10, 20]; y = x W^T + b.
    layer.weights().at(0, 0) = 1.0F;
    layer.weights().at(0, 1) = 2.0F;
    layer.weights().at(1, 0) = 3.0F;
    layer.weights().at(1, 1) = 4.0F;
    layer.bias().at(0) = 10.0F;
    layer.bias().at(1) = 20.0F;
    Tensor in(Shape{1, 2});
    in.at(0, 0) = 1.0F;
    in.at(0, 1) = 1.0F;
    Tensor out(Shape{1, 2});
    layer.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(0, 0), 13.0F, 1e-6F);
    EXPECT_NEAR(out.at(0, 1), 27.0F, 1e-6F);
}

TEST(Dense, ShapeValidation) {
    Dense layer(4, 3, Activation::kRelu);
    EXPECT_EQ(layer.output_shape(Shape{7, 4}), Shape({7, 3}));
    EXPECT_THROW((void)layer.output_shape(Shape{7, 5}), InvalidArgument);
    EXPECT_THROW((void)layer.output_shape(Shape{7, 4, 1, 1}), InvalidArgument);
}

TEST(Conv2d, IdentityKernelPreservesInterior) {
    Conv2d conv(1, 1, 3, Activation::kIdentity);
    conv.weights().fill(0.0F);
    conv.weights().at(4) = 1.0F;  // centre tap
    Rng rng(2);
    Tensor in(Shape{1, 1, 6, 6});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{1, 1, 6, 6});
    conv.forward(in, out, nullptr);
    EXPECT_LT(in.max_abs_diff(out), 1e-6F);
}

TEST(Conv2d, SummingKernelOnOnes) {
    // A 3x3 all-ones kernel over an all-ones image gives 9 in the interior,
    // 4 at corners and 6 at non-corner edges (zero padding).
    Conv2d conv(1, 1, 3, Activation::kIdentity);
    conv.weights().fill(1.0F);
    Tensor in(Shape{1, 1, 4, 4});
    in.fill(1.0F);
    Tensor out(Shape{1, 1, 4, 4});
    conv.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(0), 4.0F, 1e-6F);       // corner
    EXPECT_NEAR(out.at(1), 6.0F, 1e-6F);       // edge
    EXPECT_NEAR(out.at(5), 9.0F, 1e-6F);       // interior
}

TEST(Conv2d, MultiChannelAccumulates) {
    Conv2d conv(2, 1, 3, Activation::kIdentity);
    conv.weights().fill(0.0F);
    conv.weights().at(4) = 1.0F;       // centre of channel 0
    conv.weights().at(9 + 4) = 2.0F;   // centre of channel 1
    Tensor in(Shape{1, 2, 3, 3});
    in.fill(1.0F);
    Tensor out(Shape{1, 1, 3, 3});
    conv.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(4), 3.0F, 1e-6F);
}

TEST(Conv2d, EvenFilterRejected) {
    EXPECT_THROW(Conv2d(1, 1, 4, Activation::kRelu), InvalidArgument);
}

TEST(MaxPool, Reduces) {
    MaxPool pool(2);
    Tensor in(Shape{1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i) in.at(i) = static_cast<float>(i);
    Tensor out(Shape{1, 1, 2, 2});
    pool.forward(in, out, nullptr);
    EXPECT_EQ(out.at(0), 5.0F);
    EXPECT_EQ(out.at(1), 7.0F);
    EXPECT_EQ(out.at(2), 13.0F);
    EXPECT_EQ(out.at(3), 15.0F);
}

TEST(MaxPool, IndivisibleExtentThrows) {
    MaxPool pool(2);
    EXPECT_THROW((void)pool.output_shape(Shape{1, 1, 5, 4}), InvalidArgument);
}

TEST(Flatten, RoundTripBytes) {
    Flatten flat;
    Rng rng(3);
    Tensor in(Shape{2, 3, 4, 4});
    in.fill_normal(rng, 0.0F, 1.0F);
    Tensor out(Shape{2, 48});
    flat.forward(in, out, nullptr);
    for (std::size_t i = 0; i < in.numel(); ++i) EXPECT_EQ(in.at(i), out.at(i));
}

// ---- gradient checks -------------------------------------------------------

/// Loss of a model at given input/labels (softmax cross-entropy).
double model_loss(Model& model, const Tensor& x, const std::vector<std::size_t>& y) {
    const Tensor probs = model.forward(x);
    return cross_entropy(probs, y, 0, y.size());
}

/// Finite-difference check of every parameter gradient of `model`.
void gradient_check(Model& model, const Tensor& x, const std::vector<std::size_t>& y,
                    double tolerance) {
    // Analytic gradients.
    for (std::size_t li = 0; li < model.layer_count(); ++li) model.layer(li).zero_grads();
    const auto acts = model.forward_collect(x);
    const Tensor& probs = acts.back();
    Tensor dout(probs.shape());
    const float inv = 1.0F / static_cast<float>(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
        for (std::size_t c = 0; c < probs.shape()[1]; ++c) {
            dout.at(i, c) = (probs.at(i, c) - (c == y[i] ? 1.0F : 0.0F)) * inv;
        }
    }
    Tensor current = dout;
    for (std::size_t li = model.layer_count(); li-- > 0;) {
        const Tensor& in = li == 0 ? x : acts[li - 1];
        Tensor din(in.shape());
        model.layer(li).backward(in, acts[li], current, din, nullptr);
        current = std::move(din);
    }

    // Numeric comparison on a subset of parameters (every 7th scalar).
    const double eps = 1e-3;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        for (const auto& binding : model.layer(li).param_bindings()) {
            for (std::size_t k = 0; k < binding.value->numel(); k += 7) {
                float& w = binding.value->at(k);
                const float saved = w;
                w = saved + static_cast<float>(eps);
                const double up = model_loss(model, x, y);
                w = saved - static_cast<float>(eps);
                const double down = model_loss(model, x, y);
                w = saved;
                const double numeric = (up - down) / (2.0 * eps);
                const double analytic = binding.grad->at(k);
                EXPECT_NEAR(analytic, numeric, tolerance)
                    << "layer " << li << " param " << k;
            }
        }
    }
}

TEST(Gradients, TinyFfnn) {
    FfnnSpec spec;
    spec.input_dim = 5;
    spec.hidden = {7, 6};
    spec.output_dim = 3;
    spec.hidden_act = Activation::kTanh;  // smooth: tight finite differences
    Model model = build_model(ModelSpec{"grad-ffnn", spec, true}, 11);

    Rng rng(4);
    Tensor x(Shape{4, 5});
    x.fill_normal(rng, 0.0F, 1.0F);
    gradient_check(model, x, {0, 1, 2, 0}, 2e-3);
}

TEST(Gradients, TinyCnn) {
    CnnSpec spec;
    spec.in_channels = 1;
    spec.in_h = 6;
    spec.in_w = 6;
    spec.blocks = {{.convs = 1, .filters = 2, .filter_size = 3, .pool_size = 2}};
    spec.dense_hidden = {5};
    spec.output_dim = 3;
    spec.hidden_act = Activation::kTanh;
    Model model = build_model(ModelSpec{"grad-cnn", spec, true}, 13);

    Rng rng(5);
    Tensor x(Shape{3, 1, 6, 6});
    x.fill_normal(rng, 0.0F, 1.0F);
    gradient_check(model, x, {0, 1, 2}, 3e-3);
}

// ---- end-to-end training ---------------------------------------------------

TEST(Trainer, LearnsClusters) {
    auto data = data::make_clusters(400, 6, 3, 3.0, 21);
    FfnnSpec spec;
    spec.input_dim = 6;
    spec.hidden = {16};
    spec.output_dim = 3;
    Model model = build_model(ModelSpec{"clusters", spec, true}, 22);

    TrainConfig config;
    config.epochs = 20;
    config.learning_rate = 0.05F;
    const auto history = train(model, data.x, data.y, config);
    EXPECT_GT(history.back().accuracy, 0.9);
    EXPECT_LT(history.back().loss, history.front().loss);
}

TEST(Trainer, SimpleModelReachesIrisLevelAccuracy) {
    // §III-B.1: the paper's Simple model reaches ~97% on Iris.
    auto data = data::make_iris_like(600, 31);
    Rng rng(1);
    auto split = data::train_test_split(data, 0.25, rng);
    Model model = build_model(zoo::simple(), 33);
    TrainConfig config;
    config.epochs = 60;
    config.learning_rate = 0.03F;
    train(model, split.train.x, split.train.y, config);
    EXPECT_GT(evaluate_accuracy(model, split.test.x, split.test.y), 0.9);
}

// ---- zoo -------------------------------------------------------------------

TEST(Zoo, PaperModelStructures) {
    const Model simple = build_model(zoo::simple(), 1);
    EXPECT_EQ(simple.desc().depth, 3U);           // 2 hidden + output
    EXPECT_EQ(simple.desc().total_neurons, 15U);  // 6 + 6 + 3
    EXPECT_FALSE(simple.desc().is_cnn);

    const Model deep = build_model(zoo::mnist_deep(), 1);
    EXPECT_EQ(deep.desc().depth, 6U);
    EXPECT_EQ(deep.desc().total_neurons, 2500U + 2000 + 1500 + 1000 + 500 + 10);
    // ~12M parameters as derived in the paper's architecture.
    EXPECT_NEAR(static_cast<double>(deep.param_count()), 11.97e6, 0.2e6);

    const Model cnn = build_model(zoo::mnist_cnn(), 1);
    EXPECT_TRUE(cnn.desc().is_cnn);
    EXPECT_EQ(cnn.desc().vgg_blocks, 2U);
    EXPECT_EQ(cnn.desc().convs_per_block, 1U);
    EXPECT_EQ(cnn.desc().filter_size, 3U);
    EXPECT_EQ(cnn.desc().pool_size, 2U);

    const Model cifar = build_model(zoo::cifar10(), 1);
    EXPECT_EQ(cifar.desc().vgg_blocks, 3U);
    EXPECT_EQ(cifar.desc().convs_per_block, 2U);
    EXPECT_EQ(cifar.input_shape(2), Shape({2, 3, 32, 32}));
}

TEST(Zoo, TwentyOneArchitecturesAllBuild) {
    const auto specs = zoo::all_models();
    EXPECT_EQ(specs.size(), 21U);
    for (const auto& spec : specs) {
        const Model m = build_model(spec, 3);
        Rng rng(6);
        Tensor x(m.input_shape(2));
        x.fill_uniform(rng, 0.0F, 1.0F);
        const Tensor out = m.forward(x);
        EXPECT_EQ(out.shape()[0], 2U) << spec.name;
        EXPECT_EQ(out.shape()[1], m.desc().output_dim) << spec.name;
    }
}

TEST(Zoo, ByNameLookup) {
    EXPECT_EQ(zoo::by_name("cifar-10").name, "cifar-10");
    EXPECT_THROW(zoo::by_name("resnet-50"), InvalidArgument);
}

// ---- weights I/O -----------------------------------------------------------

TEST(Weights, SaveLoadRoundTrip) {
    const std::string path = "/tmp/mw_test_weights.bin";
    Model a = build_model(zoo::simple(), 77);
    save_weights(a, path);

    Model b = build_model(zoo::simple(), 99);  // different init
    load_weights(b, path);

    Rng rng(7);
    Tensor x(a.input_shape(8));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor ya = a.forward(x);
    const Tensor yb = b.forward(x);
    EXPECT_EQ(ya.max_abs_diff(yb), 0.0F);
    std::filesystem::remove(path);
}

TEST(Weights, ArchitectureMismatchRejected) {
    const std::string path = "/tmp/mw_test_weights2.bin";
    Model a = build_model(zoo::simple(), 1);
    save_weights(a, path);
    Model b = build_model(zoo::mnist_small(), 1);
    EXPECT_THROW(load_weights(b, path), IoError);
    std::filesystem::remove(path);
}

TEST(Weights, HeInitHasExpectedScale) {
    FfnnSpec spec;
    spec.input_dim = 512;
    spec.hidden = {512};
    spec.output_dim = 10;
    Model model = build_model(ModelSpec{"init", spec, true}, 17);
    auto* dense = dynamic_cast<Dense*>(&model.layer(0));
    ASSERT_NE(dense, nullptr);
    OnlineStats stats;
    for (const float w : dense->weights().span()) stats.add(w);
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.stddev(), std::sqrt(2.0 / 512.0), 0.005);
}

// ---- cost accounting -------------------------------------------------------

TEST(Cost, DenseFlopsAndWorkItems) {
    Dense layer(784, 800, Activation::kRelu);
    const LayerCost c = layer.cost(Shape{32, 784});
    EXPECT_NEAR(c.flops, 32.0 * 2 * 784 * 800, 1.0);
    EXPECT_NEAR(c.work_items, 32.0 * 800, 1.0);
    EXPECT_EQ(c.kernel_launches, 1);
    EXPECT_NEAR(c.bytes_weights, (784.0 * 800 + 800) * 4, 1.0);
}

TEST(Cost, ModelAggregationScalesWithBatch) {
    const Model m = build_model(zoo::mnist_small(), 1);
    const ModelCost c1 = m.cost(1);
    const ModelCost c64 = m.cost(64);
    EXPECT_NEAR(c64.total.flops, 64.0 * c1.total.flops, 1.0);
    EXPECT_EQ(c1.per_layer.size(), m.layer_count());
    // Per-sample flops of mnist-small: 2*(784*784 + 784*800 + 800*10).
    EXPECT_NEAR(c1.total.flops, 2.0 * (784.0 * 784 + 784 * 800 + 800 * 10), 1.0);
}

TEST(Cost, BytesPerSampleMatchesInput) {
    const Model cifar = build_model(zoo::cifar10(), 1);
    EXPECT_EQ(cifar.bytes_per_sample(), 3U * 32 * 32 * 4);
    const Model simple = build_model(zoo::simple(), 1);
    EXPECT_EQ(simple.bytes_per_sample(), 4U * 4);
}

TEST(Model, ClassifyReturnsArgmax) {
    Model m = build_model(zoo::simple(), 5);
    Rng rng(8);
    Tensor x(m.input_shape(16));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const auto labels = m.classify(x);
    const Tensor probs = m.forward(x);
    for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_LE(probs.at(i, c), probs.at(i, labels[i]) + 1e-7F);
        }
    }
}

TEST(Model, ParallelForwardMatchesSerial) {
    Model m = build_model(zoo::mnist_cnn(), 9);
    Rng rng(9);
    Tensor x(m.input_shape(8));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor serial = m.forward(x);
    ThreadPool pool(3);
    const Tensor parallel = m.forward(x, &pool);
    EXPECT_EQ(serial.max_abs_diff(parallel), 0.0F);
}

/// Row `row` of a batch-major tensor, as a batch-1 tensor.
Tensor batch_row(const Tensor& t, std::size_t row) {
    Tensor out(t.shape().with_batch(1));
    std::copy_n(t.data() + row * out.numel(), out.numel(), out.data());
    return out;
}

TEST(Model, RowOutputIndependentOfBatchAndPosition) {
    // An odd batch of 5 ends in a partial row tile of gemm_bt. Each row's
    // output must equal its batch-1 forward and its output when the batch
    // is reversed, bit for bit.
    constexpr std::size_t kBatch = 5;
    for (const ModelSpec& spec : zoo::paper_models()) {
        const Model m = build_model(spec, 7);
        Rng rng(21);
        Tensor x(m.input_shape(kBatch));
        x.fill_uniform(rng, 0.0F, 1.0F);
        Tensor reversed(x.shape());
        const std::size_t per_row = x.numel() / kBatch;
        for (std::size_t r = 0; r < kBatch; ++r) {
            std::copy_n(x.data() + r * per_row, per_row,
                        reversed.data() + (kBatch - 1 - r) * per_row);
        }
        const Tensor out = m.forward(x);
        const Tensor out_reversed = m.forward(reversed);
        for (std::size_t r = 0; r < kBatch; ++r) {
            const Tensor row = batch_row(out, r);
            EXPECT_EQ(row.max_abs_diff(m.forward(batch_row(x, r))), 0.0F)
                << spec.name << " row " << r;
            EXPECT_EQ(row.max_abs_diff(batch_row(out_reversed, kBatch - 1 - r)), 0.0F)
                << spec.name << " row " << r;
        }
    }
}

/// `layer`'s output for `in` without the fused epilogue: Dense and Conv2d
/// run plain gemm_bt (Conv2d on the generic patch builder), then a separate
/// bias pass, then apply_activation. Other layers run their own forward.
Tensor unfused_forward(Layer& layer, const Tensor& in) {
    Tensor out(layer.output_shape(in.shape()));
    if (auto* dense = dynamic_cast<Dense*>(&layer)) {
        gemm_bt(in, dense->weights(), out);
        const std::size_t n = out.shape()[1];
        for (std::size_t i = 0; i < out.numel(); ++i) out.at(i) += dense->bias().at(i % n);
        apply_activation(dense->activation(), out);
    } else if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
        const std::size_t in_ch = in.shape()[1];
        const std::size_t h = in.shape()[2];
        const std::size_t w = in.shape()[3];
        const std::size_t k = conv->filter_size();
        const std::size_t plane = h * w;
        const std::size_t filters = conv->filters();
        std::vector<float> patches(plane * in_ch * k * k);
        for (std::size_t b = 0; b < in.shape()[0]; ++b) {
            nn::detail::im2col_same_generic(in.data() + b * in_ch * plane, in_ch, h, w, k,
                                        patches.data());
            float* out_b = out.data() + b * filters * plane;
            gemm_bt(conv->weights().data(), patches.data(), out_b, filters, in_ch * k * k, plane);
            for (std::size_t i = 0; i < filters * plane; ++i) out_b[i] += conv->bias().at(i / plane);
        }
        apply_activation(conv->activation(), out);
    } else {
        layer.forward(in, out, nullptr);
    }
    return out;
}

TEST(Model, FusedForwardBitIdenticalToUnfused) {
    // Every zoo model, every layer: the fused forward's output equals the
    // unfused recomputation from the same layer input, bit for bit. Weight
    // initialisation leaves biases at zero, which would hide where the bias
    // lands, so each layer gets random ones.
    for (const ModelSpec& spec : zoo::all_models()) {
        Model m = build_model(spec, 3);
        Rng rng(22);
        for (std::size_t li = 0; li < m.layer_count(); ++li) {
            if (auto* dense = dynamic_cast<Dense*>(&m.layer(li))) {
                dense->bias().fill_uniform(rng, -0.5F, 0.5F);
            } else if (auto* conv = dynamic_cast<Conv2d*>(&m.layer(li))) {
                conv->bias().fill_uniform(rng, -0.5F, 0.5F);
            }
        }
        for (const std::size_t batch : {1U, 3U, 16U}) {
            Tensor x(m.input_shape(batch));
            x.fill_uniform(rng, 0.0F, 1.0F);
            const std::vector<Tensor> acts = m.forward_collect(x);
            for (std::size_t li = 0; li < m.layer_count(); ++li) {
                const Tensor unfused = unfused_forward(m.layer(li), li == 0 ? x : acts[li - 1]);
                ASSERT_EQ(unfused.shape(), acts[li].shape());
                EXPECT_EQ(std::memcmp(unfused.data(), acts[li].data(),
                                      unfused.numel() * sizeof(float)),
                          0)
                    << spec.name << " batch " << batch << " layer " << li << " "
                    << m.layer(li).describe();
            }
        }
    }
}

}  // namespace
