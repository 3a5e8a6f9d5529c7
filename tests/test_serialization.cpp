// Tests for whole-model serialization (.mwmodel files) and the im2col
// convolution path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/model_builder.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo.hpp"
#include "sched/dispatcher.hpp"

namespace {

using namespace mw;
using namespace mw::nn;

// ---- spec text round trips --------------------------------------------------

class SpecRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SpecRoundTrip, TextPreservesArchitecture) {
    const ModelSpec original = zoo::by_name(GetParam());
    const ModelSpec parsed = spec_from_text(spec_to_text(original));
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.is_cnn(), original.is_cnn());
    EXPECT_EQ(parsed.softmax_output, original.softmax_output);
    if (original.is_cnn()) {
        EXPECT_EQ(parsed.cnn().blocks.size(), original.cnn().blocks.size());
        EXPECT_EQ(parsed.cnn().in_h, original.cnn().in_h);
        EXPECT_EQ(parsed.cnn().dense_hidden, original.cnn().dense_hidden);
        EXPECT_EQ(parsed.cnn().output_dim, original.cnn().output_dim);
        for (std::size_t b = 0; b < parsed.cnn().blocks.size(); ++b) {
            EXPECT_EQ(parsed.cnn().blocks[b].convs, original.cnn().blocks[b].convs);
            EXPECT_EQ(parsed.cnn().blocks[b].filters, original.cnn().blocks[b].filters);
            EXPECT_EQ(parsed.cnn().blocks[b].filter_size,
                      original.cnn().blocks[b].filter_size);
            EXPECT_EQ(parsed.cnn().blocks[b].pool_size, original.cnn().blocks[b].pool_size);
        }
    } else {
        EXPECT_EQ(parsed.ffnn().input_dim, original.ffnn().input_dim);
        EXPECT_EQ(parsed.ffnn().hidden, original.ffnn().hidden);
        EXPECT_EQ(parsed.ffnn().output_dim, original.ffnn().output_dim);
    }
    // The rebuilt models agree structurally.
    const Model a = build_model(original, 7);
    const Model b = build_model(parsed, 7);
    EXPECT_EQ(a.desc().total_neurons, b.desc().total_neurons);
    EXPECT_EQ(a.param_count(), b.param_count());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SpecRoundTrip,
                         ::testing::Values("simple", "mnist-small", "mnist-deep",
                                           "mnist-cnn", "cifar-10", "cnn-aug-p4f16",
                                           "ffnn-aug-d6taper"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(SpecText, MalformedHeadersRejected) {
    EXPECT_THROW(spec_from_text("garbage"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nname x\nfamily alien\n"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nfamily ffnn\n"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nname x\nunknown_key 3\n"), IoError);
}

// ---- full model files -------------------------------------------------------

TEST(ModelFile, SaveLoadPreservesPredictions) {
    const std::string path = "/tmp/mw_test_model.mwmodel";
    const Model original = build_model(zoo::mnist_cnn(), 77);
    save_model(original, path);

    const Model restored = load_model(path);
    EXPECT_EQ(restored.name(), "mnist-cnn");

    Rng rng(3);
    Tensor x(original.input_shape(4));
    x.fill_uniform(rng, 0.0F, 1.0F);
    EXPECT_EQ(original.forward(x).max_abs_diff(restored.forward(x)), 0.0F);
    std::filesystem::remove(path);
}

TEST(ModelFile, MissingFileThrows) { EXPECT_THROW(load_model("/nonexistent.mwmodel"), IoError); }

TEST(ModelFile, TruncatedWeightsRejected) {
    const std::string path = "/tmp/mw_test_trunc.mwmodel";
    const Model original = build_model(zoo::simple(), 7);
    save_model(original, path);
    // Chop the tail of the weights blob.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 16);
    EXPECT_THROW(load_model(path), IoError);
    std::filesystem::remove(path);
}

TEST(ModelFile, DispatcherDynamicallyAddsModel) {
    const std::string path = "/tmp/mw_test_dynamic.mwmodel";
    save_model(build_model(zoo::mnist_small(), 5), path);

    auto registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);
    const std::string name = dispatcher.register_from_file(path);
    EXPECT_EQ(name, "mnist-small");
    dispatcher.deploy(name);
    EXPECT_TRUE(registry.at("gtx1080ti").has_model("mnist-small"));

    // Scheduling features come straight from the restored descriptor.
    EXPECT_EQ(dispatcher.desc(name).total_neurons, 784U + 800 + 10);
    std::filesystem::remove(path);
}

// ---- im2col convolution -----------------------------------------------------

TEST(Im2col, PatchMatrixOfIdentityKernelPosition) {
    // A 1-channel 3x3 input, k=3: one patch row per pixel, one column per tap
    // (c, ky, kx). The centre tap (ky=1, kx=1) of every pixel is the pixel.
    Tensor in(Shape{1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i) in.at(i) = static_cast<float>(i + 1);
    Tensor patches(Shape{9, 9});
    im2col_same(in.data(), 1, 3, 3, 3, patches.data());
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(patches.at(i, 4), static_cast<float>(i + 1));  // tap (0,1,1)
    }
    // Top-left tap (ky=0,kx=0): zero padding for pixel (0,0); the centre
    // pixel's top-left neighbour is input(0,0).
    EXPECT_EQ(patches.at(0, 0), 0.0F);
    EXPECT_EQ(patches.at(4, 0), 1.0F);
    // Bottom-right tap of pixel (1,1) is input(2,2); of pixel (2,2), padding.
    EXPECT_EQ(patches.at(4, 8), 9.0F);
    EXPECT_EQ(patches.at(8, 8), 0.0F);
}

TEST(Im2col, FixedSizeBuildersMatchGeneric) {
    // The compiled-in k = 3, 5 and 7 builders write the generic run-time-k
    // loop's patch matrix bit for bit, at one, a few and many channels and
    // at planes smaller than, near and larger than the filter.
    Rng rng(14);
    for (const std::size_t k : {3U, 5U, 7U}) {
        for (const std::size_t in_ch : {1U, 3U, 32U}) {
            for (const auto [h, w] : {std::pair<std::size_t, std::size_t>{1, 1}, {5, 7}, {32, 32}}) {
                Tensor in(Shape{in_ch, h, w});
                in.fill_normal(rng, 0.0F, 1.0F);
                const std::size_t numel = h * w * in_ch * k * k;
                std::vector<float> fixed(numel);
                std::vector<float> generic(numel);
                im2col_same(in.data(), in_ch, h, w, k, fixed.data());
                nn::detail::im2col_same_generic(in.data(), in_ch, h, w, k, generic.data());
                EXPECT_EQ(std::memcmp(fixed.data(), generic.data(), numel * sizeof(float)), 0)
                    << "k=" << k << " channels=" << in_ch << " plane=" << h << "x" << w;
            }
        }
    }
}

/// Reference convolution: the direct same-padded loop, summed in double.
Tensor naive_conv(Conv2d& conv, const Tensor& in) {
    Tensor out(conv.output_shape(in.shape()));
    const std::size_t batch = in.shape()[0];
    const std::size_t channels = in.shape()[1];
    const std::size_t h = in.shape()[2];
    const std::size_t w = in.shape()[3];
    const std::size_t k = conv.filter_size();
    const std::size_t pad = k / 2;
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t f = 0; f < conv.filters(); ++f) {
            for (std::size_t y = 0; y < h; ++y) {
                for (std::size_t x = 0; x < w; ++x) {
                    double acc = conv.bias().at(f);
                    for (std::size_t c = 0; c < channels; ++c) {
                        for (std::size_t ky = 0; ky < k; ++ky) {
                            for (std::size_t kx = 0; kx < k; ++kx) {
                                // Unsigned wrap-around puts padding taps >= h / w.
                                const std::size_t yy = y + ky - pad;
                                const std::size_t xx = x + kx - pad;
                                if (yy >= h || xx >= w) continue;
                                acc += static_cast<double>(
                                           conv.weights().at(((f * channels + c) * k + ky) * k + kx)) *
                                       in.at(((b * channels + c) * h + yy) * w + xx);
                            }
                        }
                    }
                    out.at(((b * conv.filters() + f) * h + y) * w + x) = static_cast<float>(acc);
                }
            }
        }
    }
    apply_activation(conv.activation(), out);
    return out;
}

class ConvEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvEquivalence, Im2colMatchesDirect) {
    const auto [in_ch, filters, k, hw] = GetParam();
    Conv2d conv(in_ch, filters, k, Activation::kRelu);
    Rng rng(11);
    conv.weights().fill_normal(rng, 0.0F, 0.2F);
    conv.bias().fill_uniform(rng, -0.1F, 0.1F);

    Tensor in(Shape{3, static_cast<std::size_t>(in_ch), static_cast<std::size_t>(hw),
                    static_cast<std::size_t>(hw)});
    in.fill_normal(rng, 0.0F, 1.0F);
    Tensor out(conv.output_shape(in.shape()));
    conv.forward(in, out, nullptr);

    EXPECT_LT(naive_conv(conv, in).max_abs_diff(out), 2e-4F);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvEquivalence,
                         ::testing::Values(std::tuple{1, 1, 3, 6}, std::tuple{1, 32, 3, 28},
                                           std::tuple{3, 32, 3, 16}, std::tuple{3, 8, 5, 12},
                                           std::tuple{2, 4, 7, 14}, std::tuple{8, 16, 3, 8}));

TEST(Im2col, ParallelMatchesSerial) {
    Conv2d conv(3, 16, 3, Activation::kIdentity);
    Rng rng(12);
    conv.weights().fill_normal(rng, 0.0F, 0.2F);
    ThreadPool pool(3);
    for (const std::size_t batch : {1U, 6U}) {
        Tensor in(Shape{batch, 3, 16, 16});
        in.fill_normal(rng, 0.0F, 1.0F);
        Tensor serial(conv.output_shape(in.shape()));
        conv.forward(in, serial, nullptr);
        Tensor parallel(conv.output_shape(in.shape()));
        conv.forward(in, parallel, &pool);
        EXPECT_EQ(serial.max_abs_diff(parallel), 0.0F) << "batch " << batch;
    }
}

TEST(Im2col, FullModelForwardEquivalent) {
    // mnist-cnn run layer by layer with every conv layer replaced by the
    // reference loop; predictions must match the model's own forward.
    Model model = build_model(zoo::mnist_cnn(), 9);
    Rng rng(13);
    Tensor x(model.input_shape(4));
    x.fill_uniform(rng, 0.0F, 1.0F);
    Tensor reference(x);
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        Layer& layer = model.layer(li);
        if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
            reference = naive_conv(*conv, reference);
            continue;
        }
        Tensor next(layer.output_shape(reference.shape()));
        layer.forward(reference, next, nullptr);
        reference = std::move(next);
    }
    EXPECT_LT(model.forward(x).max_abs_diff(reference), 1e-4F);
}

}  // namespace
