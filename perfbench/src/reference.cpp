#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"

namespace perfbench {

using namespace mw;

namespace {

void activate(nn::Activation act, std::vector<double>& v) {
    switch (act) {
        case nn::Activation::kIdentity:
            return;
        case nn::Activation::kRelu:
            for (double& x : v) x = x > 0.0 ? x : 0.0;
            return;
        case nn::Activation::kTanh:
            for (double& x : v) x = std::tanh(x);
            return;
        case nn::Activation::kSigmoid:
            for (double& x : v) x = 1.0 / (1.0 + std::exp(-x));
            return;
        case nn::Activation::kSoftmax: {
            const double mx = *std::max_element(v.begin(), v.end());
            double sum = 0.0;
            for (double& x : v) {
                x = std::exp(x - mx);
                sum += x;
            }
            for (double& x : v) x /= sum;
            return;
        }
    }
}

}  // namespace

std::vector<double> reference_forward(const nn::Model& model, std::span<const float> input) {
    std::vector<double> act(input.begin(), input.end());
    // (channels, h, w) of the current activation while it is spatial.
    std::size_t ch = 0, h = 0, w = 0;
    if (model.spec().is_cnn()) {
        ch = model.spec().cnn().in_channels;
        h = model.spec().cnn().in_h;
        w = model.spec().cnn().in_w;
    }
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        // The weight accessors are non-const; the reference only reads them.
        auto& layer = const_cast<nn::Layer&>(model.layer(li));
        if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
            const float* wt = dense->weights().data();
            const float* b = dense->bias().data();
            const std::size_t in = dense->in_dim();
            std::vector<double> out(dense->out_dim());
            for (std::size_t o = 0; o < out.size(); ++o) {
                double acc = b[o];
                for (std::size_t i = 0; i < in; ++i) acc += double(wt[o * in + i]) * act[i];
                out[o] = acc;
            }
            activate(dense->activation(), out);
            act = std::move(out);
        } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
            const float* wt = conv->weights().data();
            const float* b = conv->bias().data();
            const std::size_t k = conv->filter_size();
            const std::size_t cin = conv->in_channels();
            const auto pad = static_cast<long>(k / 2);
            std::vector<double> out(conv->filters() * h * w);
            for (std::size_t f = 0; f < conv->filters(); ++f) {
                for (std::size_t y = 0; y < h; ++y) {
                    for (std::size_t x = 0; x < w; ++x) {
                        double acc = b[f];
                        for (std::size_t c = 0; c < cin; ++c) {
                            for (std::size_t ky = 0; ky < k; ++ky) {
                                const long yy = static_cast<long>(y + ky) - pad;
                                if (yy < 0 || yy >= static_cast<long>(h)) continue;
                                for (std::size_t kx = 0; kx < k; ++kx) {
                                    const long xx = static_cast<long>(x + kx) - pad;
                                    if (xx < 0 || xx >= static_cast<long>(w)) continue;
                                    acc += double(wt[((f * cin + c) * k + ky) * k + kx]) *
                                           act[(c * h + static_cast<std::size_t>(yy)) * w +
                                               static_cast<std::size_t>(xx)];
                                }
                            }
                        }
                        out[(f * h + y) * w + x] = acc;
                    }
                }
            }
            activate(conv->activation(), out);
            act = std::move(out);
            ch = conv->filters();
        } else if (auto* pool = dynamic_cast<nn::MaxPool*>(&layer)) {
            const std::size_t p = pool->pool_size();
            const std::size_t oh = h / p, ow = w / p;
            std::vector<double> out(ch * oh * ow);
            for (std::size_t c = 0; c < ch; ++c) {
                for (std::size_t y = 0; y < oh; ++y) {
                    for (std::size_t x = 0; x < ow; ++x) {
                        double best = -INFINITY;
                        for (std::size_t py = 0; py < p; ++py) {
                            for (std::size_t px = 0; px < p; ++px) {
                                best = std::max(best, act[(c * h + y * p + py) * w + x * p + px]);
                            }
                        }
                        out[(c * oh + y) * ow + x] = best;
                    }
                }
            }
            act = std::move(out);
            h = oh;
            w = ow;
        } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
            // Channel-major (c, y, x) order is already the flattened order.
        } else {
            throw std::runtime_error("reference_forward: unsupported layer " + layer.describe());
        }
    }
    return act;
}

std::string compare_outputs(std::span<const float> got, const std::vector<double>& expected) {
    if (got.size() != expected.size()) {
        return "output width " + std::to_string(got.size()) + " != reference width " +
               std::to_string(expected.size());
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const double err = std::abs(double(got[i]) - expected[i]);
        if (!(err <= output_tolerance(expected[i]))) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "output[%zu] = %.7g, reference %.7g (|err| %.3g)", i,
                          double(got[i]), expected[i], err);
            return buf;
        }
    }
    return {};
}

}  // namespace perfbench
