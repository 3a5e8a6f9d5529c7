#include "nn/im2col.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "tensor/tensor_ops.hpp"

namespace mw::nn {

// The sample is first copied into a zero-bordered plane, so no k-wide run of
// a patch row needs a bounds check. Scratch buffers are per thread and only
// grow, so a steady stream of convolutions allocates nothing.
void im2col_same(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                 std::size_t k, float* patches) {
    MW_CHECK(k % 2 == 1, "im2col_same requires an odd filter size");
    const std::size_t pad = k / 2;
    const std::size_t ph = h + 2 * pad;
    const std::size_t pw = w + 2 * pad;
    thread_local std::vector<float> padded;
    padded.assign(in_ch * ph * pw, 0.0F);
    for (std::size_t c = 0; c < in_ch; ++c) {
        for (std::size_t y = 0; y < h; ++y) {
            std::copy_n(input + (c * h + y) * w, w, padded.data() + (c * ph + y + pad) * pw + pad);
        }
    }
    float* dst = patches;
    for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
            for (std::size_t c = 0; c < in_ch; ++c) {
                for (std::size_t dy = 0; dy < k; ++dy, dst += k) {
                    std::copy_n(padded.data() + (c * ph + y + dy) * pw + x, k, dst);
                }
            }
        }
    }
}

void conv2d_im2col(const Tensor& in, const Tensor& weights, const Tensor& bias, Tensor& out,
                   ThreadPool* pool) {
    MW_CHECK(in.shape().rank() == 4 && weights.shape().rank() == 4,
             "conv2d_im2col expects rank-4 input and weights");
    const std::size_t batch = in.shape()[0];
    const std::size_t in_ch = in.shape()[1];
    const std::size_t h = in.shape()[2];
    const std::size_t w = in.shape()[3];
    const std::size_t filters = weights.shape()[0];
    const std::size_t k = weights.shape()[2];
    MW_CHECK(weights.shape()[1] == in_ch && weights.shape()[3] == k,
             "weight shape mismatch");
    MW_CHECK(bias.numel() == filters, "bias size mismatch");
    MW_CHECK(out.shape() == Shape({batch, filters, h, w}), "output shape mismatch");

    const std::size_t taps = in_ch * k * k;
    const std::size_t plane = h * w;

    auto run_sample = [&](std::size_t b, ThreadPool* gemm_pool) {
        thread_local std::vector<float> patches;
        patches.resize(plane * taps);
        im2col_same(in.data() + b * in_ch * plane, in_ch, h, w, k, patches.data());
        float* out_base = out.data() + b * filters * plane;
        gemm_bt(weights.data(), patches.data(), out_base, filters, taps, plane, gemm_pool);
        for (std::size_t f = 0; f < filters; ++f) {
            float* out_row = out_base + f * plane;
            const float fb = bias.at(f);
            for (std::size_t x = 0; x < plane; ++x) out_row[x] += fb;
        }
    };

    if (pool && batch > 1) {
        pool->parallel_for(0, batch, [&](std::size_t b) { run_sample(b, nullptr); }, 1);
    } else {
        for (std::size_t b = 0; b < batch; ++b) run_sample(b, pool);
    }
}

}  // namespace mw::nn
