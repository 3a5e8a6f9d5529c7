#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "tensor/tensor_ops.hpp"

namespace mw::nn {

namespace {

// Floats a fixed-size run may read past the end of the bordered plane.
constexpr std::size_t kSpill = 3;

// The sample copied into a zero-bordered plane, so no k-wide run of a patch
// row needs a bounds check. Scratch buffers are per thread and only grow, so
// a steady stream of convolutions allocates nothing.
const float* bordered(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                      std::size_t pad) {
    const std::size_t ph = h + 2 * pad;
    const std::size_t pw = w + 2 * pad;
    thread_local std::vector<float> padded;
    padded.assign(in_ch * ph * pw + kSpill, 0.0F);
    for (std::size_t c = 0; c < in_ch; ++c) {
        for (std::size_t y = 0; y < h; ++y) {
            std::copy_n(input + (c * h + y) * w, w, padded.data() + (c * ph + y + pad) * pw + pad);
        }
    }
    return padded.data();
}

// Patch rows [begin, end) from the bordered plane: one k-float run per
// (c, ky), in (c, ky, kx) order. For a filter size K fixed at compile time a
// run moves as whole 4-float vectors, one fixed-size copy that spills up to
// kSpill floats into the next run, which overwrites them; K = 0 reads `k` at
// run time and copies each run exactly. Returns the end of what it wrote.
template <std::size_t K>
float* patch_rows(const float* padded, std::size_t in_ch, std::size_t h, std::size_t w,
                  std::size_t k, std::size_t begin, std::size_t end, float* dst) {
    constexpr std::size_t kMoved = (K + 3) / 4 * 4;
    static_assert(kMoved - K <= kSpill);
    const std::size_t kk = K != 0 ? K : k;
    const std::size_t ph = h + kk - 1;
    const std::size_t pw = w + kk - 1;
    for (std::size_t p = begin; p < end; ++p) {
        const float* window = padded + (p / w) * pw + p % w;
        for (std::size_t c = 0; c < in_ch; ++c) {
            const float* src = window + c * ph * pw;
#pragma GCC unroll 8
            for (std::size_t dy = 0; dy < kk; ++dy, dst += kk, src += pw) {
                if constexpr (K != 0) {
                    std::memcpy(dst, src, kMoved * sizeof(float));
                } else {
                    std::copy_n(src, k, dst);
                }
            }
        }
    }
    return dst;
}

}  // namespace

// Every patch row but the last goes through the fixed-size copies; the last
// is copied exactly, so nothing spills past the end of `patches`.
void im2col_same(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                 std::size_t k, float* patches) {
    MW_CHECK(k % 2 == 1, "im2col_same requires an odd filter size");
    MW_CHECK(h > 0 && w > 0, "im2col_same requires a non-empty plane");
    const float* padded = bordered(input, in_ch, h, w, k / 2);
    const std::size_t last = h * w - 1;
    switch (k) {
        case 3: patches = patch_rows<3>(padded, in_ch, h, w, k, 0, last, patches); break;
        case 5: patches = patch_rows<5>(padded, in_ch, h, w, k, 0, last, patches); break;
        case 7: patches = patch_rows<7>(padded, in_ch, h, w, k, 0, last, patches); break;
        default: patches = patch_rows<0>(padded, in_ch, h, w, k, 0, last, patches); break;
    }
    patch_rows<0>(padded, in_ch, h, w, k, last, last + 1, patches);
}

namespace detail {

void im2col_same_generic(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                         std::size_t k, float* patches) {
    MW_CHECK(k % 2 == 1, "im2col_same requires an odd filter size");
    patch_rows<0>(bordered(input, in_ch, h, w, k / 2), in_ch, h, w, k, 0, h * w, patches);
}

}  // namespace detail

void conv2d_im2col(const Tensor& in, const Tensor& weights, const Tensor& bias, Tensor& out,
                   bool relu, ThreadPool* pool) {
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
        gemm_bt(weights.data(), patches.data(), out.data() + b * filters * plane, filters, taps,
                plane, gemm_pool, {GemmEpilogue::Bias::kRows, bias.data(), relu});
    };

    if (pool && batch > 1) {
        pool->parallel_for(0, batch, [&](std::size_t b) { run_sample(b, nullptr); }, 1);
    } else {
        for (std::size_t b = 0; b < batch; ++b) run_sample(b, pool);
    }
}

}  // namespace mw::nn
