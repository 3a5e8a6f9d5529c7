// im2col + GEMM convolution, the only Conv2d forward path. Lowering each
// sample into one patch row per output pixel turns the convolution into a
// gemm_bt against the (filters, in_ch * k * k) weight matrix, so convolution
// runs on the same register-blocked kernel as Dense and inherits its fixed
// summation order (§IV-B of the paper weighs such layout/kernel choices).
#pragma once

#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mw::nn {

/// Lower one sample (in_ch, h, w) with same-padding into `patches`, an
/// (h * w, in_ch * k * k) row-major matrix: row y * w + x holds the k x k
/// window around (y, x) of every channel, in (c, ky, kx) order. `k` must be
/// odd. The zoo's k = 3, 5 and 7 build their rows with a copy of fixed size.
void im2col_same(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                 std::size_t k, float* patches);

/// Stride-1 same-padded convolution: out[b] = W · patches(b)ᵀ + bias, then
/// ReLU if `relu`, both applied as gemm_bt stores each tile.
/// `weights` is (filters, in_ch, k, k), `bias` is (filters); `out` must be
/// (batch, filters, h, w).
void conv2d_im2col(const Tensor& in, const Tensor& weights, const Tensor& bias, Tensor& out,
                   bool relu, ThreadPool* pool = nullptr);

namespace detail {

/// im2col_same through the run-time-k loop that other filter sizes take; for
/// tests that compare it with the fixed-size builders bit for bit.
void im2col_same_generic(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                         std::size_t k, float* patches);

}  // namespace detail

}  // namespace mw::nn
