// Dense linear algebra kernels used by the inference engine.
#pragma once

#include <cstddef>

#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mw {

/// C = A(m x k) * B(k x n). Ranges of rows of C are distributed across
/// `pool` when it is non-null and m is large enough to amortise.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool = nullptr);

/// C = A(m x k) * B^T where Bt is stored (n x k). This matches the dense
/// layer layout (weights stored one row per output node) and keeps both
/// operands streaming row-major — the access pattern §IV-B of the paper
/// settles on for CPU SIMD friendliness. Register-blocked; each C(i, j) is
/// summed in one fixed order, so it depends only on A row i and Bt row j:
/// never on m, the row's position, the tiling or `pool`.
void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool = nullptr);

/// gemm_bt on raw row-major buffers: a (m x k), bt (n x k), c (m x n).
void gemm_bt(const float* a, const float* bt, float* c, std::size_t m, std::size_t k,
             std::size_t n, ThreadPool* pool = nullptr);

/// y(m x n) += bias(n), broadcast over rows.
void add_bias_rows(Tensor& y, const Tensor& bias);

/// Elementwise: out = out * scale.
void scale_inplace(Tensor& t, float scale);

/// out += a (same shape).
void add_inplace(Tensor& out, const Tensor& a);

/// Frobenius dot product of two same-shaped tensors.
double dot(const Tensor& a, const Tensor& b);

}  // namespace mw
