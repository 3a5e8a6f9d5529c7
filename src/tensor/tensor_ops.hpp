// Dense linear algebra kernels used by the inference engine.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mw {

/// What gemm_bt does to each C(i, j) once its dot product is fully summed:
/// add a bias along rows (values[i], one per A row: a convolution's
/// per-filter bias) or along columns (values[j], one per Bt row: a dense
/// layer's per-node bias), then optionally ReLU. `dot + bias`, then
/// `x < 0 ? 0 : x` (std::max(x, 0.0F), so -0.0 stays -0.0): the bits of a
/// separate bias pass and apply_activation, without their passes over C.
struct GemmEpilogue {
    enum class Bias { kNone, kRows, kColumns };
    Bias bias = Bias::kNone;
    const float* values = nullptr;  ///< m (kRows) or n (kColumns) floats
    bool relu = false;
};

/// C = A(m x k) * B^T where Bt is stored (n x k). This matches the dense
/// layer layout (weights stored one row per output node) and keeps both
/// operands streaming row-major — the access pattern §IV-B of the paper
/// settles on for CPU SIMD friendliness. Register-blocked over 4, 8 or 16
/// vector lanes: the widest the host's CPU runs (chosen once per process),
/// capped at k. Each C(i, j) is summed in one fixed order for a given
/// (k, lane width), so within a process it depends only on A row i and Bt
/// row j: never on m, the row's position, the tiling or `pool`. Hosts with
/// different widths may differ in the last bits. `epilogue` is applied to
/// each tile of C just before it is stored.
void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool = nullptr,
             const GemmEpilogue& epilogue = {});

/// gemm_bt on raw row-major buffers: a (m x k), bt (n x k), c (m x n).
void gemm_bt(const float* a, const float* bt, float* c, std::size_t m, std::size_t k,
             std::size_t n, ThreadPool* pool = nullptr, const GemmEpilogue& epilogue = {});

namespace detail {

/// The lane widths gemm_bt can run on this host, narrowest first: {4},
/// {4, 8} or {4, 8, 16}. For tests that check every width.
std::vector<std::size_t> gemm_bt_lane_widths();

/// gemm_bt at exactly `lanes` lanes, whatever k is; `lanes` must be one of
/// gemm_bt_lane_widths().
void gemm_bt_lanes(std::size_t lanes, const float* a, const float* bt, float* c, std::size_t m,
                   std::size_t k, std::size_t n, ThreadPool* pool = nullptr,
                   const GemmEpilogue& epilogue = {});

}  // namespace detail
}  // namespace mw
