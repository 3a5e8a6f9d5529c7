#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace mw {
namespace {

constexpr std::size_t kParallelRowThreshold = 16;

void gemm_rows(const float* a, const float* b, float* c, std::size_t row_begin,
               std::size_t row_end, std::size_t k, std::size_t n) {
    // i-k-j loop order: the innermost loop streams both B and C rows, which
    // vectorises cleanly.
    for (std::size_t i = row_begin; i < row_end; ++i) {
        float* c_row = c + i * n;
        std::fill_n(c_row, n, 0.0F);
        const float* a_row = a + i * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float a_ik = a_row[kk];
            if (a_ik == 0.0F) continue;
            const float* b_row = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
        }
    }
}

// gemm_bt register tiles: kMR rows of A by kNR rows of Bt, four k-lanes per
// accumulator (portable vector extension; SSE/NEON width, no ISA flag).
using v4 = float __attribute__((vector_size(16)));
constexpr std::size_t kMR = 2;
constexpr std::size_t kNR = 4;

inline v4 load4(const float* p) {
    v4 v = {};
    std::memcpy(&v, p, sizeof v);
    return v;
}

// Every c(i, j) is summed in one fixed order, whatever tile computes it:
// lane l accumulates a[kk]·bt[kk] for kk ≡ l (mod 4) below k & ~3, the lanes
// reduce as ((l0 + l1) + (l2 + l3)), then the k % 4 tail adds in order. So an
// output depends only on its own A row and Bt row, never on the batch size,
// the row's position or the tiling.
template <std::size_t MR, std::size_t NR>
void gemm_bt_tile(const float* a, const float* bt, float* c, std::size_t k, std::size_t n) {
    const std::size_t k4 = k & ~std::size_t{3};
    v4 acc[MR][NR] = {};
    // Fully unrolled so the accumulators stay in registers at -O2.
    for (std::size_t kk = 0; kk < k4; kk += 4) {
        v4 av[MR] = {};
#pragma GCC unroll 4
        for (std::size_t r = 0; r < MR; ++r) av[r] = load4(a + r * k + kk);
#pragma GCC unroll 4
        for (std::size_t j = 0; j < NR; ++j) {
            const v4 bv = load4(bt + j * k + kk);
#pragma GCC unroll 4
            for (std::size_t r = 0; r < MR; ++r) acc[r][j] += av[r] * bv;
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        for (std::size_t j = 0; j < NR; ++j) {
            float s = (acc[r][j][0] + acc[r][j][1]) + (acc[r][j][2] + acc[r][j][3]);
            for (std::size_t kk = k4; kk < k; ++kk) s += a[r * k + kk] * bt[j * k + kk];
            c[r * n + j] = s;
        }
    }
}

// Columns [j, j + kNR) of MR rows; a narrower last panel runs column by column.
template <std::size_t MR>
void gemm_bt_panel(const float* a, const float* bt, float* c, std::size_t k, std::size_t n,
                   std::size_t j) {
    if (n - j >= kNR) return gemm_bt_tile<MR, kNR>(a, bt + j * k, c + j, k, n);
    for (; j < n; ++j) gemm_bt_tile<MR, 1>(a, bt + j * k, c + j, k, n);
}

// Each kNR-row panel of Bt meets every A row of the range before the next
// panel loads, so Bt streams from memory once per call.
void gemm_bt_rows(const float* a, const float* bt, float* c, std::size_t row_begin,
                  std::size_t row_end, std::size_t k, std::size_t n) {
    for (std::size_t j = 0; j < n; j += kNR) {
        std::size_t i = row_begin;
        for (; i + kMR <= row_end; i += kMR) gemm_bt_panel<kMR>(a + i * k, bt, c + i * n, k, n, j);
        if (i < row_end) gemm_bt_panel<1>(a + i * k, bt, c + i * n, k, n, j);
    }
}

// Runs rows(begin, end) over [0, m): serially, or under `pool` in ranges of
// whole register tiles, about two per worker.
template <typename Rows>
void for_row_ranges(std::size_t m, ThreadPool* pool, const Rows& rows) {
    if (!pool || m < kParallelRowThreshold) return rows(0, m);
    const std::size_t chunk = (m / (pool->size() * 2) + kMR) / kMR * kMR;
    pool->parallel_for(0, (m + chunk - 1) / chunk, [&](std::size_t t) {
        rows(t * chunk, std::min(m, (t + 1) * chunk));
    }, 1);
}

}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool) {
    MW_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 && c.shape().rank() == 2,
             "gemm requires rank-2 tensors");
    const std::size_t m = a.shape()[0];
    const std::size_t k = a.shape()[1];
    const std::size_t n = b.shape()[1];
    MW_CHECK(b.shape()[0] == k, "gemm inner dimension mismatch");
    MW_CHECK(c.shape()[0] == m && c.shape()[1] == n, "gemm output shape mismatch");
    for_row_ranges(m, pool, [&](std::size_t lo, std::size_t hi) {
        gemm_rows(a.data(), b.data(), c.data(), lo, hi, k, n);
    });
}

void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool) {
    MW_CHECK(a.shape().rank() == 2 && bt.shape().rank() == 2 && c.shape().rank() == 2,
             "gemm_bt requires rank-2 tensors");
    const std::size_t m = a.shape()[0];
    const std::size_t k = a.shape()[1];
    const std::size_t n = bt.shape()[0];
    MW_CHECK(bt.shape()[1] == k, "gemm_bt inner dimension mismatch");
    MW_CHECK(c.shape()[0] == m && c.shape()[1] == n, "gemm_bt output shape mismatch");
    gemm_bt(a.data(), bt.data(), c.data(), m, k, n, pool);
}

void gemm_bt(const float* a, const float* bt, float* c, std::size_t m, std::size_t k,
             std::size_t n, ThreadPool* pool) {
    for_row_ranges(m, pool, [&](std::size_t lo, std::size_t hi) {
        gemm_bt_rows(a, bt, c, lo, hi, k, n);
    });
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
    MW_CHECK(y.shape().rank() == 2, "add_bias_rows requires rank-2 activations");
    const std::size_t m = y.shape()[0];
    const std::size_t n = y.shape()[1];
    MW_CHECK(bias.numel() == n, "bias width mismatch");
    for (std::size_t i = 0; i < m; ++i) {
        float* row = y.data() + i * n;
        const float* b = bias.data();
        for (std::size_t j = 0; j < n; ++j) row[j] += b[j];
    }
}

void scale_inplace(Tensor& t, float scale) {
    for (auto& x : t.span()) x *= scale;
}

void add_inplace(Tensor& out, const Tensor& a) {
    MW_CHECK(out.shape() == a.shape(), "add_inplace shape mismatch");
    const float* src = a.data();
    float* dst = out.data();
    for (std::size_t i = 0; i < out.numel(); ++i) dst[i] += src[i];
}

double dot(const Tensor& a, const Tensor& b) {
    MW_CHECK(a.shape() == b.shape(), "dot shape mismatch");
    double acc = 0.0;
    const float* pa = a.data();
    const float* pb = b.data();
    for (std::size_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
    return acc;
}

}  // namespace mw
