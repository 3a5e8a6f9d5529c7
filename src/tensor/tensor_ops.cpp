#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mw {
namespace {

constexpr std::size_t kParallelRowThreshold = 16;

// gemm_bt register tiles: MR rows of A by kNR rows of Bt, L k-lanes per
// accumulator (GCC/Clang vector extensions). MR is 4 at 16 lanes, where 32
// vector registers hold the 16 accumulators, and 2 at 4 and 8 lanes.
constexpr std::size_t kNR = 4;
constexpr std::size_t kMaxMR = 4;

// The 8- and 16-lane tiles pass 32- and 64-byte vectors only between
// helpers that are all always_inline, so each is compiled into its
// target-attributed entry point and no such vector crosses a real call (the
// ABI notes -Wpsabi would print do not apply). A helper or lambda that is
// not inlined would pass them under the portable ABI and read garbage: keep
// every helper always_inline.
template <std::size_t L>
struct Lanes {
    typedef float F __attribute__((vector_size(4 * L)));
    typedef std::int32_t I __attribute__((vector_size(4 * L)));
};
template <std::size_t L>
using VecF = typename Lanes<L>::F;
template <std::size_t L>
using VecI = typename Lanes<L>::I;

template <std::size_t L>
[[gnu::always_inline]] inline VecF<L> load(const float* p) {
    VecF<L> v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

// k = kv + r with kv a multiple of L. The r tail elements of a row go into
// the top r lanes of one zero-filled vector: for k >= L an overlapping load
// of the row's last L floats with the lanes already summed masked to zero,
// for k < L a copy through a zeroed buffer. No output has a scalar tail.
template <std::size_t L>
struct Tail {
    [[gnu::always_inline]] explicit Tail(std::size_t k) : kv(k - k % L), r(k % L) {
        for (std::size_t l = 0; l < L; ++l) mask[l] = l >= L - r ? -1 : 0;
    }
    std::size_t kv;
    std::size_t r;
    VecI<L> mask;
};

template <std::size_t L>
[[gnu::always_inline]] inline VecF<L> load_tail(const float* row, std::size_t k,
                                                const Tail<L>& t) {
    if (k >= L) {
        const auto last = reinterpret_cast<VecI<L>>(load<L>(row + k - L));
        return reinterpret_cast<VecF<L>>(last & t.mask);
    }
    float buf[L] = {};
    std::memcpy(buf + (L - k), row, k * sizeof(float));
    return load<L>(buf);
}

// Lane i plus lane i + L/2.
template <std::size_t L>
[[gnu::always_inline]] inline VecF<L / 2> fold(VecF<L> v) {
    VecF<L / 2> lo;
    VecF<L / 2> hi;
    std::memcpy(&lo, &v, sizeof lo);
    std::memcpy(&hi, reinterpret_cast<const char*>(&v) + sizeof lo, sizeof hi);
    return lo + hi;
}

// {x: l0+l1, x: l2+l3, y: l0+l1, y: l2+l3} of two four-lane sums.
[[gnu::always_inline]] inline VecF<4> pair_sums(VecF<4> x, VecF<4> y) {
    return __builtin_shufflevector(x, y, 0, 2, 4, 6) + __builtin_shufflevector(x, y, 1, 3, 5, 7);
}

// The lane sums of four accumulators: each folds (`fold`) until four lanes
// are left, which add as ((l0 + l1) + (l2 + l3)).
template <std::size_t L>
[[gnu::always_inline]] inline VecF<4> reduce4(VecF<L> x0, VecF<L> x1, VecF<L> x2, VecF<L> x3) {
    if constexpr (L == 4) {
        return pair_sums(pair_sums(x0, x1), pair_sums(x2, x3));
    } else {
        return reduce4<L / 2>(fold<L>(x0), fold<L>(x1), fold<L>(x2), fold<L>(x3));
    }
}

// One L-wide step of every accumulator, at column kk or (kTail) the tail.
template <std::size_t L, std::size_t MR, std::size_t NR, bool kTail>
[[gnu::always_inline]] inline void tile_step(VecF<L> (&acc)[MR][NR], const float* a,
                                             const float* bt, std::size_t k, std::size_t kk,
                                             const Tail<L>& t) {
    VecF<L> av[MR];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
        if constexpr (kTail) {
            av[r] = load_tail<L>(a + r * k, k, t);
        } else {
            av[r] = load<L>(a + r * k + kk);
        }
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NR; ++j) {
        VecF<L> bv;
        if constexpr (kTail) {
            bv = load_tail<L>(bt + j * k, k, t);
        } else {
            bv = load<L>(bt + j * k + kk);
        }
#pragma GCC unroll 4
        for (std::size_t r = 0; r < MR; ++r) acc[r][j] += av[r] * bv;
    }
}

// ReLU as std::max(x, 0.0F) computes it, x < 0 ? 0 : x, so -0.0 and NaN
// pass through: on one output or on a four-output row of a tile.
[[gnu::always_inline]] inline float relu(float x) { return x < 0.0F ? 0.0F : x; }

[[gnu::always_inline]] inline VecF<4> relu(VecF<4> x) {
    const VecI<4> negative = x < VecF<4>{};
    return reinterpret_cast<VecF<4>>(reinterpret_cast<VecI<4>>(x) & ~negative);
}

// The epilogue of c(i, j) (V = float) or of c(i, j .. j + 3) (V = VecF<4>),
// applied to the fully reduced sums.
template <typename V>
[[gnu::always_inline]] inline V finish(V sums, const GemmEpilogue& e, std::size_t i,
                                       std::size_t j) {
    if (e.bias == GemmEpilogue::Bias::kRows) {
        sums += e.values[i];
    } else if (e.bias == GemmEpilogue::Bias::kColumns) {
        V b;
        std::memcpy(&b, e.values + j, sizeof b);
        sums += b;
    }
    return e.relu ? relu(sums) : sums;
}

// Every c(i, j) is summed in one fixed order for a given (k, L), whatever
// tile computes it: lane l accumulates a[kk]·bt[kk] for kk ≡ l (mod L) below
// kv, the tail adds its r products into lanes L - r .. L - 1, then the lanes
// reduce (`reduce4`). So an output depends only on its own A row and Bt row,
// never on the batch size, the row's position or the tiling. The tile's
// first output is c(i, j) of the whole product.
template <std::size_t L, std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void gemm_bt_tile(const float* a, const float* bt, float* c,
                                                std::size_t k, std::size_t n, const Tail<L>& t,
                                                const GemmEpilogue& e, std::size_t i,
                                                std::size_t j) {
    VecF<L> acc[MR][NR] = {};
    for (std::size_t kk = 0; kk < t.kv; kk += L) tile_step<L, MR, NR, false>(acc, a, bt, k, kk, t);
    if (t.r != 0) tile_step<L, MR, NR, true>(acc, a, bt, k, 0, t);
    for (std::size_t r = 0; r < MR; ++r) {
        if constexpr (NR == 4) {
            const VecF<4> sums = reduce4<L>(acc[r][0], acc[r][1], acc[r][2], acc[r][3]);
            const VecF<4> out = finish(sums, e, i + r, j);
            std::memcpy(c + r * n, &out, sizeof out);
        } else {
            for (std::size_t jj = 0; jj < NR; ++jj) {
                const float sum = reduce4<L>(acc[r][jj], acc[r][jj], acc[r][jj], acc[r][jj])[0];
                c[r * n + jj] = finish(sum, e, i + r, j + jj);
            }
        }
    }
}

// Columns [j, j + kNR) of MR rows from row i; a narrower last panel runs
// column by column.
template <std::size_t L, std::size_t MR>
[[gnu::always_inline]] inline void gemm_bt_panel(const float* a, const float* bt, float* c,
                                                 std::size_t k, std::size_t n, std::size_t i,
                                                 std::size_t j, const Tail<L>& t,
                                                 const GemmEpilogue& e) {
    if (n - j >= kNR) return gemm_bt_tile<L, MR, kNR>(a, bt + j * k, c + j, k, n, t, e, i, j);
    for (; j < n; ++j) gemm_bt_tile<L, MR, 1>(a, bt + j * k, c + j, k, n, t, e, i, j);
}

// Each kNR-row panel of Bt meets every A row of the range before the next
// panel loads, so Bt streams from memory once per call. Rows go in tiles of
// MR, then 2, then 1.
template <std::size_t L, std::size_t MR>
[[gnu::always_inline]] inline void gemm_bt_rows(const float* a, const float* bt, float* c,
                                                std::size_t row_begin, std::size_t row_end,
                                                std::size_t k, std::size_t n,
                                                const GemmEpilogue& e) {
    const Tail<L> t(k);
    for (std::size_t j = 0; j < n; j += kNR) {
        std::size_t i = row_begin;
        for (; i + MR <= row_end; i += MR) {
            gemm_bt_panel<L, MR>(a + i * k, bt, c + i * n, k, n, i, j, t, e);
        }
        if constexpr (MR > 2) {
            if (i + 2 <= row_end) {
                gemm_bt_panel<L, 2>(a + i * k, bt, c + i * n, k, n, i, j, t, e);
                i += 2;
            }
        }
        if (i < row_end) gemm_bt_panel<L, 1>(a + i * k, bt, c + i * n, k, n, i, j, t, e);
    }
}

// One compiled copy of the rows kernel per lane width. The portable 4-lane
// copy needs no ISA flag; the x86 copies carry their own target and fuse
// multiply-add (this file builds with -ffp-contract=fast).
using RowsFn = void (*)(const float*, const float*, float*, std::size_t, std::size_t, std::size_t,
                        std::size_t, const GemmEpilogue&);

void rows4(const float* a, const float* bt, float* c, std::size_t lo, std::size_t hi,
           std::size_t k, std::size_t n, const GemmEpilogue& e) {
    gemm_bt_rows<4, 2>(a, bt, c, lo, hi, k, n, e);
}

#if defined(__x86_64__) || defined(__i386__)
// Both clear the upper vector state on the way out. GCC adds that vzeroupper
// itself only from -O2, and baseline-ISA code that runs after a dirty upper
// state is slowed down: a Debug build ran its later tests about 2x slower.
[[gnu::target("avx2,fma")]] void rows8(const float* a, const float* bt, float* c, std::size_t lo,
                                       std::size_t hi, std::size_t k, std::size_t n,
                                       const GemmEpilogue& e) {
    gemm_bt_rows<8, 2>(a, bt, c, lo, hi, k, n, e);
    _mm256_zeroupper();
}

[[gnu::target("avx512f,fma")]] void rows16(const float* a, const float* bt, float* c,
                                           std::size_t lo, std::size_t hi, std::size_t k,
                                           std::size_t n, const GemmEpilogue& e) {
    gemm_bt_rows<16, 4>(a, bt, c, lo, hi, k, n, e);
    _mm256_zeroupper();
}
#endif

constexpr std::size_t kWidths[] = {4, 8, 16};

// The rows kernel for each width 4, 8, 16, chosen once per process from the
// CPU's features; a width the host lacks falls back to the next narrower one.
struct HostKernels {
    RowsFn by_width[3] = {rows4, rows4, rows4};
    std::size_t supported = 1;  // how many of kWidths run natively
};

const HostKernels& host_kernels() {
    static const HostKernels kernels = [] {
        HostKernels h;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            h.by_width[1] = h.by_width[2] = rows8;
            h.supported = 2;
            if (__builtin_cpu_supports("avx512f")) {
                h.by_width[2] = rows16;
                h.supported = 3;
            }
        }
#endif
        return h;
    }();
    return kernels;
}

// Runs rows(begin, end) over [0, m): serially, or under `pool` in ranges of
// whole register tiles, about two per worker.
template <typename Rows>
void for_row_ranges(std::size_t m, ThreadPool* pool, const Rows& rows) {
    if (!pool || m < kParallelRowThreshold) return rows(0, m);
    const std::size_t chunk = (m / (pool->size() * 2) + kMaxMR) / kMaxMR * kMaxMR;
    pool->parallel_for(0, (m + chunk - 1) / chunk, [&](std::size_t t) {
        rows(t * chunk, std::min(m, (t + 1) * chunk));
    }, 1);
}

void run_gemm_bt(RowsFn rows, const float* a, const float* bt, float* c, std::size_t m,
                 std::size_t k, std::size_t n, ThreadPool* pool, const GemmEpilogue& e) {
    MW_CHECK(e.bias == GemmEpilogue::Bias::kNone || e.values != nullptr,
             "gemm_bt: a bias epilogue needs its values");
    for_row_ranges(m, pool,
                   [&](std::size_t lo, std::size_t hi) { rows(a, bt, c, lo, hi, k, n, e); });
}

}  // namespace

void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool,
             const GemmEpilogue& epilogue) {
    MW_CHECK(a.shape().rank() == 2 && bt.shape().rank() == 2 && c.shape().rank() == 2,
             "gemm_bt requires rank-2 tensors");
    const std::size_t m = a.shape()[0];
    const std::size_t k = a.shape()[1];
    const std::size_t n = bt.shape()[0];
    MW_CHECK(bt.shape()[1] == k, "gemm_bt inner dimension mismatch");
    MW_CHECK(c.shape()[0] == m && c.shape()[1] == n, "gemm_bt output shape mismatch");
    gemm_bt(a.data(), bt.data(), c.data(), m, k, n, pool, epilogue);
}

// The lane width is capped at k, so a short row never pays for lanes it
// cannot fill.
void gemm_bt(const float* a, const float* bt, float* c, std::size_t m, std::size_t k,
             std::size_t n, ThreadPool* pool, const GemmEpilogue& epilogue) {
    const std::size_t w = k >= 16 ? 2 : k >= 8 ? 1 : 0;
    run_gemm_bt(host_kernels().by_width[w], a, bt, c, m, k, n, pool, epilogue);
}

namespace detail {

std::vector<std::size_t> gemm_bt_lane_widths() {
    return {kWidths, kWidths + host_kernels().supported};
}

void gemm_bt_lanes(std::size_t lanes, const float* a, const float* bt, float* c, std::size_t m,
                   std::size_t k, std::size_t n, ThreadPool* pool,
                   const GemmEpilogue& epilogue) {
    const HostKernels& h = host_kernels();
    const auto* w = std::find(kWidths, kWidths + h.supported, lanes);
    MW_CHECK(w != kWidths + h.supported, "gemm_bt: this host cannot run that lane width");
    run_gemm_bt(h.by_width[w - kWidths], a, bt, c, m, k, n, pool, epilogue);
}

}  // namespace detail

}  // namespace mw
