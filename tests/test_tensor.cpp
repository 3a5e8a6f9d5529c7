// Unit tests for shapes, tensors and the linear-algebra kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/activation.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

TEST(Shape, BasicProperties) {
    const Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.rank(), 4U);
    EXPECT_EQ(s.numel(), 120U);
    EXPECT_EQ(s.stride(3), 1U);
    EXPECT_EQ(s.stride(2), 5U);
    EXPECT_EQ(s.stride(0), 60U);
    EXPECT_EQ(s.str(), "(2, 3, 4, 5)");
}

TEST(Shape, Equality) {
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_FALSE(Shape({2, 3}) == Shape({3, 2}));
    EXPECT_FALSE(Shape({2, 3}) == Shape({2, 3, 1}));
}

TEST(Shape, WithBatch) {
    const Shape s{8, 3, 32, 32};
    const Shape t = s.with_batch(64);
    EXPECT_EQ(t[0], 64U);
    EXPECT_EQ(t[1], 3U);
}

TEST(Shape, RejectsBadDims) {
    EXPECT_THROW(Shape({0, 3}), InvalidArgument);
    EXPECT_THROW(Shape({1, 2, 3, 4, 5}), InvalidArgument);
    EXPECT_THROW((void)Shape({2})[5], InvalidArgument);
}

TEST(Tensor, ZeroInitialised) {
    Tensor t(Shape{4, 4});
    for (const float x : t.span()) EXPECT_EQ(x, 0.0F);
}

TEST(Tensor, DeepCopySemantics) {
    Tensor a(Shape{2, 2});
    a.at(0, 0) = 1.0F;
    Tensor b = a;
    b.at(0, 0) = 2.0F;
    EXPECT_EQ(a.at(0, 0), 1.0F);
    EXPECT_EQ(b.at(0, 0), 2.0F);
    a = b;
    EXPECT_EQ(a.at(0, 0), 2.0F);
}

TEST(Tensor, AlignedStorage) {
    Tensor t(Shape{31});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % kSimdAlignBytes, 0U);
}

TEST(Tensor, RowAccess) {
    Tensor t(Shape{3, 4});
    t.at(1, 2) = 7.0F;
    EXPECT_EQ(t.row(1)[2], 7.0F);
    EXPECT_THROW((void)t.row(3), InvalidArgument);
}

TEST(Tensor, BoundsChecking) {
    Tensor t(Shape{2, 2});
    EXPECT_THROW(t.at(4), InvalidArgument);
    EXPECT_THROW(t.at(2, 0), InvalidArgument);
}

TEST(Tensor, FillAndDiff) {
    Tensor a(Shape{8});
    Tensor b(Shape{8});
    a.fill(1.0F);
    b.fill(1.5F);
    EXPECT_NEAR(a.max_abs_diff(b), 0.5F, 1e-6F);
}

TEST(Tensor, RandomFillsAreDeterministic) {
    Rng r1(42);
    Rng r2(42);
    Tensor a(Shape{64});
    Tensor b(Shape{64});
    a.fill_normal(r1, 0.0F, 1.0F);
    b.fill_normal(r2, 0.0F, 1.0F);
    EXPECT_EQ(a.max_abs_diff(b), 0.0F);
}

// C(i, j) = sum_kk a(i, kk) bt(j, kk) in double precision, the reference
// every gemm_bt check compares against.
double reference_dot(const Tensor& a, const Tensor& bt, std::size_t i, std::size_t j,
                     double* magnitude = nullptr) {
    double ref = 0.0;
    double mag = 0.0;
    for (std::size_t kk = 0; kk < a.shape()[1]; ++kk) {
        const double p = static_cast<double>(a.at(i, kk)) * bt.at(j, kk);
        ref += p;
        mag += std::abs(p);
    }
    if (magnitude != nullptr) *magnitude = mag;
    return ref;
}

TEST(GemmBt, MatchesNaive) {
    Rng rng(1);
    const std::size_t m = 17;
    const std::size_t k = 23;
    const std::size_t n = 9;
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    a.fill_uniform(rng, -1.0F, 1.0F);
    bt.fill_uniform(rng, -1.0F, 1.0F);
    Tensor c(Shape{m, n});
    gemm_bt(a, bt, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(c.at(i, j), reference_dot(a, bt, i, j), 1e-4);
        }
    }
}

TEST(GemmBt, EquivalentToProductWithTranspose) {
    // C = A * B with B given transposed: C(i, j) = sum_kk A(i, kk) B(kk, j).
    Rng rng(3);
    const std::size_t m = 12;
    const std::size_t k = 20;
    const std::size_t n = 15;
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    b.fill_normal(rng, 0.0F, 1.0F);
    Tensor bt(Shape{n, k});
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < n; ++j) bt.at(j, i) = b.at(i, j);
    }
    Tensor c(Shape{m, n});
    gemm_bt(a, bt, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                ref += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
            }
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

// Runs `check(lanes)` for 4, 8 and 16 lanes; a width the host's CPU lacks is
// reported as skipped. The 4-lane copy runs everywhere.
template <typename Check>
void for_each_lane_width(const Check& check) {
    const std::vector<std::size_t> supported = detail::gemm_bt_lane_widths();
    std::vector<std::size_t> missing;
    for (const std::size_t lanes : {4U, 8U, 16U}) {
        if (std::find(supported.begin(), supported.end(), lanes) == supported.end()) {
            missing.push_back(lanes);
            continue;
        }
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        check(lanes);
    }
    if (!missing.empty()) {
        std::string widths;
        for (const std::size_t lanes : missing) widths += " " + std::to_string(lanes);
        GTEST_SKIP() << "this CPU has no gemm_bt kernel for lane widths" << widths;
    }
}

TEST(GemmBt, MatchesDoubleReferenceOnTileEdges) {
    // At each lane width L: every m, n below or across the 4-row and 4-column
    // register tile edges, every k from 1 to 2L + 1 and the zoo's 27, 784 and
    // 2500. Tolerance: the worst-case rounding bound gamma_d * sum|a_i b_i|
    // of a float dot product summed to depth d = k/L + log2 L + k % L (a
    // lane's k/L products, the tail step and the log2 L lane reduction), with
    // gamma_d = d u / (1 - d u) and u = 2^-24.
    for_each_lane_width([](std::size_t lanes) {
        Rng rng(4);
        std::vector<std::size_t> depths = {27, 784, 2500};
        for (std::size_t k = 1; k <= 2 * lanes + 1; ++k) depths.push_back(k);
        const auto log2_lanes = static_cast<std::size_t>(std::countr_zero(lanes));
        for (const std::size_t k : depths) {
            for (const std::size_t m : {1U, 2U, 3U, 4U, 5U, 7U, 9U}) {
                for (const std::size_t n : {1U, 3U, 4U, 5U, 9U}) {
                    Tensor a(Shape{m, k});
                    Tensor bt(Shape{n, k});
                    a.fill_normal(rng, 0.0F, 1.0F);
                    bt.fill_normal(rng, 0.0F, 1.0F);
                    Tensor c(Shape{m, n});
                    detail::gemm_bt_lanes(lanes, a.data(), bt.data(), c.data(), m, k, n);
                    const double du =
                        static_cast<double>(k / lanes + log2_lanes + k % lanes) * 0x1p-24;
                    const double gamma = du / (1.0 - du);
                    for (std::size_t i = 0; i < m; ++i) {
                        for (std::size_t j = 0; j < n; ++j) {
                            double magnitude = 0.0;
                            const double ref = reference_dot(a, bt, i, j, &magnitude);
                            ASSERT_LE(std::abs(c.at(i, j) - ref), gamma * magnitude)
                                << "m=" << m << " n=" << n << " k=" << k << " at " << i << ","
                                << j;
                        }
                    }
                }
            }
        }
    });
}

TEST(GemmBt, RowIndependentOfBatchPositionAndPool) {
    // At each lane width, row i of C is bit-identical whether computed
    // alone, inside a batch of any height, or with rows split across a pool.
    for_each_lane_width([](std::size_t lanes) {
        Rng rng(5);
        ThreadPool pool(3);
        for (const std::size_t k : {7U, 37U}) {
            const std::size_t n = 19;
            Tensor bt(Shape{n, k});
            bt.fill_normal(rng, 0.0F, 1.0F);
            for (const std::size_t m : {2U, 3U, 5U, 33U}) {
                Tensor a(Shape{m, k});
                a.fill_normal(rng, 0.0F, 1.0F);
                Tensor c(Shape{m, n});
                detail::gemm_bt_lanes(lanes, a.data(), bt.data(), c.data(), m, k, n);
                Tensor pooled(Shape{m, n});
                detail::gemm_bt_lanes(lanes, a.data(), bt.data(), pooled.data(), m, k, n, &pool);
                EXPECT_EQ(c.max_abs_diff(pooled), 0.0F);
                for (std::size_t i = 0; i < m; ++i) {
                    Tensor one(Shape{1, n});
                    detail::gemm_bt_lanes(lanes, a.data() + i * k, bt.data(), one.data(), 1, k, n);
                    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(one.at(0, j), c.at(i, j));
                }
            }
        }
    });
}

TEST(GemmBt, ColumnIndependentOfTile) {
    // At each lane width, C(i, j) is bit-identical whether column j is
    // reduced inside a four-column register tile or on its own.
    for_each_lane_width([](std::size_t lanes) {
        Rng rng(7);
        for (const std::size_t k : {5U, 27U, 300U}) {
            const std::size_t m = 5;
            const std::size_t n = 9;
            Tensor a(Shape{m, k});
            Tensor bt(Shape{n, k});
            a.fill_normal(rng, 0.0F, 1.0F);
            bt.fill_normal(rng, 0.0F, 1.0F);
            Tensor c(Shape{m, n});
            detail::gemm_bt_lanes(lanes, a.data(), bt.data(), c.data(), m, k, n);
            for (std::size_t j = 0; j < n; ++j) {
                Tensor col(Shape{m, 1});
                detail::gemm_bt_lanes(lanes, a.data(), bt.data() + j * k, col.data(), m, k, 1);
                for (std::size_t i = 0; i < m; ++i) {
                    EXPECT_EQ(col.at(i, 0), c.at(i, j)) << "k=" << k << " at " << i << "," << j;
                }
            }
        }
    });
}

TEST(GemmBt, DispatchCapsLaneWidthAtK) {
    // gemm_bt runs the widest supported width not above k (4 at the least),
    // so its output is bit-identical to that width's.
    const std::vector<std::size_t> supported = detail::gemm_bt_lane_widths();
    Rng rng(6);
    for (const std::size_t k : {1U, 4U, 6U, 8U, 15U, 16U, 27U, 784U}) {
        std::size_t lanes = 4;
        for (const std::size_t w : supported) {
            if (w <= k) lanes = w;
        }
        Tensor a(Shape{5, k});
        Tensor bt(Shape{6, k});
        a.fill_normal(rng, 0.0F, 1.0F);
        bt.fill_normal(rng, 0.0F, 1.0F);
        Tensor c(Shape{5, 6});
        Tensor at_width(Shape{5, 6});
        gemm_bt(a, bt, c);
        detail::gemm_bt_lanes(lanes, a.data(), bt.data(), at_width.data(), 5, k, 6);
        EXPECT_EQ(c.max_abs_diff(at_width), 0.0F) << "k=" << k << " lanes=" << lanes;
    }
}

TEST(GemmBt, EpilogueBitIdenticalToSeparatePasses) {
    // At each lane width, gemm_bt with a fused bias and ReLU stores the bits
    // of plain gemm_bt, then the bias add, then apply_activation: for a bias
    // along rows, along columns or none, ReLU on and off, n % 4 of 0 to 3
    // (the four-column tile and the column-by-column tail), k below L and
    // not a multiple of L. A row's first output is made a signed-zero case:
    // all its products are -0.0 and its bias is -0.0.
    using Bias = GemmEpilogue::Bias;
    for_each_lane_width([](std::size_t lanes) {
        Rng rng(8);
        for (const std::size_t k : {std::size_t{3}, lanes - 1, lanes, lanes + 3, 2 * lanes + 5}) {
            for (const std::size_t m : {1U, 2U, 3U, 5U, 9U}) {
                for (const std::size_t n : {4U, 5U, 6U, 7U, 8U}) {
                    Tensor a(Shape{m, k});
                    Tensor bt(Shape{n, k});
                    a.fill_normal(rng, 0.0F, 1.0F);
                    bt.fill_normal(rng, 0.0F, 1.0F);
                    std::fill_n(a.data(), k, -0.0F);
                    std::fill_n(bt.data(), k, 1.0F);
                    for (const Bias bias : {Bias::kNone, Bias::kRows, Bias::kColumns}) {
                        Tensor values(Shape{std::max(m, n)});
                        values.fill_normal(rng, 0.0F, 1.0F);
                        values.at(0) = -0.0F;
                        for (const bool relu : {false, true}) {
                            SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                                         " k=" + std::to_string(k) + " bias=" +
                                         std::to_string(static_cast<int>(bias)) +
                                         " relu=" + std::to_string(relu));
                            Tensor separate(Shape{m, n});
                            detail::gemm_bt_lanes(lanes, a.data(), bt.data(), separate.data(), m,
                                                  k, n);
                            for (std::size_t i = 0; i < m; ++i) {
                                for (std::size_t j = 0; j < n; ++j) {
                                    if (bias == Bias::kRows) separate.at(i, j) += values.at(i);
                                    if (bias == Bias::kColumns) separate.at(i, j) += values.at(j);
                                }
                            }
                            if (relu) nn::apply_activation(nn::Activation::kRelu, separate);
                            Tensor fused(Shape{m, n});
                            detail::gemm_bt_lanes(lanes, a.data(), bt.data(), fused.data(), m, k,
                                                  n, nullptr, {bias, values.data(), relu});
                            ASSERT_EQ(std::memcmp(fused.data(), separate.data(),
                                                  fused.numel() * sizeof(float)),
                                      0);
                        }
                    }
                }
            }
        }
    });
}

TEST(GemmBt, EpilogueWithoutBiasValuesThrows) {
    Tensor a(Shape{2, 3});
    Tensor c(Shape{2, 2});
    EXPECT_THROW(gemm_bt(a, a, c, nullptr, {GemmEpilogue::Bias::kRows, nullptr, false}),
                 InvalidArgument);
}

TEST(GemmBt, ShapeMismatchThrows) {
    Tensor a(Shape{2, 3});
    Tensor bt(Shape{5, 4});
    Tensor c(Shape{2, 5});
    EXPECT_THROW(gemm_bt(a, bt, c), InvalidArgument);
    EXPECT_THROW(detail::gemm_bt_lanes(5, a.data(), a.data(), c.data(), 1, 1, 1), InvalidArgument);
}

}  // namespace
