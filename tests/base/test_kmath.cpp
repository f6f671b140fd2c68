// Unit tests for base/kmath.hpp: the saturating arithmetic and integer
// log/power helpers every algorithm relies on.
#include "base/kmath.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace approx::base {
namespace {

TEST(SatMul, SmallValues) {
  EXPECT_EQ(sat_mul(0, 0), 0u);
  EXPECT_EQ(sat_mul(0, 17), 0u);
  EXPECT_EQ(sat_mul(17, 0), 0u);
  EXPECT_EQ(sat_mul(3, 5), 15u);
  EXPECT_EQ(sat_mul(1, kU64Max), kU64Max);
}

TEST(SatMul, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(sat_mul(kU64Max, 2), kU64Max);
  EXPECT_EQ(sat_mul(std::uint64_t{1} << 32, std::uint64_t{1} << 32), kU64Max);
  EXPECT_EQ(sat_mul(kU64Max, kU64Max), kU64Max);
}

TEST(SatMul, ExactAtBoundary) {
  // (2^32)·(2^32 − 1) < 2^64: must not saturate.
  const std::uint64_t a = std::uint64_t{1} << 32;
  const std::uint64_t b = (std::uint64_t{1} << 32) - 1;
  EXPECT_EQ(sat_mul(a, b), a * b);
}

TEST(SatMul, ProductOfExactlyTwoTo64MinusOne) {
  // (2^32 − 1)(2^32 + 1) = 2^64 − 1 and 3 · (2^64 − 1)/3 = 2^64 − 1: the
  // largest representable product is returned as is, not as saturation
  // by accident of an off-by-one.
  const std::uint64_t lo = (std::uint64_t{1} << 32) - 1;
  const std::uint64_t hi = (std::uint64_t{1} << 32) + 1;
  EXPECT_EQ(sat_mul(lo, hi), kU64Max);
  EXPECT_EQ(sat_mul(hi, lo), kU64Max);
  EXPECT_EQ(lo * hi, kU64Max);  // the exact product, not a wrap
  EXPECT_EQ(sat_mul(3, kU64Max / 3), kU64Max);
  EXPECT_EQ(3 * (kU64Max / 3), kU64Max);
  // One below on either side stays exact.
  EXPECT_EQ(sat_mul(lo, hi - 1), kU64Max - lo);
  EXPECT_EQ(sat_mul(3, kU64Max / 3 - 1), kU64Max - 3);
}

TEST(SatMul, ProductOneAboveTwoTo64MinusOneSaturates) {
  // 2^32 · 2^32 = 2^64 and 2^63 · 2 = 2^64 wrap to 0 unsaturated;
  // (2^64 − 1)/3 + 1 times 3 is 2^64 + 2, which wraps to 2.
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  EXPECT_EQ(sat_mul(two32, two32), kU64Max);
  EXPECT_EQ(sat_mul(std::uint64_t{1} << 63, 2), kU64Max);
  EXPECT_EQ(sat_mul(2, std::uint64_t{1} << 63), kU64Max);
  EXPECT_EQ(sat_mul(3, kU64Max / 3 + 1), kU64Max);
  EXPECT_EQ(sat_mul((std::uint64_t{1} << 32) + 1, two32), kU64Max);
  static_assert(sat_mul(two32, two32) == kU64Max);
  static_assert(sat_mul(two32 - 1, two32 + 1) == kU64Max);
  static_assert(sat_mul(two32 - 1, two32) == kU64Max - two32 + 1);
}

TEST(SatAdd, Basics) {
  EXPECT_EQ(sat_add(2, 3), 5u);
  EXPECT_EQ(sat_add(kU64Max, 0), kU64Max);
  EXPECT_EQ(sat_add(kU64Max, 1), kU64Max);
  EXPECT_EQ(sat_add(kU64Max - 1, 1), kU64Max);
  EXPECT_EQ(sat_add(kU64Max, kU64Max), kU64Max);
}

TEST(PowK, SmallCases) {
  EXPECT_EQ(pow_k(2, 0), 1u);
  EXPECT_EQ(pow_k(2, 10), 1024u);
  EXPECT_EQ(pow_k(3, 4), 81u);
  EXPECT_EQ(pow_k(10, 3), 1000u);
  EXPECT_EQ(pow_k(1, 100), 1u);
}

TEST(PowK, Saturates) {
  EXPECT_EQ(pow_k(2, 64), kU64Max);
  EXPECT_EQ(pow_k(2, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(pow_k(kU64Max, 2), kU64Max);
}

TEST(FloorLogK, Basics) {
  EXPECT_EQ(floor_log_k(2, 1), 0u);
  EXPECT_EQ(floor_log_k(2, 2), 1u);
  EXPECT_EQ(floor_log_k(2, 3), 1u);
  EXPECT_EQ(floor_log_k(2, 4), 2u);
  EXPECT_EQ(floor_log_k(10, 999), 2u);
  EXPECT_EQ(floor_log_k(10, 1000), 3u);
}

TEST(FloorLogK, InverseOfPow) {
  for (std::uint64_t k : {2u, 3u, 5u, 7u, 16u}) {
    for (std::uint64_t e = 0; e < 12; ++e) {
      const std::uint64_t v = pow_k(k, e);
      EXPECT_EQ(floor_log_k(k, v), e) << "k=" << k << " e=" << e;
      EXPECT_EQ(floor_log_k(k, v + 1), (v + 1 >= pow_k(k, e + 1)) ? e + 1 : e);
    }
  }
}

TEST(ExactLogK, PowersOnly) {
  EXPECT_EQ(exact_log_k(4, 1), 0u);
  EXPECT_EQ(exact_log_k(4, 4), 1u);
  EXPECT_EQ(exact_log_k(4, 64), 3u);
}

TEST(FloorLog2, Basics) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(kU64Max), 63u);
}

TEST(CeilLog2, Basics) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2((std::uint64_t{1} << 40) + 1), 41u);
}

TEST(CeilPow2, Basics) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
  EXPECT_EQ(ceil_pow2(std::uint64_t{1} << 62), std::uint64_t{1} << 62);
}

TEST(CeilSqrt, Basics) {
  EXPECT_EQ(ceil_sqrt(0), 0u);
  EXPECT_EQ(ceil_sqrt(1), 1u);
  EXPECT_EQ(ceil_sqrt(2), 2u);
  EXPECT_EQ(ceil_sqrt(4), 2u);
  EXPECT_EQ(ceil_sqrt(5), 3u);
  EXPECT_EQ(ceil_sqrt(9), 3u);
  EXPECT_EQ(ceil_sqrt(10), 4u);
  EXPECT_EQ(ceil_sqrt(64), 8u);
  EXPECT_EQ(ceil_sqrt(1024), 32u);
}

// Property sweep: for every n in a grid, k = ceil_sqrt(n) satisfies the
// paper's accuracy precondition k² ≥ n.
TEST(CeilSqrt, SquareDominatesArgument) {
  for (std::uint64_t n = 1; n <= 4096; ++n) {
    const std::uint64_t k = ceil_sqrt(n);
    EXPECT_GE(k * k, n) << n;
    if (k > 1) {
      EXPECT_LT((k - 1) * (k - 1), n) << n;  // minimality
    }
  }
}

}  // namespace
}  // namespace approx::base
