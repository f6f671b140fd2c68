// kmath.hpp — integer arithmetic helpers shared by the algorithms.
//
// The paper's algorithms manipulate powers of the accuracy parameter k
// (thresholds k^{q+1}, return values k·(1 + Σ k^{l+1} + p·k^{q+1}), MSB
// positions ⌊log_k v⌋). Values grow geometrically, so every helper here
// is saturating: arithmetic that would exceed uint64 clamps to
// uint64_t(-1). Saturation is unreachable in honest executions (it would
// take ≥ 2^64 increments) but keeps adversarial parameter choices safe.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

namespace approx::base {

inline constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();

/// Saturating multiplication. Overflow comes from the multiply's own
/// flag rather than a kU64Max / b test, so the read-value loops in
/// core/help_pack.hpp pay no divide per term.
[[nodiscard]] constexpr std::uint64_t sat_mul(std::uint64_t a,
                                              std::uint64_t b) noexcept {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? kU64Max : product;
}

/// Saturating addition.
[[nodiscard]] constexpr std::uint64_t sat_add(std::uint64_t a,
                                              std::uint64_t b) noexcept {
  return (a > kU64Max - b) ? kU64Max : a + b;
}

/// k^e with saturation. k ≥ 1.
[[nodiscard]] constexpr std::uint64_t pow_k(std::uint64_t k,
                                            std::uint64_t e) noexcept {
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < e; ++i) {
    result = sat_mul(result, k);
    if (result == kU64Max) break;
  }
  return result;
}

/// ⌊log_k v⌋ for v ≥ 1, k ≥ 2.
[[nodiscard]] constexpr std::uint64_t floor_log_k(std::uint64_t k,
                                                  std::uint64_t v) noexcept {
  assert(k >= 2 && v >= 1);
  std::uint64_t log = 0;
  while (v >= k) {
    v /= k;
    ++log;
  }
  return log;
}

/// Exact log_k of a power of k: requires v = k^e; returns e.
[[nodiscard]] constexpr std::uint64_t exact_log_k(std::uint64_t k,
                                                  std::uint64_t v) noexcept {
  const std::uint64_t log = floor_log_k(k, v);
  assert(pow_k(k, log) == v && "exact_log_k: v is not a power of k");
  return log;
}

/// ⌊log₂ v⌋ for v ≥ 1.
[[nodiscard]] constexpr unsigned floor_log2(std::uint64_t v) noexcept {
  assert(v >= 1);
  unsigned log = 0;
  while (v >>= 1) ++log;
  return log;
}

/// ⌈log₂ v⌉ for v ≥ 1.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t v) noexcept {
  assert(v >= 1);
  const unsigned f = floor_log2(v);
  return ((std::uint64_t{1} << f) == v) ? f : f + 1;
}

/// Smallest power of two ≥ v (v ≥ 1; saturates at 2^63).
[[nodiscard]] constexpr std::uint64_t ceil_pow2(std::uint64_t v) noexcept {
  assert(v >= 1);
  const unsigned c = ceil_log2(v);
  return c >= 63 ? (std::uint64_t{1} << 63) : (std::uint64_t{1} << c);
}

/// Integer ⌈√v⌉ (used for the k ≥ √n threshold of Algorithm 1).
[[nodiscard]] constexpr std::uint64_t ceil_sqrt(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  std::uint64_t r = 1;
  while (r < kU64Max / r && r * r < v) ++r;
  return r;
}

}  // namespace approx::base
