// help_pack.hpp — packed (switch position, sequence number) pairs for the
// helping array H[n] of Algorithm 1 (and the corrected variant).
//
// Each H[i] is a single 64-bit register holding the last switch position
// process i announced on together with i's count of successful test&sets.
// A reader that sees a process's sequence number advance by ≥ 2 during
// its scan knows a full announce happened inside the read and may return
// that announce's position (paper lines 50–55, Lemma III.3).
//
// Layout: position in the high 32 bits, sequence number in the low 32.
//
// HISTORY / GUARD. The seed packed the pair as (position << 24) | (sn &
// 0xFFFFFF): only 24 bits of sequence number, wrapping silently at 2^24.
// A wrapped sn makes the helping comparison `sn >= baseline + 2` see a
// *smaller* value after billions of announces, so a genuine helping
// window could be missed (stalling the wait-freedom argument) or — after
// a full wrap — a stale pair could masquerade as fresh and linearize a
// read at an ancient position. The split is now 32/32, and feasibility is
// *checked* rather than assumed:
//
//   * position is a switch index, at most
//     kmult_position_bound(k, 2^64 − 1) in any execution of < 2^64
//     increments (the saturation argument below) — under 2^16 whenever
//     k ≤ kMaxSupportedK. Counter constructors *reject* k beyond that
//     bound (throw std::invalid_argument, in every build mode), making
//     the packing loss-free by construction;
//   * sn counts one per switch won, so it obeys the same bound;
//   * pack_help() additionally saturates both fields in every build mode
//     instead of wrapping (plus debug asserts, since reaching saturation
//     means the feasibility argument was violated): saturation can only
//     *disable* further helping detection (reads fall back to the
//     always-correct frontier scan), never corrupt a linearization
//     witness the way shifted-out position bits or a wrapped sn would.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "base/kmath.hpp"

namespace approx::core {

/// Bits of the packed word given to the sequence number.
inline constexpr unsigned kHelpSnBits = 32;

inline constexpr std::uint64_t kHelpSnMax =
    (std::uint64_t{1} << kHelpSnBits) - 1;

/// Largest packable switch position.
inline constexpr std::uint64_t kHelpPositionMax =
    (std::uint64_t{1} << (64 - kHelpSnBits)) - 1;

/// Largest accuracy parameter k the counters accept (enforced by their
/// constructors). Every reachable switch index and sequence number then
/// fits the packed layout with room to spare, and the contiguous switch
/// array (kmult_switch_capacity) stays at most 2^15 + 1 bits. 2^12 keeps
/// the paper's k ≥ √n precondition satisfiable for n ≤ 2^24 processes.
inline constexpr std::uint64_t kMaxSupportedK = std::uint64_t{1} << 12;

/// Saturation bound on the switch positions. Either k-multiplicative
/// counter attempts its interval of weight k^q only once a process's
/// batch lcounter equals its threshold limit = k^q, and lcounter counts
/// that process's increments: in an execution of at most m ≥ 1
/// increments q ≤ ⌊log_k m⌋, and at m = 2^64 − 1 one more power of k
/// would saturate. The last switch of that interval, (⌊log_k m⌋ + 1)·k
/// in the corrected layout (the faithful layout ends one interval
/// lower), is therefore the last one any execution sets. The returned
/// bound adds k+1 to it, which also covers the linear read's cursor:
/// it jumps k−1 from an interval's first switch to its last, so it reads
/// at most one switch past the last set one.
[[nodiscard]] constexpr std::uint64_t kmult_position_bound(
    std::uint64_t k, std::uint64_t m) noexcept {
  return base::sat_add(k + 1, base::sat_mul(k, base::floor_log_k(k, m) + 1));
}

/// Number of switches a k-multiplicative counter allocates (2 ≤ k ≤
/// kMaxSupportedK): every index either variant can touch in an execution
/// of < 2^64 increments. Besides the positions under
/// kmult_position_bound, read_fast's doubling probe can overshoot the
/// last set switch up to the next power of two.
[[nodiscard]] constexpr std::uint64_t kmult_switch_capacity(
    std::uint64_t k) noexcept {
  return std::bit_ceil(kmult_position_bound(k, base::kU64Max)) + 1;
}

/// The value a read returns: k·(head + Σ_{l=1}^{terms} k^{l+1} +
/// p·k^{terms+1}), saturating. Both counters' read values have this
/// shape (the faithful ReturnValue(p, q) is head 1, terms q; the
/// corrected layout's position in I_q is head k+1, terms q−1). One pass
/// with a running power of k: every step is a saturating add or
/// multiply of non-negative terms, so the result is min(2^64 − 1, the
/// exact value), the same as summing pow_k(k, l+1) term by term.
[[nodiscard]] constexpr std::uint64_t kmult_read_value(
    std::uint64_t k, std::uint64_t head, std::uint64_t terms,
    std::uint64_t p) noexcept {
  std::uint64_t sum = head;
  std::uint64_t power = k;  // k^{l+1} after step l; k^{terms+1} at the end
  for (std::uint64_t l = 1; l <= terms; ++l) {
    power = base::sat_mul(power, k);
    sum = base::sat_add(sum, power);
  }
  return base::sat_mul(k, base::sat_add(sum, base::sat_mul(p, power)));
}

/// Packs an announce (switch position, per-process sequence number).
/// Both fields saturate at their maxima rather than wrapping/shifting
/// out (unreachable for supported k; see check_help_pack_k).
[[nodiscard]] constexpr std::uint64_t pack_help(std::uint64_t position,
                                                std::uint64_t sn) noexcept {
  assert(position <= kHelpPositionMax &&
         "help pair: switch position exceeds the packed field");
  assert(sn <= kHelpSnMax && "help pair: sequence number exceeds 32 bits");
  if (position > kHelpPositionMax) position = kHelpPositionMax;
  if (sn > kHelpSnMax) sn = kHelpSnMax;
  return (position << kHelpSnBits) | sn;
}

/// Constructor guard shared by the counters: rejects accuracy parameters
/// outside the packing and switch-capacity guarantees in every build
/// mode. Returns k so constructors can check before allocating.
inline std::uint64_t check_help_pack_k(std::uint64_t k) {
  if (k < 2) {
    throw std::invalid_argument(
        "k-multiplicative counter: k must be at least 2");
  }
  if (k > kMaxSupportedK) {
    throw std::invalid_argument(
        "k-multiplicative counter: k exceeds kMaxSupportedK (help-pair "
        "packing and switch-capacity guarantee, see core/help_pack.hpp)");
  }
  return k;
}

[[nodiscard]] constexpr std::uint64_t unpack_help_position(
    std::uint64_t packed) noexcept {
  return packed >> kHelpSnBits;
}

[[nodiscard]] constexpr std::uint64_t unpack_help_sn(
    std::uint64_t packed) noexcept {
  return packed & kHelpSnMax;
}

static_assert(unpack_help_position(pack_help(kHelpPositionMax, kHelpSnMax)) ==
              kHelpPositionMax);
static_assert(unpack_help_sn(pack_help(kHelpPositionMax, kHelpSnMax)) ==
              kHelpSnMax);
static_assert(unpack_help_sn(pack_help(0, 0)) == 0);
static_assert(kmult_position_bound(2, base::kU64Max) == 131);
static_assert(kmult_switch_capacity(2) == 257);
static_assert(kmult_switch_capacity(kMaxSupportedK) <= kHelpPositionMax);
static_assert(kmult_read_value(2, 1, 1, 1) == 2 * (1 + 4 + 4));
static_assert(kmult_read_value(2, 1, 64, 0) == base::kU64Max);

}  // namespace approx::core
