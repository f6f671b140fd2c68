// kmult_counter_corrected.hpp — Algorithm 1 with the bootstrap-phase fix.
//
// REPRODUCTION FINDING (see EXPERIMENTS.md "Deviations"). The paper's
// Algorithm 1 violates the k-multiplicative band in the *bootstrap
// phase*: after one process wins switch_0, every process can batch up to
// k−1 increments locally (limit = k) while reads still stop at switch_0
// and return ReturnValue(0,0) = k. The exact count can reach
// v = 1 + n(k−1), and v/k ≤ k requires n ≤ k+1 — NOT implied by the
// paper's k ≥ √n precondition. Claim III.6's closing algebra
// ("vop = ... + k^{q+2}") silently assumes q ≥ 1; at q = 0 the pulled-out
// k^{q+2} term does not exist. Concretely: n = 25, k = 5 = √n, 38
// round-robin increments → read returns 5 < 38/5.
//
// The fix implemented here keeps the paper's structure but re-weights the
// switch sequence:
//
//   * positions 0..k ("singles") each announce ONE increment — instead of
//     the paper's lone switch_0;
//   * interval I_q = [qk+1, (q+1)k] for q ≥ 1 announces k^q per switch —
//     one k-power *lower* than the paper's k^{q+1}.
//
// A process's announce threshold (limit) is 1 while singles remain, then
// k^q while attempting I_q. The prefix invariant (Lemma III.2) is
// preserved, and now: if the singles are not exhausted, every completed
// increment has been announced (a process that loses every single has
// proven them full); once they are exhausted a read returns at least
// k·(k+1), which dominates the ≤ n(k^q − 1) hidden increments for
// k ≥ √n at *every* q, including the former q = 0 hole.
//
// Cost of the fix: a process can spend up to k+1 test&sets losing the
// singles region (once, ever — the cursor never rescans), so executions
// shorter than ~n·k steps see O(k) = O(√n) amortized bootstrap cost;
// asymptotically the amortized complexity is O(1) exactly as in the
// paper. Reads additionally scan the k+1 singles densely (once per
// process, amortized O(1)). The wait-free helping mechanism is unchanged.
//
// Backend policy and storage as in kmult_counter.hpp:
// `KMultCounterCorrected` aliases the instrumented instantiation, and the
// switches, H, the locals and the helping baselines share one
// core/kmult_block.hpp allocation with kmult_switch_capacity(k)
// switches. The corrected layout's intervals end one k-block above the
// paper's, and read_fast's doubling probe overshoots the last set switch
// up to the next power of two; the capacity covers both
// (core/help_pack.hpp).
//
// Memory-order audit (RelaxedDirectBackend): identical to the uncorrected
// algorithm's audit in kmult_counter.hpp — the fix re-weights the switch
// sequence but keeps the same three primitive families and the same
// helping-array handshake (release H-writes pairing with acquire H-reads,
// acq_rel switch test&set carrying the prefix invariant). read_fast adds
// no new ordering requirement: its doubling/binary-search probes are
// acquire switch reads, its boundary verification re-reads in real-time
// order exactly like the linear scan, and its retry bound reuses the
// helping witness audited there.
#pragma once

#include <cassert>
#include <cstdint>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "core/help_pack.hpp"
#include "core/kmult_block.hpp"

namespace approx::core {

/// Wait-free linearizable k-multiplicative-accurate unbounded counter —
/// corrected variant. The accuracy band v/k ≤ x ≤ v·k holds in *all*
/// execution phases for k ≥ √n.
template <typename Backend = base::InstrumentedBackend>
class KMultCounterCorrectedT {
 public:
  using backend_type = Backend;

  KMultCounterCorrectedT(unsigned num_processes, std::uint64_t k);

  KMultCounterCorrectedT(const KMultCounterCorrectedT&) = delete;
  KMultCounterCorrectedT& operator=(const KMultCounterCorrectedT&) = delete;

  /// CounterIncrement. At most one thread per pid.
  void increment(unsigned pid);

  /// CounterRead: returns x with v/k ≤ x ≤ v·k for k ≥ √n.
  std::uint64_t read(unsigned pid);

  /// CounterRead via doubling + binary search (extension; §VI of the
  /// paper leaves the worst-case complexity of bounded approximate
  /// counters open). By the prefix invariant the set switches always
  /// form [0, S): a read can locate the boundary with O(log₂ S) probes
  /// instead of the linear cursor scan, then verify the boundary pair in
  /// order (h seen set, then h+1 seen unset ⇒ a linearization point
  /// exists where the prefix is exactly [0, h]). If writers keep growing
  /// the prefix past the verification, falls back to the helping-based
  /// linear read, preserving wait-freedom. Worst-case
  /// O(log₂(k·log_k v)) steps on the fast path, vs Θ(k·log_k v) for a
  /// cold-cursor linear read. Trade-off: does not use the persistent
  /// cursor, so its *amortized* cost is O(log) rather than O(1).
  std::uint64_t read_fast(unsigned pid);

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
  [[nodiscard]] bool accuracy_guaranteed() const noexcept;

  // --- test/diagnostic accessors (un-instrumented) ---
  [[nodiscard]] bool switch_set_unrecorded(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t first_unset_switch_unrecorded() const;

  /// Value a read returns when the last switch it saw set is `position`:
  /// k·(position+1) for singles, k·((k+1) + Σ_{l<q} k^{l+1} + p·k^q) for
  /// position = qk+p in I_q. Exposed for unit tests.
  [[nodiscard]] std::uint64_t value_at_position(std::uint64_t position) const;

  /// Reads by `pid` that returned through the helping mechanism
  /// (diagnostic for the E13 ablation; not part of the algorithm).
  [[nodiscard]] std::uint64_t reads_via_helping(unsigned pid) const {
    return block_.local(pid).helping_returns;
  }

  /// Search attempts consumed by `pid`'s most recent read_fast call
  /// (diagnostic; pins the helping-derived retry bound ≤ 2n+2 in
  /// tests/core/test_read_fast.cpp).
  [[nodiscard]] std::uint64_t last_read_fast_attempts(unsigned pid) const {
    return block_.local(pid).last_fast_attempts;
  }

  /// The counter's storage (core/kmult_block.hpp), for the cache-line
  /// layout checks in tests/shard/test_sharded_counter.cpp. Diagnostic;
  /// charges no steps.
  [[nodiscard]] const auto& block_unrecorded() const noexcept {
    return block_;
  }

 private:
  struct alignas(64) Local {
    std::uint64_t last = 0;       // read cursor over scan positions
    std::uint64_t lcounter = 0;   // unannounced increments
    std::uint64_t limit = 1;      // announce threshold (1 or a power of k)
    std::uint64_t sn = 0;         // successful announces
    std::uint64_t single_cursor = 0;  // next single to try (absolute, ≤ k+1)
    std::uint64_t offset = 1;     // resume offset within the current I_q
    std::uint64_t helping_returns = 0;    // diagnostic
    std::uint64_t last_fast_attempts = 0;  // diagnostic
  };

  // Scan-position helpers (singles scanned densely, intervals at their
  // first and last switch).
  [[nodiscard]] std::uint64_t next_scan_position(std::uint64_t pos) const;
  [[nodiscard]] std::uint64_t previous_scan_position(std::uint64_t pos) const;

  // The helping witness shared by read() and read_fast(): baseline every
  // process's announce sequence number, later return through any pair
  // whose sn advanced by ≥ 2 (a complete announce inside the read —
  // paper lines 50–55, Lemma III.3).
  void capture_help_baseline(unsigned pid);
  [[nodiscard]] bool check_helped_return(unsigned pid, std::uint64_t& value);

  /// The one access path to the switches (asserts the capacity).
  base::TasBitT<Backend>& switch_at(std::uint64_t index) const {
    return block_.switch_at(index);
  }

  unsigned n_;
  std::uint64_t k_;
  KMultBlock<Backend, Local> block_;
};

/// The model-faithful default instantiation (pre-policy class name).
using KMultCounterCorrected = KMultCounterCorrectedT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------

template <typename Backend>
KMultCounterCorrectedT<Backend>::KMultCounterCorrectedT(unsigned num_processes,
                                                        std::uint64_t k)
    : n_(num_processes),
      k_(check_help_pack_k(k)),
      block_(num_processes, kmult_switch_capacity(k)) {
  assert(num_processes >= 1);
}

template <typename Backend>
bool KMultCounterCorrectedT<Backend>::accuracy_guaranteed() const noexcept {
  return k_ >= base::ceil_sqrt(n_);
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::value_at_position(
    std::uint64_t position) const {
  // Singles: position h set ⇒ h+1 increments announced (prefix).
  if (position <= k_) return base::sat_mul(k_, position + 1);
  // position = qk + p in I_q (q ≥ 1, p ∈ [1, k]): all k+1 singles, all
  // of I_1..I_{q−1} (k^{l+1} each), and p switches of I_q (k^q each).
  const std::uint64_t q = (position - 1) / k_;
  return kmult_read_value(k_, k_ + 1, q - 1, position - q * k_);
}

template <typename Backend>
void KMultCounterCorrectedT<Backend>::increment(unsigned pid) {
  assert(pid < n_);
  Local& me = block_.local(pid);
  me.lcounter += 1;
  if (me.lcounter != me.limit) return;

  if (me.limit == 1) {
    // Bootstrap: announce this single increment on one of the k+1 unit
    // switches. Losing all of them proves the singles are exhausted.
    for (std::uint64_t l = me.single_cursor; l <= k_; ++l) {
      if (!switch_at(l).test_and_set()) {
        me.sn += 1;
        block_.h(pid).write(pack_help(l, me.sn));
        me.lcounter = 0;
        me.single_cursor = l + 1;
        if (l == k_) me.limit = k_;  // singles finished by this very win
        return;
      }
    }
    me.single_cursor = k_ + 1;
    me.limit = k_;  // keep the batch; it is dominated by k·(k+1) announced
    return;
  }

  // limit = k^q: announce the batch on one switch of I_q = [qk+1, (q+1)k].
  const std::uint64_t q = base::exact_log_k(k_, me.limit);
  for (std::uint64_t l = q * k_ + me.offset; l <= (q + 1) * k_; ++l) {
    if (!switch_at(l).test_and_set()) {
      me.sn += 1;
      block_.h(pid).write(pack_help(l, me.sn));
      me.lcounter = 0;
      if (l == (q + 1) * k_) {
        me.limit = base::sat_mul(k_, me.limit);
        me.offset = 1;
      } else {
        me.offset = l - q * k_ + 1;
      }
      return;
    }
  }
  me.offset = 1;
  me.limit = base::sat_mul(k_, me.limit);
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::next_scan_position(
    std::uint64_t pos) const {
  if (pos < k_) return pos + 1;        // dense within the singles
  if (pos == k_) return k_ + 1;        // first switch of I_1
  // Inside I_q we visit only its first (qk+1) and last ((q+1)k) switch.
  if (pos % k_ == 0) return pos + 1;   // last of I_q → first of I_{q+1}
  return pos + (k_ - 1);               // first of I_q → last of I_q
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::previous_scan_position(
    std::uint64_t pos) const {
  assert(pos >= 1);
  if (pos <= k_ + 1) return pos - 1;   // singles region and first of I_1
  if (pos % k_ == 1) return pos - 1;   // first of I_q ← last of I_{q−1}
  return pos - (k_ - 1);               // last of I_q ← first of I_q
}

template <typename Backend>
void KMultCounterCorrectedT<Backend>::capture_help_baseline(unsigned pid) {
  std::uint64_t* help = block_.baseline(pid);
  for (unsigned i = 0; i < n_; ++i) {
    help[i] = unpack_help_sn(block_.h(i).read());
  }
}

template <typename Backend>
bool KMultCounterCorrectedT<Backend>::check_helped_return(
    unsigned pid, std::uint64_t& value) {
  const std::uint64_t* help = block_.baseline(pid);
  for (unsigned i = 0; i < n_; ++i) {
    const std::uint64_t pair = block_.h(i).read();
    if (unpack_help_sn(pair) >= help[i] + 2) {
      block_.local(pid).helping_returns += 1;
      value = value_at_position(unpack_help_position(pair));
      return true;
    }
  }
  return false;
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::read(unsigned pid) {
  assert(pid < n_);
  Local& me = block_.local(pid);
  std::uint64_t c = 0;
  std::uint64_t h = 0;
  bool advanced = false;
  while (switch_at(me.last).read()) {
    advanced = true;
    h = me.last;
    me.last = next_scan_position(me.last);
    c += 1;
    if (c % n_ == 0) {
      if (c == n_) {
        capture_help_baseline(pid);
      } else {
        std::uint64_t helped_value = 0;
        if (check_helped_return(pid, helped_value)) return helped_value;
      }
    }
  }
  if (me.last == 0) return 0;
  if (!advanced) h = previous_scan_position(me.last);
  return value_at_position(h);
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::read_fast(unsigned pid) {
  // Retries under concurrent prefix growth are bounded via the helping
  // array rather than a fixed attempt count (ROADMAP follow-up to the
  // original 8-attempt cap): every failed verification witnesses ≥ 1
  // switch won strictly after the previous attempt, and a process's
  // second post-baseline win is preceded (program order) by the
  // H-write of its first, so after at most 2n+1 failed attempts some
  // H[i] has advanced by ≥ 2 since the baseline — a complete announce
  // inside this read, and exactly the linearization witness the linear
  // read's helping branch uses (Lemma III.3). The loop therefore
  // terminates within kMaxAttempts = 2n+2 attempts; the final linear-
  // read fallback is belt-and-braces (unreachable unless the bound
  // argument is violated), keeping wait-freedom unconditional.
  Local& me = block_.local(pid);
  const std::uint64_t kMaxAttempts = 2 * std::uint64_t{n_} + 2;
  bool have_baseline = false;
  for (std::uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    me.last_fast_attempts = attempt + 1;
    // Doubling phase: find some unset index (the prefix is finite).
    std::uint64_t hi = 1;
    if (!switch_at(0).read()) return 0;
    while (switch_at(hi).read()) {
      hi = hi * 2;
    }
    // Invariant: switch_lo was seen set, switch_hi was seen unset.
    std::uint64_t lo = hi / 2;  // last probe of the doubling that was set
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (switch_at(mid).read()) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Verification in real-time order: h set, then h+1 unset. Both
    // observations holding in this order pins a configuration where the
    // set prefix is exactly [0, h] (switches only ever rise).
    if (switch_at(lo).read() && !switch_at(lo + 1).read()) {
      return value_at_position(lo);
    }
    // The boundary moved past lo+1: writers are announcing. Baseline
    // the helping array on the first failure, then watch for a ≥ 2
    // advance exactly as the linear read does.
    if (!have_baseline) {
      capture_help_baseline(pid);
      have_baseline = true;
    } else {
      std::uint64_t helped_value = 0;
      if (check_helped_return(pid, helped_value)) return helped_value;
    }
  }
  return read(pid);
}

template <typename Backend>
bool KMultCounterCorrectedT<Backend>::switch_set_unrecorded(
    std::uint64_t index) const {
  return switch_at(index).peek_unrecorded();
}

template <typename Backend>
std::uint64_t KMultCounterCorrectedT<Backend>::first_unset_switch_unrecorded()
    const {
  std::uint64_t i = 0;
  while (switch_at(i).peek_unrecorded()) ++i;
  return i;
}

extern template class KMultCounterCorrectedT<base::DirectBackend>;
extern template class KMultCounterCorrectedT<base::RelaxedDirectBackend>;
extern template class KMultCounterCorrectedT<base::InstrumentedBackend>;

}  // namespace approx::core
