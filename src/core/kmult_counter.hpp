// kmult_counter.hpp — Algorithm 1 of the paper.
//
// Wait-free linearizable *unbounded* k-multiplicative-accurate counter
// with O(1) amortized step complexity for k ≥ √n (Theorem III.9).
//
// Shared state (paper lines 1–3):
//   switch_j, j ∈ ℕ — 1-bit registers supporting test&set and read,
//     initially 0;
//   H[n] — helping array of (switch index, sequence number) pairs
//     (core/help_pack.hpp).
//
// The paper's switch sequence is infinite, but 64-bit saturation bounds
// the part any execution reaches: a process attempts interval j only
// when its batch lcounter equals limit = k^j, so k^j fits a uint64_t and
// j ≤ ⌊log_k(2^64 − 1)⌋ — one more power of k saturates. The switches
// are therefore one contiguous array of kmult_switch_capacity(k)
// TasBitT<Backend>s allocated at construction (core/help_pack.hpp holds
// the bound and the reads' overshoot; 257 bits at k = 2), and every
// access asserts its index is below that capacity.
//
// Per-process persistent locals (lines 4–9): last_i, lcounter_i, limit_i,
// sn_i, l0_i — kept on cache lines of their own; operations take an
// explicit pid and each pid must be driven by at most one thread at a
// time (the standard "process" discipline of the model).
//
// Storage: the switches, H, the locals and the helping baselines share
// one allocation laid out by core/kmult_block.hpp, which also states
// which process writes which cache line.
//
// How it works (paper §III). switch_0 accounts for 1 increment; the
// switches are then partitioned into consecutive intervals of length k,
// and each switch in interval [qk+1, (q+1)k] accounts for k^{q+1}
// increments. A process batches increments locally until its lcounter
// reaches limit = k^j, then tries to announce the batch by test&setting
// one switch of interval j (resuming inside the interval at its
// persistent l0). Success resets the batch; winning the *last* switch of
// the interval — or losing every attempt in it — multiplies limit by k.
// Reads scan only the first and last switch of each interval (persistent
// last_i avoids rescanning), and every n loop iterations scan H: a pair
// whose sequence number advanced by ≥ 2 since the first scan proves a
// switch was set entirely within the read — the read can return its
// value, which makes reads wait-free under concurrent increments.
//
// The returned value is ReturnValue(p, q) = k·(1 + p·k^{q+1} + Σ_{l=1}^{q}
// k^{l+1}) where qk+p is the last switch the read saw set; Claim III.6
// shows the exact count v linearized before the read satisfies
// v/k ≤ ReturnValue ≤ v·k whenever k ≥ √n.
//
// The Backend policy (base/backend.hpp) selects the zero-overhead direct
// build or the instrumented model build; `KMultCounter` aliases the
// instrumented instantiation (the pre-policy behaviour).
//
// Memory-order audit (RelaxedDirectBackend). Three primitive families,
// each on its default role:
//
//   * switch test&set — kRmwAcqRel. The release half publishes the
//     announcer's state to whoever observes the bit; the acquire half is
//     what keeps Lemma III.2's prefix invariant causal under weak
//     memory: a process attempts the switches of an interval in order
//     and moves past a switch only by winning it or by a failed test&set
//     (which synchronizes with the winner), so when it sets switch l,
//     every switch its scan passed is set in its happens-before past —
//     and a reader's acquire scan that sees switch l set inherits that
//     past, making value_at_position's "prefix [0, l] is set" inference
//     sound.
//   * H[i] writes — release (line 18): the helping pair (l, sn) promises
//     that switch l is set; the program-order-earlier test&set win rides
//     on the release so a reader that takes the helped return
//     synchronizes with the complete announce it is returning.
//   * switch/H reads — acquire, pairing with the above.
//
// What is *not* preserved: the helping-scan baseline (lines 47–48) reads
// H[i] without a surrounding SC total order, so "sn advanced by ≥ 2
// since the baseline" counts advances since a possibly slightly stale
// baseline. On multi-copy-atomic hardware (x86, ARMv8) every load
// returns the newest coherent value, the baseline is interval-recent,
// and Lemma III.3's within-the-read witness stands; the seq_cst
// backends keep the formal proof verbatim. The adversarial accuracy
// property tests and the TSan relaxed suite exercise exactly this
// handshake.
#pragma once

#include <cassert>
#include <cstdint>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "core/help_pack.hpp"
#include "core/kmult_block.hpp"

namespace approx::core {

/// Wait-free linearizable k-multiplicative-accurate unbounded counter
/// (Algorithm 1). Accuracy requires k ≥ √n; the constructor accepts any
/// k ≥ 2 so the k-sensitivity experiment (E3) can explore the threshold.
template <typename Backend = base::InstrumentedBackend>
class KMultCounterT {
 public:
  using backend_type = Backend;

  /// @param num_processes n; pids are 0..n-1.
  /// @param k accuracy parameter, 2 ≤ k ≤ kMaxSupportedK. The paper's
  ///   accuracy guarantee (Theorem III.9) holds for k ≥ √n.
  KMultCounterT(unsigned num_processes, std::uint64_t k);

  KMultCounterT(const KMultCounterT&) = delete;
  KMultCounterT& operator=(const KMultCounterT&) = delete;

  /// CounterIncrement (paper lines 10–29). At most one thread per pid.
  void increment(unsigned pid);

  /// CounterRead (paper lines 35–58): returns x with v/k ≤ x ≤ v·k for
  /// the exact count v at the linearization point (for k ≥ √n).
  std::uint64_t read(unsigned pid);

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }

  /// True iff this instance satisfies the paper's k ≥ √n accuracy
  /// precondition.
  [[nodiscard]] bool accuracy_guaranteed() const noexcept;

  // --- test/diagnostic accessors (un-instrumented; not part of the
  //     algorithm and never called by it) ---

  /// Peeks switch_index without charging a step (invariant tests).
  [[nodiscard]] bool switch_set_unrecorded(std::uint64_t index) const;

  /// Smallest index whose switch is 0. By Lemma III.2 the set switches
  /// always form the prefix [0, first_unset).
  [[nodiscard]] std::uint64_t first_unset_switch_unrecorded() const;

  /// ReturnValue(p, q) from paper lines 30–34 (exposed for unit tests).
  [[nodiscard]] std::uint64_t return_value(std::uint64_t p,
                                           std::uint64_t q) const;

  /// Number of CounterRead instances by `pid` that returned through the
  /// helping mechanism (lines 50–55) rather than by finding an unset
  /// switch. Diagnostic for the E13 helping ablation; not part of the
  /// algorithm.
  [[nodiscard]] std::uint64_t reads_via_helping(unsigned pid) const {
    return block_.local(pid).helping_returns;
  }

  /// The counter's storage (core/kmult_block.hpp), for the cache-line
  /// layout checks in tests/shard/test_sharded_counter.cpp. Diagnostic;
  /// charges no steps.
  [[nodiscard]] const auto& block_unrecorded() const noexcept {
    return block_;
  }

 private:
  struct alignas(64) Local {
    std::uint64_t last = 0;      // last_i: scan cursor over the switches
    std::uint64_t lcounter = 0;  // unannounced increments
    std::uint64_t limit = 1;     // announce threshold, always a power of k
    std::uint64_t sn = 0;        // successful test&sets by this process
    std::uint64_t l0 = 1;        // resume offset within the current interval
    std::uint64_t helping_returns = 0;  // diagnostic (see reads_via_helping)
  };

  /// The one access path to the switches (asserts the capacity).
  base::TasBitT<Backend>& switch_at(std::uint64_t index) const {
    return block_.switch_at(index);
  }

  unsigned n_;
  std::uint64_t k_;
  KMultBlock<Backend, Local> block_;  // switches, H[n], locals, baselines
};

/// The model-faithful default instantiation (pre-policy class name).
using KMultCounter = KMultCounterT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Implementation. Line numbers in comments refer to the paper's
// pseudocode.
// ---------------------------------------------------------------------

template <typename Backend>
KMultCounterT<Backend>::KMultCounterT(unsigned num_processes, std::uint64_t k)
    : n_(num_processes),
      k_(check_help_pack_k(k)),
      block_(num_processes, kmult_switch_capacity(k)) {
  assert(num_processes >= 1);
}

template <typename Backend>
bool KMultCounterT<Backend>::accuracy_guaranteed() const noexcept {
  return k_ >= base::ceil_sqrt(n_);
}

// Lines 30–34: ReturnValue(p, q) = k · (1 + p·k^{q+1} + Σ_{l=1}^{q} k^{l+1}),
// the line-33 sum taken in one pass (core/help_pack.hpp).
// Saturating arithmetic: a saturated return still satisfies the band
// (see base/kmath.hpp), and reaching it would need ≥ 2^64 increments.
template <typename Backend>
std::uint64_t KMultCounterT<Backend>::return_value(std::uint64_t p,
                                                   std::uint64_t q) const {
  return kmult_read_value(k_, 1, q, p);
}

template <typename Backend>
void KMultCounterT<Backend>::increment(unsigned pid) {
  assert(pid < n_);
  Local& me = block_.local(pid);
  me.lcounter += 1;                                           // line 11
  if (me.lcounter != me.limit) return;                        // line 12
  const std::uint64_t j = base::exact_log_k(k_, me.lcounter); // line 13
  if (j > 0) {                                                // line 14
    // Try to announce k^j increments on one switch of interval
    // [(j-1)k+1, jk], resuming at the persistent offset l0 (line 15).
    for (std::uint64_t l = (j - 1) * k_ + me.l0; l <= j * k_; ++l) {
      if (!switch_at(l).test_and_set()) {                     // line 16
        me.sn += 1;                                           // line 17
        block_.h(pid).write(pack_help(l, me.sn));                   // line 18
        me.lcounter = 0;                                      // line 19
        if (l == j * k_) {                                    // line 20
          me.limit = base::sat_mul(k_, me.limit);             // line 21
        }
        me.l0 = 1 + (l % k_);                                 // line 22
        return;                                               // line 23
      }
    }
    // Every switch of the interval is set: enough increments are visible
    // globally that this batch may stay local (Claim III.6 absorbs it).
    me.l0 = 1;                                                // line 24
    me.limit = base::sat_mul(k_, me.limit);                   // line 28
  } else {
    if (!switch_at(0).test_and_set()) {                       // line 26
      me.lcounter = 0;                                        // line 27
    }
    me.limit = base::sat_mul(k_, me.limit);                   // line 28
  }
}

template <typename Backend>
std::uint64_t KMultCounterT<Backend>::read(unsigned pid) {
  assert(pid < n_);
  Local& me = block_.local(pid);
  std::uint64_t c = 0;                                        // line 36
  std::uint64_t p = 0;
  std::uint64_t q = 0;
  bool advanced = false;  // did the while loop run in *this* call?
  while (switch_at(me.last).read()) {                         // line 37
    advanced = true;
    p = me.last % k_;                                         // line 38
    q = me.last / k_;                                         // line 39
    // Scan only the first (qk+1) and last ((q+1)k) switch per interval.
    if (me.last % k_ == 0) {                                  // line 40
      me.last += 1;                                           // line 41
    } else {
      me.last += k_ - 1;                                      // line 43
    }
    c += 1;                                                   // line 44
    if (c % n_ == 0) {                                        // line 45
      if (c == n_) {                                          // line 46
        std::uint64_t* help = block_.baseline(pid);
        for (unsigned i = 0; i < n_; ++i) {                   // lines 47–48
          help[i] = unpack_help_sn(block_.h(i).read());
        }
      } else {
        const std::uint64_t* help = block_.baseline(pid);
        for (unsigned i = 0; i < n_; ++i) {                   // lines 50–51
          const std::uint64_t pair = block_.h(i).read();
          if (unpack_help_sn(pair) >= help[i] + 2) {          // line 52
            // Process i completed a full announce inside this read; its
            // switch index is a safe linearization witness (Lemma III.3).
            me.helping_returns += 1;
            const std::uint64_t val = unpack_help_position(pair);
            return return_value(val % k_, val / k_);          // lines 53–55
          }
        }
      }
    }
  }
  if (me.last == 0) return 0;                                 // lines 56–57
  if (!advanced) {
    // The loop exited immediately on the persistent cursor: p and q must
    // be reconstructed from the last switch observed set, which is the
    // scan-predecessor of last (scanned positions are ≡ 0 or 1 mod k, and
    // each was seen set when the cursor moved past it).
    const std::uint64_t h =
        (me.last % k_ == 1) ? me.last - 1 : me.last - (k_ - 1);
    p = h % k_;
    q = h / k_;
  }
  return return_value(p, q);                                  // line 58
}

template <typename Backend>
bool KMultCounterT<Backend>::switch_set_unrecorded(std::uint64_t index) const {
  return switch_at(index).peek_unrecorded();
}

template <typename Backend>
std::uint64_t KMultCounterT<Backend>::first_unset_switch_unrecorded() const {
  std::uint64_t i = 0;
  while (switch_at(i).peek_unrecorded()) ++i;
  return i;
}

// Compiled in kmult_counter.cpp for the three shipped backends; other
// backends instantiate from this header.
extern template class KMultCounterT<base::DirectBackend>;
extern template class KMultCounterT<base::RelaxedDirectBackend>;
extern template class KMultCounterT<base::InstrumentedBackend>;

}  // namespace approx::core
