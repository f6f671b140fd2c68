// kmult_bounded_counter.hpp — the m-bounded k-multiplicative counter,
// the object class of Theorem V.4 / Lemma V.3.
//
// The paper proves the worst-case lower bound Ω(min(n, log₂ log_k m))
// for m-bounded k-multiplicative counters but gives no algorithm (§VI
// lists the achievable worst case as an open question). This class
// instantiates the object: a k-multiplicative counter that accepts at
// most m CounterIncrement instances over its lifetime, built on the
// corrected unbounded counter with the binary-search read as the default
// read path.
//
// Worst-case step complexity achieved:
//   * increment: O(k) (one interval probe pass);
//   * read: O(log₂ S_m) where S_m = kmult_position_bound(k, m)
//     (core/help_pack.hpp) bounds the switch indices m increments can
//     ever set — i.e.
//     O(log₂ k + log₂ log_k m), matching the paper's
//     Ω(min(n, log₂ log_k m)) lower bound up to the additive log₂ k term
//     (for k = O(polylog m) this is Θ(log₂ log_k m)).
//
// The m-bound is a *contract* on callers (the paper's model bounds the
// number of increment instances, not a runtime-enforced shared limit);
// it is checked in debug builds with a (non-model) atomic tally.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "base/backend.hpp"
#include "core/help_pack.hpp"
#include "core/kmult_counter_corrected.hpp"

namespace approx::core {

/// m-bounded k-multiplicative-accurate counter with worst-case
/// O(log₂ k + log₂ log_k m) reads (Theorem V.4's object).
template <typename Backend = base::InstrumentedBackend>
class KMultBoundedCounterT {
 public:
  using backend_type = Backend;

  /// @param num_processes n.
  /// @param k accuracy parameter, k ≥ 2 (band guaranteed for k ≥ √n).
  /// @param m bound on the total number of increment instances.
  KMultBoundedCounterT(unsigned num_processes, std::uint64_t k,
                       std::uint64_t m)
      : counter_(num_processes, k), m_(m) {}

  KMultBoundedCounterT(const KMultBoundedCounterT&) = delete;
  KMultBoundedCounterT& operator=(const KMultBoundedCounterT&) = delete;

  /// CounterIncrement. Callers must not exceed m instances in total.
  void increment(unsigned pid) {
    assert(applied_.fetch_add(1, std::memory_order_relaxed) < m_ &&
           "KMultBoundedCounter: more than m increments applied");
    counter_.increment(pid);
  }

  /// CounterRead with worst-case O(log₂ k + log₂ log_k m) steps.
  std::uint64_t read(unsigned pid) { return counter_.read_fast(pid); }

  /// The amortized-O(1) linear-scan read (persistent cursor), for
  /// workloads that prefer amortized cost over worst-case cost.
  std::uint64_t read_amortized(unsigned pid) { return counter_.read(pid); }

  [[nodiscard]] unsigned num_processes() const noexcept {
    return counter_.num_processes();
  }
  [[nodiscard]] std::uint64_t k() const noexcept { return counter_.k(); }
  [[nodiscard]] std::uint64_t m() const noexcept { return m_; }
  [[nodiscard]] bool accuracy_guaranteed() const noexcept {
    return counter_.accuracy_guaranteed();
  }

  /// S_m: bound on the switch indices m increments can set. Reads probe
  /// at most ~2·log₂ of this.
  [[nodiscard]] std::uint64_t max_switch_index() const noexcept {
    return kmult_position_bound(counter_.k(), m_ < 1 ? 1 : m_);
  }

 private:
  KMultCounterCorrectedT<Backend> counter_;
  std::uint64_t m_;
  std::atomic<std::uint64_t> applied_{0};  // debug accounting of the m-bound
};

/// The model-faithful default instantiation (pre-policy class name).
using KMultBoundedCounter = KMultBoundedCounterT<base::InstrumentedBackend>;

}  // namespace approx::core
