// sharded_counter.hpp — the sharding layer: S underlying counters behind
// one counter API.
//
// Every counter in this repo is a single instance whose shared objects
// (helping array, switch array, snapshot slots) form one hotspot — the
// scalability wall the ROADMAP's "millions of users" north star runs
// into. `ShardedCounterT` stripes increments across S shards and sums
// them on read, composing the paper's accuracy guarantees instead of
// abandoning them:
//
//   * k-multiplicative shards compose losslessly. Each shard read
//     x_i ∈ [v_i/k, v_i·k] for its shard's exact value v_i at its own
//     linearization point, so Σx_i ∈ [Σv_i/k, Σv_i·k]. Each v_i is
//     observed inside the read's interval and the per-shard counts are
//     monotone, so Σv_i lies between the total count at the read's
//     invocation and at its response; the total count is monotone and
//     steps by 1, hence some point in the interval has exactly that
//     total — a valid linearization value. A sharded k-multiplicative
//     counter is therefore itself k-multiplicative-accurate:
//     error_bound() == k, independent of S.
//
//   * k-additive shards compose with slack S·k: each shard may err by
//     ±k, so the sum may err by ±S·k (same interval argument for the
//     linearization point). error_bound() == S·k — the layer tracks and
//     reports the composed slack rather than hiding it.
//
//   * exact shards stay exact (the collect-counter argument verbatim);
//     error_bound() == 0.
//
// Shard placement. Increments route by thread id (kHashPinned, the
// default: home shard = pid mod S — on the dense pid space 0..n−1 the
// identity is the balanced hash, and it keeps the in-shard remap O(1))
// or rotate per-increment (kRoundRobin, rebalancing skewed incrementers
// where rotation balances anything — see the remap table below). Reads
// always visit every shard.
//
// Shard sizing. Underlying counters whose read() takes no pid (the
// collect/snapshot/fetch&add/k-additive family) are *compact-sharded*:
// shard s is constructed only over the ~n/S pids homed on it, so
// per-shard costs that scale with the process count drop by S (collect
// reads) or S² (snapshot updates, whose embedded scans are quadratic) —
// the algorithmic win E14 measures. Counters whose read(pid) carries
// per-process state (the k-multiplicative family: read cursors + helping
// buffers) are *full-width* sharded — every shard spans all n pids so
// any pid may read any shard race-free; the win there is splitting
// announce/helping traffic, not shrinking n.
//
// The round-robin remap table. Round-robin used to force the compact
// family back to full-width shards (any pid could flush into any
// shard). But for that family a shard "slot" is a single-writer
// register: increments contend with nobody, so rotating them balances
// *nothing* — it only destroys the compact layout. The per-pid remap
// table makes this explicit: every slot-owning increment is remapped to
// its pid's compact home cell (home shard, local slot) under BOTH
// policies, so E14's n/S-wide collect win now applies to round-robin
// fleets too. Rotation is preserved exactly where increments really
// contend: shared-cell shards (fetch&add — the rr cursor spreads RMW
// traffic over the S cells) and the full-width k-multiplicative family
// (the rr cursor spreads announce/helping traffic over the S switch
// arrays, at the cost of the pinned mode's tighter accuracy
// precondition — see accuracy_guaranteed()).
//
// The S shards live in one 64-byte-aligned array, each padded to whole
// cache lines: a read walks S adjacent headers instead of chasing S
// pointers, and shard headers never false-share. Per-pid routing state
// is line-padded likewise.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "core/kadditive_counter.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_counter_corrected.hpp"
#include "exact/collect_counter.hpp"
#include "exact/fetch_add_counter.hpp"
#include "exact/snapshot_counter.hpp"

namespace approx::shard {

/// How a sharded counter's read error composes from its shards'.
enum class ErrorModel : std::uint8_t {
  kExact,           // error_bound() == 0, reads are exact
  kMultiplicative,  // v/b ≤ x ≤ v·b for b = error_bound()
  kAdditive,        // v−b ≤ x ≤ v+b for b = error_bound()
  kHistogram,       // vector entry: per-bucket v−b ≤ c ≤ v (one-sided)
  kTopK,            // labeled vector entry: exact max-register rows
};

/// Increment routing policy.
enum class ShardPolicy : std::uint8_t {
  kHashPinned,  // pid hashes to one home shard (default)
  kRoundRobin,  // each increment advances a per-pid cursor over shards
};

/// Per-underlying-counter accuracy metadata. Specialized for every
/// counter type the layer composes; `composed_bound(k, shards)` is the
/// statically computed error bound of the S-shard aggregate.
template <typename Counter>
struct ShardTraits;

template <typename Backend>
struct ShardTraits<core::KMultCounterT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kMultiplicative;
  static constexpr std::uint64_t composed_bound(std::uint64_t k,
                                                unsigned /*shards*/) noexcept {
    return k;  // multiplicative bands are closed under summation
  }
};

template <typename Backend>
struct ShardTraits<core::KMultCounterCorrectedT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kMultiplicative;
  static constexpr std::uint64_t composed_bound(std::uint64_t k,
                                                unsigned /*shards*/) noexcept {
    return k;
  }
};

template <typename Backend>
struct ShardTraits<core::KAdditiveCounterT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kAdditive;
  static constexpr std::uint64_t composed_bound(std::uint64_t k,
                                                unsigned shards) noexcept {
    return base::sat_mul(k, shards);  // ±k per shard adds up
  }
};

template <typename Backend>
struct ShardTraits<exact::FetchAddCounterT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kExact;
  static constexpr std::uint64_t composed_bound(std::uint64_t /*k*/,
                                                unsigned /*shards*/) noexcept {
    return 0;
  }
};

template <typename Backend>
struct ShardTraits<exact::CollectCounterT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kExact;
  static constexpr std::uint64_t composed_bound(std::uint64_t /*k*/,
                                                unsigned /*shards*/) noexcept {
    return 0;
  }
};

template <typename Backend>
struct ShardTraits<exact::SnapshotCounterT<Backend>> {
  static constexpr ErrorModel kModel = ErrorModel::kExact;
  static constexpr std::uint64_t composed_bound(std::uint64_t /*k*/,
                                                unsigned /*shards*/) noexcept {
    return 0;
  }
};

/// Wait-free counter striping increments over S shards of `CounterTmpl`.
/// Wait-freedom, linearizability and the (composed) accuracy band are
/// inherited from the underlying counter as derived in the header.
template <template <typename> class CounterTmpl,
          typename Backend = base::InstrumentedBackend>
class ShardedCounterT {
 public:
  using backend_type = Backend;
  using shard_type = CounterTmpl<Backend>;
  using traits = ShardTraits<shard_type>;

  /// True iff the underlying read() carries per-process state (pid
  /// argument) — forces full-width shards; compact sharding otherwise.
  static constexpr bool kReadTakesPid =
      requires(shard_type& c) { c.read(0u); };

  /// @param num_processes n; pids are 0..n−1, one thread per pid.
  /// @param k the *per-shard* accuracy parameter (ignored by exact
  ///   shards); the composed bound is error_bound().
  /// @param num_shards requested S, clamped to [1, n].
  ShardedCounterT(unsigned num_processes, std::uint64_t k,
                  unsigned num_shards,
                  ShardPolicy policy = ShardPolicy::kHashPinned)
      : n_(num_processes),
        k_(k),
        policy_(policy),
        num_shards_(clamp_shards(num_shards, num_processes)),
        compact_(!kReadTakesPid),
        per_process_(new PerProcess[num_processes]) {
    assert(num_processes >= 1);
    // The remap table: every pid's compact home cell, precomputed. Slot-
    // owning increments route through it under both policies (see the
    // header); full-width shards keep the global pid as the local slot.
    for (unsigned pid = 0; pid < num_processes; ++pid) {
      per_process_[pid].route_shard = home_shard(pid);
      per_process_[pid].route_local = compact_ ? local_pid(pid) : pid;
    }
    shards_.boxes = static_cast<Box*>(::operator new(
        num_shards_ * sizeof(Box), std::align_val_t{alignof(Box)}));
    for (unsigned s = 0; s < num_shards_; ++s) {
      const unsigned shard_pids = compact_ ? bucket_size(s) : n_;
      Box* box = shards_.boxes + s;
      if constexpr (std::is_constructible_v<shard_type, unsigned,
                                            std::uint64_t>) {
        new (box) Box(shard_pids, k);
      } else if constexpr (std::is_constructible_v<shard_type, unsigned>) {
        new (box) Box(shard_pids);
      } else {
        (void)shard_pids;  // e.g. fetch&add: a single cell, no pid space
        new (box) Box();
      }
      shards_.built = s + 1;
    }
  }

  ShardedCounterT(const ShardedCounterT&) = delete;
  ShardedCounterT& operator=(const ShardedCounterT&) = delete;

  /// Adds one to the count. At most one thread per pid.
  void increment(unsigned pid) {
    assert(pid < n_);
    PerProcess& me = per_process_[pid];
    if constexpr (requires(shard_type& c) { c.increment(0u); }) {
      if (kReadTakesPid && policy_ == ShardPolicy::kRoundRobin) {
        // Full-width k-multiplicative family: rotation spreads announce/
        // helping traffic, and any pid may hit any shard (global pid).
        const unsigned s = static_cast<unsigned>(
            (home_shard(pid) + me.rr_cursor++) % num_shards_);
        shards_.boxes[s].shard.increment(pid);
      } else {
        // Slot-owning increments (single-writer slots): the remap table
        // routes both policies onto the compact home cell — rotation has
        // no contention to balance here (see the header).
        shards_.boxes[me.route_shard].shard.increment(me.route_local);
      }
    } else {
      // Shared-cell shards (fetch&add): rotation spreads RMW contention.
      unsigned s = me.route_shard;
      if (policy_ == ShardPolicy::kRoundRobin) {
        s = static_cast<unsigned>((s + me.rr_cursor++) % num_shards_);
      }
      shards_.boxes[s].shard.increment();
    }
  }

  /// Returns the sum of all shard reads — within the error_bound() band
  /// of the exact count at some point inside the call's interval (see
  /// the header derivation).
  [[nodiscard]] std::uint64_t read(unsigned pid) {
    assert(pid < n_);
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < num_shards_; ++s) {
      shard_type& target = shards_.boxes[s].shard;
      if constexpr (kReadTakesPid) {
        sum = base::sat_add(sum, target.read(pid));
      } else {
        sum = base::sat_add(sum, target.read());
      }
    }
    return sum;
  }

  /// Flushes `pid`'s pending local batches (underlying counters that
  /// batch, e.g. the k-additive one), making a subsequent quiescent read
  /// exact. No-op for non-batching shards.
  void flush(unsigned pid) {
    assert(pid < n_);
    if constexpr (requires(shard_type& c) { c.flush(0u); }) {
      // Batching counters are slot-owning, so the remap table confines
      // every batch to the pid's home cell — under both policies.
      const PerProcess& me = per_process_[pid];
      shards_.boxes[me.route_shard].shard.flush(me.route_local);
    }
  }

  /// The composed accuracy model and bound of read() — statically
  /// derived from the underlying counter's ShardTraits.
  [[nodiscard]] static constexpr ErrorModel error_model() noexcept {
    return traits::kModel;
  }
  [[nodiscard]] std::uint64_t error_bound() const noexcept {
    return traits::composed_bound(k_, num_shards_);
  }

  /// Whether the accuracy band is guaranteed for this configuration.
  /// Multiplicative shards require k ≥ ⌈√w⌉ for w = the number of
  /// processes that may increment one shard: the hash-pinned policy
  /// confines each pid to its home shard, so w = ⌈n/S⌉ — sharding
  /// *relaxes* the paper's k ≥ ⌈√n⌉ precondition; round-robin lets
  /// every pid hit every shard, so w = n.
  [[nodiscard]] bool accuracy_guaranteed() const noexcept {
    if constexpr (traits::kModel == ErrorModel::kMultiplicative) {
      const unsigned writers =
          policy_ == ShardPolicy::kHashPinned ? bucket_size(0) : n_;
      return k_ >= base::ceil_sqrt(writers);
    } else {
      return true;
    }
  }

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
  [[nodiscard]] unsigned num_shards() const noexcept { return num_shards_; }
  [[nodiscard]] ShardPolicy policy() const noexcept { return policy_; }

  /// Whether this instance uses compact (bucket-sized) shards.
  [[nodiscard]] bool compact() const noexcept { return compact_; }

  /// The home shard of `pid`: pid mod S (see header on why the identity
  /// hash is the right one for dense pid spaces).
  [[nodiscard]] unsigned home_shard(unsigned pid) const noexcept {
    return pid % num_shards_;
  }

  /// Index of `pid` within its home shard's compact pid space.
  [[nodiscard]] unsigned local_pid(unsigned pid) const noexcept {
    return pid / num_shards_;
  }

  /// Number of pids homed on shard `s`. Largest at s = 0 (= ⌈n/S⌉).
  [[nodiscard]] unsigned bucket_size(unsigned s) const noexcept {
    assert(s < num_shards_);
    return (n_ - s - 1) / num_shards_ + 1;
  }

  /// Direct shard access for tests and diagnostics.
  [[nodiscard]] shard_type& shard(unsigned s) noexcept {
    assert(s < num_shards_);
    return shards_.boxes[s].shard;
  }

 private:
  struct alignas(64) PerProcess {
    std::uint64_t rr_cursor = 0;  // round-robin rotation state
    unsigned route_shard = 0;     // remap table: the pid's home cell
    unsigned route_local = 0;     //   (shard index, in-shard slot)
  };

  /// One shard, padded to whole cache lines.
  struct alignas(64) Box {
    shard_type shard;
    template <typename... Args>
    explicit Box(Args&&... args) : shard(std::forward<Args>(args)...) {}
  };

  /// The S boxes in one aligned allocation, constructed in place (shards
  /// are neither copyable nor movable). `built` counts the constructed
  /// prefix, so a shard constructor that throws leaves nothing behind.
  struct BoxArray {
    Box* boxes = nullptr;
    unsigned built = 0;

    BoxArray() = default;
    BoxArray(const BoxArray&) = delete;
    BoxArray& operator=(const BoxArray&) = delete;
    ~BoxArray() {
      while (built > 0) boxes[--built].~Box();
      ::operator delete(boxes, std::align_val_t{alignof(Box)});
    }
  };

  static unsigned clamp_shards(unsigned requested, unsigned n) noexcept {
    if (requested < 1) return 1;
    return requested > n ? n : requested;
  }

  unsigned n_;
  std::uint64_t k_;
  ShardPolicy policy_;
  unsigned num_shards_;
  bool compact_;
  BoxArray shards_;
  std::unique_ptr<PerProcess[]> per_process_;
};

}  // namespace approx::shard
