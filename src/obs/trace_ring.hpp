// trace_ring.hpp — fixed-capacity wait-free structured-event ring: the
// service layer's flight recorder.
//
// The resilience ladder (connect → subscribe → shm → demote → resync →
// reconnect) makes decisions worth replaying after the fact: "why did
// this client fall off shm?", "did the watchdog evict or did the peer
// hang up?", "how many backoff rounds before the session came back?".
// Logs are the classic answer and the classic problem — formatting on
// the hot path, unbounded growth, interleaving. This ring records one
// fixed-size structured event per decision instead: a steady-clock
// stamp, a kind, and two uint64 arguments whose meaning the kind
// defines. Recording is a fetch_add ticket, a CAS on each side of four
// relaxed payload stores — wait-free (bounded retries, see record()),
// allocation-free, and cheap enough to leave on in production.
// Draining is on-demand (chaos tests dump it on failure; the metricsz
// exposition appends its tail).
//
// Concurrency design: this is the MULTI-writer adaptation of the
// single-writer seqlock ring (base/seqlock_ring.hpp — same even/odd
// slot discipline, same fence recipe). head_ is a fetch_add ticket
// counter, and ticket t writes slot t mod capacity during lap
// t / capacity, whose marks are odd 2·lap + 1 (writing) and even
// 2·lap + 2 (stable). The multi-writer hazard is two tickets a full lap
// apart in one slot at once (a recorder stalled for ≥ capacity events).
// So the seq word NEVER decreases: a recorder claims its slot by CAS
// only while the word is below its own odd mark, and publishes its
// stable mark only if the word still holds that odd mark. A recorder
// whose lap has been overtaken drops its event, and can no longer
// write an older mark over a newer stable one — once the recorders
// quiesce, every slot holds the stable mark of the newest ticket that
// maps to it, so the newest `capacity` events all drain. Overlapping
// payload stores of two laps can still leave a chimera behind the
// newer stable mark: the ring is best-effort diagnostics by contract,
// and such a slot holds fields from two REAL events (every store is
// atomic, so this is defined behavior and TSan-clean), never wild
// bytes. Events, not evidence for a court.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

namespace approx::obs {

/// What happened. The a/b argument meaning is per-kind (documented
/// inline); 0 means "not recorded".
enum class TraceKind : std::uint8_t {
  kClientConnect = 0,       // a = client fd
  kClientDisconnect = 1,    // a = client fd
  kClientEvict = 2,         // a = client fd, b = idle ns
  kSubscribe = 3,           // a = client fd, b = filter group size
  kResync = 4,              // a = client fd
  kShmOffer = 5,            // a = client fd, b = ring generation
  kShmAccept = 6,           // a = client fd, b = ring generation
  kShmOverrun = 7,          // a = ring generation
  kShmDemote = 8,           // a = ring generation
  kTickOverrun = 9,         // a = tick ns, b = period ns
  kBackoff = 10,            // a = attempt number, b = delay ms
  kSessionLost = 11,        // a = sessions established so far
  kSessionEstablished = 12  // a = sessions established (this one included)
};

[[nodiscard]] inline const char* trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kClientConnect:
      return "client_connect";
    case TraceKind::kClientDisconnect:
      return "client_disconnect";
    case TraceKind::kClientEvict:
      return "client_evict";
    case TraceKind::kSubscribe:
      return "subscribe";
    case TraceKind::kResync:
      return "resync";
    case TraceKind::kShmOffer:
      return "shm_offer";
    case TraceKind::kShmAccept:
      return "shm_accept";
    case TraceKind::kShmOverrun:
      return "shm_overrun";
    case TraceKind::kShmDemote:
      return "shm_demote";
    case TraceKind::kTickOverrun:
      return "tick_overrun";
    case TraceKind::kBackoff:
      return "backoff";
    case TraceKind::kSessionLost:
      return "session_lost";
    case TraceKind::kSessionEstablished:
      return "session_established";
  }
  return "unknown";
}

/// One drained event.
struct TraceEvent {
  std::uint64_t ns = 0;  // steady clock, nanoseconds
  TraceKind kind = TraceKind::kClientConnect;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// The ring. Concrete (not backend-templated) so every layer above can
/// hold a `TraceRing*` without dragging a Backend parameter through its
/// options structs; the memory-order mapping is fixed at the seqlock
/// recipe's (the formal-model backends make no difference to a
/// diagnostics ring that discards uncertified slots anyway).
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (min 8): the ticket → slot
  /// map must be a mask for wait-freedom (no modulo-by-variable in the
  /// record path is needed, but the LAP math divides, so pow2 keeps both
  /// a shift).
  explicit TraceRing(std::size_t capacity = 1024) {
    std::size_t cap = 8;
    unsigned shift = 3;
    while (cap < capacity && cap < (std::size_t{1} << 30)) {
      cap <<= 1;
      ++shift;
    }
    capacity_ = cap;
    shift_ = shift;
    slots_ = std::make_unique<Slot[]>(capacity_);
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one event; never blocks, never allocates, safe from any
  /// thread. Uncontended it costs one fetch_add, one CAS per seq mark
  /// and four relaxed stores. Wait-free: the claim CAS fails (beyond a
  /// weak CAS's spurious failures) only when another recorder of the
  /// same slot raised its seq word, and only recorders of EARLIER laps
  /// can raise it without overtaking this one — each at most twice — so
  /// the retries are bounded by the recorders stalled in that slot. An
  /// overtaken recorder drops its event.
  void record(TraceKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    const std::uint64_t ticket =
        head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    const std::uint64_t stable = 2 * ((ticket >> shift_) + 1);
    std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
    do {
      if (seen >= stable - 1) return;  // a later lap owns the slot
    } while (!slot.seq.compare_exchange_weak(seen, stable - 1,
                                             std::memory_order_relaxed));
    // Release fence: the odd mark precedes the payload stores (the
    // seqlock recipe — see base/seqlock_ring.hpp's audit block).
    std::atomic_thread_fence(std::memory_order_release);
    slot.ns.store(now_ns(), std::memory_order_relaxed);
    slot.kind.store(static_cast<std::uint64_t>(kind),
                    std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    // Publish only over our own odd mark: a later lap that claimed the
    // slot meanwhile keeps it (and this event is dropped).
    std::uint64_t mine = stable - 1;
    slot.seq.compare_exchange_strong(mine, stable, std::memory_order_release,
                                     std::memory_order_relaxed);
  }

  /// Appends the newest ≤ capacity events to `out`, oldest first,
  /// skipping slots whose seq does not certify an untorn copy (in-flight
  /// or lapped — best-effort by contract). Returns how many appended.
  std::size_t snapshot(std::vector<TraceEvent>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t first = head > capacity_ ? head - capacity_ : 0;
    std::size_t appended = 0;
    for (std::uint64_t ticket = first; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & (capacity_ - 1)];
      const std::uint64_t stable = 2 * ((ticket >> shift_) + 1);
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != stable) continue;  // in flight, lapped, or never written
      TraceEvent event;
      event.ns = slot.ns.load(std::memory_order_relaxed);
      const std::uint64_t kind = slot.kind.load(std::memory_order_relaxed);
      event.a = slot.a.load(std::memory_order_relaxed);
      event.b = slot.b.load(std::memory_order_relaxed);
      // Acquire fence: the payload loads precede the re-check load.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      if (kind > static_cast<std::uint64_t>(TraceKind::kSessionEstablished)) {
        continue;  // a lap-collision chimera; drop it
      }
      event.kind = static_cast<TraceKind>(kind);
      out.push_back(event);
      ++appended;
    }
    return appended;
  }

  /// Events ever recorded (recorded − capacity have been overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The stamp clock, exposed so drain-side consumers can print ages.
  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  /// One slot: the seqlock word + the event's four payload words, padded
  /// to a cache line so concurrent recorders on neighboring slots do not
  /// false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  std::size_t capacity_ = 0;
  unsigned shift_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Prints a drained ring human-readably (one event per line, ages
/// relative to the newest event) — the chaos tests' failure dump and
/// the dashboard's trace view.
inline void print_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os) {
  const std::uint64_t newest = events.empty() ? 0 : events.back().ns;
  for (const TraceEvent& event : events) {
    const std::uint64_t age_us = (newest - event.ns) / 1000;
    os << "  [-" << age_us << "us] " << trace_kind_name(event.kind) << " a="
       << event.a << " b=" << event.b << "\n";
  }
}

}  // namespace approx::obs
