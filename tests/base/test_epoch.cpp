// Tests for base/epoch.hpp: the per-reader epoch / RCU reclamation
// domain behind the server's published group tables and the exact
// snapshot's hard retired-record bound. Covers the guard/horizon
// handshake (a pinned reader blocks reclamation, release frees),
// nested guards on one thread, writer progress while readers
// continuously overlap (the hard-vs-soft distinction), the overflow
// fallback's soft degradation, and a concurrent RCU pointer-swap
// stress that TSan/ASan check over both memory-order backends.
#include "base/epoch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "base/backend.hpp"

namespace approx::base {
namespace {

/// Retire-tracked payload: bumps the counter on destruction so tests
/// can observe exactly when the domain freed it.
struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : freed(&counter) {}
  ~Tracked() { freed->fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int>* freed;
  std::uint64_t value = 0;
};

/// Advance + reclaim until the generic list drains (bounded: each call
/// moves the epoch when no reader blocks it).
template <typename Domain>
void reclaim_until_empty(Domain& domain, int rounds = 16) {
  for (int i = 0; i < rounds && domain.retired_count() > 0; ++i) {
    domain.reclaim();
  }
}

TEST(EpochDomain, RetireFreesAfterGracePeriodsWithNoReaders) {
  EpochDomain domain(4);
  std::atomic<int> freed{0};
  domain.retire(new Tracked(freed));
  // Freshly retired: the stamp is the current epoch, so the horizon
  // has not passed it yet.
  EXPECT_EQ(domain.retired_count(), 1u);
  reclaim_until_empty(domain);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_EQ(domain.reclaimed_count(), 1u);
}

TEST(EpochDomain, PinnedReaderBlocksReclaimReleaseFrees) {
  EpochDomain domain(4);
  std::atomic<int> freed{0};
  {
    const EpochDomain::Guard guard(domain);
    domain.retire(new Tracked(freed));
    // The pinned reader holds the horizon at its epoch: no amount of
    // reclaim passes may free the object while the guard lives.
    for (int i = 0; i < 8; ++i) domain.reclaim();
    EXPECT_EQ(freed.load(), 0);
    EXPECT_EQ(domain.retired_count(), 1u);
  }
  reclaim_until_empty(domain);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomain, NestedGuardsPinIndependently) {
  EpochDomain domain(4);
  std::atomic<int> freed{0};
  {
    const EpochDomain::Guard outer(domain);
    {
      const EpochDomain::Guard inner(domain);
      domain.retire(new Tracked(freed));
      for (int i = 0; i < 4; ++i) domain.reclaim();
      EXPECT_EQ(freed.load(), 0);
    }
    // Inner released; the outer guard alone still blocks: it pinned
    // the epoch the object was reachable in.
    for (int i = 0; i < 8; ++i) domain.reclaim();
    EXPECT_EQ(freed.load(), 0);
  }
  reclaim_until_empty(domain);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomain, OverflowPinBlocksAllFreeingUntilReleased) {
  // One slot: the second concurrent guard must take the overflow path,
  // which degrades the bound to soft (nothing frees) but never breaks
  // safety.
  EpochDomain domain(1);
  std::atomic<int> freed{0};
  {
    const EpochDomain::Guard first(domain);
    const EpochDomain::Guard second(domain);  // overflow
    EXPECT_EQ(domain.overflow_pins(), 1u);
    domain.retire(new Tracked(freed));
    for (int i = 0; i < 8; ++i) domain.reclaim();
    EXPECT_EQ(freed.load(), 0);
  }
  reclaim_until_empty(domain);
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomain, WriterProgressUnderContinuouslyOverlappingReaders) {
  // The hard-bound property in miniature: readers hand critical
  // sections over so there is never a reader-free instant, yet each
  // individual section finishes — the writer's backlog must stay
  // bounded instead of growing with the retire count.
  EpochDomain domain(8);
  std::atomic<int> freed{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 2;
  // One completed-section counter per reader, bumped only after that
  // reader's guard is released.
  std::array<std::atomic<std::uint64_t>, kReaders> sections{};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        {
          const EpochDomain::Guard guard(domain);
        }
        sections[r].fetch_add(1, std::memory_order_release);
      }
    });
  }
  constexpr int kRetires = 400;  // each paced wait can cost a scheduler
                                 // quantum on a loaded 1-core host
  std::size_t max_backlog = 0;
  std::array<std::uint64_t, kReaders> last_sections{};
  for (int i = 0; i < kRetires; ++i) {
    // Pace retires against reader turnover: the hard bound is stated
    // relative to per-reader progress (each section finishes), so every
    // retire waits until *every* reader has completed a fresh section —
    // without ever requiring a reader-free instant, which this workload
    // never has. A reader preempted while pinned therefore stalls the
    // writer instead of letting the other reader's sections race all
    // retires past a horizon it legitimately holds.
    for (int r = 0; r < kReaders; ++r) {
      while (sections[r].load(std::memory_order_acquire) == last_sections[r]) {
        std::this_thread::yield();
      }
      last_sections[r] = sections[r].load(std::memory_order_acquire);
    }
    domain.retire(new Tracked(freed));
    domain.reclaim();
    max_backlog = std::max(max_backlog, domain.retired_count());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  // Backlog bound: each reclaim() advances the epoch at most once and
  // frees everything older than the grace margin, so the list holds a
  // few epochs' worth of retires (one per iteration) plus slack — far
  // below the total. The old quiescence-based scheme would keep the
  // whole history here, since there is never a zero-reader moment.
  EXPECT_LT(max_backlog, 64u) << "retired backlog grew unboundedly";
  EXPECT_GT(freed.load(), kRetires / 2);
  reclaim_until_empty(domain);
  EXPECT_EQ(freed.load(), kRetires);
}

TEST(EpochDomain, EpochAdvancesOnlyWhenActiveReadersCaughtUp) {
  EpochDomain domain(4);
  const std::uint64_t start = domain.current_epoch();
  EXPECT_TRUE(domain.try_advance());
  EXPECT_EQ(domain.current_epoch(), start + 1);
  const EpochDomain::Guard guard(domain);  // pins start + 1
  EXPECT_FALSE(domain.try_advance() && domain.try_advance())
      << "advanced twice past a reader pinned at the first epoch";
}

/// The RCU pattern end to end, the way the server uses it: a writer
/// republishes an immutable object by pointer swap and retires the old
/// one; readers pin, load, dereference, unpin. ASan proves no freed
/// object is ever dereferenced; TSan proves the handshake's ordering.
/// Templated over the backend so the relaxed mapping is exercised too.
template <typename Backend>
void rcu_swap_stress() {
  struct Payload {
    explicit Payload(std::uint64_t v) : a(v), b(~v) {}
    std::uint64_t a;
    std::uint64_t b;
  };
  EpochDomainT<Backend> domain(8);
  std::atomic<Payload*> published{new Payload(0)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const typename EpochDomainT<Backend>::Guard guard(domain);
        const Payload* payload = published.load(std::memory_order_acquire);
        // The invariant a == ~b holds in every published version; a
        // dereference after free (or a torn publication) breaks it.
        ASSERT_EQ(payload->a, ~payload->b);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Wait for every reader to have dereferenced at least once — on a
  // single core the writer could otherwise burn through all its swaps
  // (and set stop) inside one quantum before a reader ever runs.
  while (reads.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }
  constexpr std::uint64_t kSwaps = 3000;
  for (std::uint64_t i = 1; i <= kSwaps; ++i) {
    Payload* next = new Payload(i);
    Payload* old = published.exchange(next, std::memory_order_acq_rel);
    domain.retire(old);
    if (i % 8 == 0) domain.reclaim();
    if (i % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  reclaim_until_empty(domain);
  EXPECT_EQ(domain.retired_count(), 0u);
  delete published.load(std::memory_order_relaxed);
}

TEST(EpochDomain, RcuPointerSwapStressSeqCst) {
  rcu_swap_stress<DirectBackend>();
}

TEST(EpochDomain, RcuPointerSwapStressRelaxedOrders) {
  rcu_swap_stress<RelaxedDirectBackend>();
}

}  // namespace
}  // namespace approx::base
