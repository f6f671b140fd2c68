// Tests for the telemetry registry (src/shard/registry.hpp) and the
// batching aggregator (src/shard/aggregator.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "core/approx.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"

namespace approx::shard {
namespace {

TEST(Registry, CreateLookupAndMissing) {
  Registry registry(4);
  AnyCounter& requests =
      registry.create("requests", {ErrorModel::kMultiplicative, 2, 2});
  EXPECT_EQ(registry.lookup("requests"), &requests);
  EXPECT_EQ(registry.lookup("nope"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, CreateIsIdempotentFirstSpecWins) {
  Registry registry(4);
  AnyCounter& first =
      registry.create("hits", {ErrorModel::kMultiplicative, 2, 2});
  first.increment(0);
  AnyCounter& second =
      registry.create("hits", {ErrorModel::kAdditive, 64, 4});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.error_model(), ErrorModel::kMultiplicative);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, SamplesCarryModelAndBound) {
  Registry registry(4);
  registry.create("m", {ErrorModel::kMultiplicative, 3, 2});
  registry.create("a", {ErrorModel::kAdditive, 8, 4});
  registry.create("x", {ErrorModel::kExact, 0, 4});
  const auto samples = registry.snapshot_all(0);
  ASSERT_EQ(samples.size(), 3u);  // name-sorted: a, m, x
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].model, ErrorModel::kAdditive);
  EXPECT_EQ(samples[0].error_bound, 32u);
  EXPECT_EQ(samples[1].name, "m");
  EXPECT_EQ(samples[1].model, ErrorModel::kMultiplicative);
  EXPECT_EQ(samples[1].error_bound, 3u);
  EXPECT_EQ(samples[2].name, "x");
  EXPECT_EQ(samples[2].model, ErrorModel::kExact);
  EXPECT_EQ(samples[2].error_bound, 0u);
  EXPECT_STREQ(error_model_name(samples[0].model), "add");
  EXPECT_STREQ(error_model_name(samples[1].model), "mult");
  EXPECT_STREQ(error_model_name(samples[2].model), "exact");
}

TEST(Registry, SnapshotAllValuesStayInReportedBand) {
  Registry registry(2);
  AnyCounter& mult =
      registry.create("mult", {ErrorModel::kMultiplicative, 2, 2});
  AnyCounter& exact = registry.create("exact", {ErrorModel::kExact, 0, 2});
  for (int i = 0; i < 500; ++i) {
    mult.increment(0);
    exact.increment(0);
  }
  for (const Sample& sample : registry.snapshot_all(1)) {
    if (sample.model == ErrorModel::kMultiplicative) {
      EXPECT_TRUE(core::within_mult_band(sample.value, 500,
                                         sample.error_bound))
          << sample.name << "=" << sample.value;
    } else {
      EXPECT_EQ(sample.value, 500u) << sample.name;
    }
  }
}

TEST(Registry, ConcurrentGetOrCreateYieldsOneCounterPerName) {
  // Racing workers lazily materializing the same names must converge on
  // one instance each (DirectBackend: real threads, no sim scheduler).
  RegistryT<base::DirectBackend> registry(8);
  constexpr unsigned kWorkers = 8;
  constexpr int kNames = 4;
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (unsigned pid = 0; pid < kWorkers; ++pid) {
    workers.emplace_back([&, pid] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        const std::string name = "ctr" + std::to_string(i % kNames);
        AnyCounter& counter = registry.create(
            name, {ErrorModel::kExact, 0, 4, ShardPolicy::kHashPinned});
        counter.increment(pid);
      }
    });
  }
  while (ready.load() < kWorkers) std::this_thread::yield();
  go.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kNames));
  std::uint64_t total = 0;
  for (const Sample& sample : registry.snapshot_all(0)) {
    total += sample.value;
  }
  EXPECT_EQ(total, std::uint64_t{kWorkers} * 200);
}

TEST(Registry, SnapshotAllIntoReusesStorageAndTracksVersion) {
  Registry registry(2);
  registry.create("b", {ErrorModel::kExact, 0, 2});
  registry.create("a", {ErrorModel::kExact, 0, 2});

  std::vector<Sample> frame;
  std::uint64_t version = registry.snapshot_all_into(0, frame, 0);
  ASSERT_EQ(frame.size(), 2u);
  EXPECT_EQ(frame[0].name, "a");  // flat table stays name-sorted
  EXPECT_EQ(frame[1].name, "b");
  EXPECT_EQ(version, registry.version());

  // Steady state: same version → values refreshed in place, constants
  // (and the samples' string storage) untouched.
  registry.lookup("a")->increment(0);
  const char* const name_storage = frame[0].name.data();
  const std::uint64_t same = registry.snapshot_all_into(0, frame, version);
  EXPECT_EQ(same, version);
  EXPECT_EQ(frame[0].name.data(), name_storage);
  EXPECT_EQ(frame[0].value, 1u);

  // A create bumps the version and the next pass re-fills the constants,
  // keeping the sorted order with the newcomer in place.
  registry.create("aa", {ErrorModel::kAdditive, 8, 2});
  const std::uint64_t bumped = registry.snapshot_all_into(0, frame, same);
  EXPECT_GT(bumped, same);
  ASSERT_EQ(frame.size(), 3u);
  EXPECT_EQ(frame[0].name, "a");
  EXPECT_EQ(frame[1].name, "aa");
  EXPECT_EQ(frame[1].model, ErrorModel::kAdditive);
  EXPECT_EQ(frame[1].error_bound, 16u);
  EXPECT_EQ(frame[2].name, "b");

  // The allocating form agrees with the in-place form.
  const auto allocated = registry.snapshot_all(0);
  ASSERT_EQ(allocated.size(), frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(allocated[i].name, frame[i].name);
    EXPECT_EQ(allocated[i].value, frame[i].value);
  }
}

TEST(Registry, VersionsAreUniquePerRegistryInstance) {
  // Reusing a frame against a *different* registry must take the full
  // refresh path even when both registries hold equally many counters
  // after equally many creates — versions carry a per-instance nonce.
  Registry first(2);
  first.create("a", {ErrorModel::kExact, 0, 2});
  Registry second(2);
  second.create("z", {ErrorModel::kAdditive, 8, 2});
  ASSERT_NE(first.version(), second.version());

  std::vector<Sample> frame;
  const std::uint64_t from_first = first.snapshot_all_into(0, frame, 0);
  EXPECT_EQ(frame[0].name, "a");
  (void)second.snapshot_all_into(0, frame, from_first);
  EXPECT_EQ(frame[0].name, "z");  // refreshed, not stale "a"
  EXPECT_EQ(frame[0].model, ErrorModel::kAdditive);
}

TEST(Registry, ForEachChangedSinceYieldsEmptyDeltaOnUnchangedFleet) {
  // The delta channel's pinning contract (src/svc builds on this): a
  // sequenced pass over a fleet nothing incremented marks nothing
  // changed, so the walk since the previous pass visits zero entries —
  // the aggregator/service no longer re-encodes every entry every tick.
  Registry registry(2);
  AnyCounter& a = registry.create("a", {ErrorModel::kExact, 0, 1});
  registry.create("b", {ErrorModel::kExact, 0, 1});
  a.increment(0);

  std::vector<Sample> frame;
  std::uint64_t version = registry.snapshot_all_into_sequenced(0, frame, 0, 1);
  // Pass 1 baselines: every entry is new, so everything changed at 1.
  std::size_t visited = 0;
  auto upto = registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_EQ(visited, 2u);
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, 1u);  // the walk is complete up to pass 1

  // Pass 2 with an untouched fleet: the delta since pass 1 is EMPTY.
  version = registry.snapshot_all_into_sequenced(0, frame, version, 2);
  visited = 0;
  upto = registry.for_each_changed_since(
      1, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_EQ(visited, 0u);
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, 2u);

  // One increment: pass 3's delta names exactly that entry, with the
  // collected value and the changing pass's sequence.
  a.increment(0);
  (void)registry.snapshot_all_into_sequenced(0, frame, version, 3);
  upto = registry.for_each_changed_since(
      2, version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>* counts) {
        ++visited;
        EXPECT_EQ(index, 0u);  // "a" sorts first
        EXPECT_EQ(name, "a");
        EXPECT_EQ(value, 2u);
        EXPECT_EQ(changed_seq, 3u);
        EXPECT_EQ(counts, nullptr);  // scalar entries carry no buckets
      });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(upto.value_or(0), 3u);
  // The since-0 walk still reports both entries (b last changed at 1).
  visited = 0;
  (void)registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_EQ(visited, 2u);

  // A stale expected_version (the table grew: indices shifted) refuses
  // the walk instead of reporting now-misaligned indices.
  registry.create("c", {ErrorModel::kExact, 0, 1});
  visited = 0;
  upto = registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_FALSE(upto.has_value());
  EXPECT_EQ(visited, 0u);
}

TEST(Registry, FilteredChangedSinceWalkReportsSubsetPositions) {
  // The service layer's per-subscription delta walk: restricted to a
  // selection of flat-table rows, reporting positions WITHIN the
  // selection (the index space of a filtered wire name table).
  Registry registry(2);
  AnyCounter& a = registry.create("a", {ErrorModel::kExact, 0, 1});
  registry.create("b", {ErrorModel::kExact, 0, 1});
  AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  registry.create("d", {ErrorModel::kExact, 0, 1});

  std::vector<Sample> frame;
  std::uint64_t version = registry.snapshot_all_into_sequenced(0, frame, 0, 1);
  a.increment(0);
  c.increment(0);
  version = registry.snapshot_all_into_sequenced(0, frame, version, 2);

  // Selection {a, c, d} = flat rows {0, 2, 3}; since pass 1 only a and
  // c moved, so subset positions 0 ("a") and 1 ("c") are visited — "d"
  // (position 2) is not, and "b" is invisible to this subscription.
  const std::vector<std::uint64_t> selection = {0, 2, 3};
  std::vector<std::size_t> subset_positions;
  std::vector<std::string> names;
  auto upto = registry.for_each_changed_since_filtered(
      1, version, selection,
      [&](std::size_t subset_index, std::size_t flat_index,
          const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>*) {
        subset_positions.push_back(subset_index);
        names.push_back(name);
        EXPECT_EQ(flat_index, selection[subset_index]);
        EXPECT_EQ(value, 1u);
        EXPECT_EQ(changed_seq, 2u);
      });
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, 2u);
  ASSERT_EQ(subset_positions.size(), 2u);
  EXPECT_EQ(subset_positions[0], 0u);
  EXPECT_EQ(subset_positions[1], 1u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "c");

  // Version guard: a stale expected_version refuses the walk.
  EXPECT_FALSE(registry
                   .for_each_changed_since_filtered(
                       0, version + 1, selection,
                       [&](std::size_t, std::size_t, const std::string&,
                           std::uint64_t, std::uint64_t,
                           const std::vector<std::uint64_t>*) { FAIL(); })
                   .has_value());
  // An out-of-range selection index (built against some other table)
  // refuses too, rather than visiting a misaligned subset.
  const std::vector<std::uint64_t> bogus = {0, 99};
  EXPECT_FALSE(registry
                   .for_each_changed_since_filtered(
                       0, version, bogus,
                       [&](std::size_t, std::size_t, const std::string&,
                           std::uint64_t, std::uint64_t,
                           const std::vector<std::uint64_t>*) { FAIL(); })
                   .has_value());
}

// Minimal in-test instruments for the vector-entry registry contracts
// (the real implementations live in src/stats; the registry only sees
// the erased interfaces, so fakes keep the layering test-local).
class FakeHistogram final : public AnyHistogram {
 public:
  void record(unsigned, std::uint64_t value) override {
    counts_[value < 10 ? 0 : 1] += 1;
  }
  void snapshot_into(unsigned, std::vector<std::uint64_t>& counts) override {
    counts.assign(counts_.begin(), counts_.end());
  }
  void flush(unsigned) override {}
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_bounds()
      const override {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override { return 0; }

 private:
  std::vector<std::uint64_t> bounds_ = {10};  // two buckets: ≤10, rest
  std::array<std::uint64_t, 2> counts_ = {0, 0};
};

class FakeTopK final : public AnyTopK {
 public:
  bool update(unsigned, std::string_view label, std::uint64_t value) override {
    auto [it, inserted] = rows_.try_emplace(std::string(label), value);
    if (!inserted && it->second < value) it->second = value;
    return true;
  }
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) override {
    labels.clear();
    values.clear();
    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto& [label, value] : rows_) ranked.emplace_back(value, label);
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });
    for (const auto& [value, label] : ranked) {
      labels.push_back(label);
      values.push_back(value);
    }
  }
  [[nodiscard]] std::size_t capacity() const override { return 16; }

 private:
  std::map<std::string, std::uint64_t> rows_;
};

TEST(Registry, ReservedPrefixRejectedByPublicEntryPoints) {
  // "__sys/" is the server's namespace: every public get-or-create must
  // refuse it (nullptr, factory never invoked) so an application cannot
  // squat on — or collide with — the self-observability instruments.
  Registry registry(2);
  EXPECT_TRUE(is_reserved_name("__sys/server.ticks"));
  EXPECT_TRUE(is_reserved_name(std::string(kReservedPrefix)));
  EXPECT_FALSE(is_reserved_name("app/requests"));
  EXPECT_FALSE(is_reserved_name("__sysish"));

  EXPECT_EQ(registry.get_or_create("__sys/server.ticks",
                                   {ErrorModel::kAdditive, 4, 1}),
            nullptr);
  bool invoked = false;
  EXPECT_EQ(registry.add_histogram("__sys/h",
                                   [&] {
                                     invoked = true;
                                     return std::make_unique<FakeHistogram>();
                                   }),
            nullptr);
  EXPECT_EQ(registry.add_topk("__sys/t",
                              [&] {
                                invoked = true;
                                return std::make_unique<FakeTopK>();
                              }),
            nullptr);
  EXPECT_FALSE(invoked);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.lookup("__sys/server.ticks"), nullptr);
}

TEST(Registry, ReservedAddersRequireTheReservedPrefix) {
  // The privileged adders are the mirror image: they accept ONLY
  // reserved names (a non-reserved name through the privileged path
  // would bypass the public kind-collision story) and their entries
  // collect like any other.
  Registry registry(2);
  AnyCounter* gauge = registry.add_counter_reserved(
      "__sys/server.ticks",
      [] {
        return std::make_unique<detail::ErasedSharded<
            core::KAdditiveCounterT, base::InstrumentedBackend>>(
            2u, std::uint64_t{4}, 1u, ShardPolicy::kHashPinned);
      });
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(registry.add_counter_reserved("app/requests", [] {
    return std::unique_ptr<AnyCounter>();
  }),
            nullptr);
  EXPECT_EQ(registry.add_histogram_reserved("app/h", [] {
    return std::make_unique<FakeHistogram>();
  }),
            nullptr);
  EXPECT_EQ(registry.add_topk_reserved("app/t", [] {
    return std::make_unique<FakeTopK>();
  }),
            nullptr);

  // Reserved entries are first-class: looked up, collected, sampled.
  EXPECT_EQ(registry.lookup("__sys/server.ticks"), gauge);
  for (int i = 0; i < 8; ++i) gauge->increment(0);
  gauge->flush(0);
  const auto samples = registry.snapshot_all(1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "__sys/server.ticks");
  EXPECT_EQ(samples[0].value, 8u);
}

TEST(Registry, TopKEntriesCollectRankedRowsAndDeltas) {
  // A top-k directory is a registry entry kind: snapshot passes carry
  // its ranked rows (labels + values, value the top row's), and the
  // sequenced change tracking hands deltas the row vectors.
  Registry registry(2);
  AnyTopK* talkers =
      registry.add_topk("top_talkers", [] { return std::make_unique<FakeTopK>(); });
  ASSERT_NE(talkers, nullptr);
  // Idempotent: second add returns the same instrument, factory unused.
  EXPECT_EQ(registry.add_topk("top_talkers",
                              []() -> std::unique_ptr<AnyTopK> {
                                ADD_FAILURE() << "factory re-invoked";
                                return nullptr;
                              }),
            talkers);

  talkers->update(0, "10.0.0.1:1", 500);
  talkers->update(0, "10.0.0.2:2", 900);
  talkers->update(0, "10.0.0.3:3", 40);

  std::vector<Sample> frame;
  std::uint64_t version = registry.snapshot_all_into_sequenced(0, frame, 0, 1);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_EQ(frame[0].model, ErrorModel::kTopK);
  EXPECT_EQ(frame[0].error_bound, 0u);  // max-register rows are exact
  EXPECT_EQ(frame[0].value, 900u);      // the top row
  ASSERT_EQ(frame[0].top_labels.size(), 3u);
  EXPECT_EQ(frame[0].top_labels[0], "10.0.0.2:2");
  ASSERT_EQ(frame[0].bucket_counts.size(), 3u);
  EXPECT_EQ(frame[0].bucket_counts[0], 900u);
  EXPECT_EQ(frame[0].bucket_counts[2], 40u);
  EXPECT_TRUE(frame[0].bucket_bounds.empty());

  // A value bump re-ranks; the changed-since walk reports the fresh row
  // vectors (counts = row values, labels = row labels).
  talkers->update(1, "10.0.0.3:3", 5000);
  version = registry.snapshot_all_into_sequenced(0, frame, version, 2);
  std::size_t visits = 0;
  auto upto = registry.for_each_changed_since(
      1, version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>* counts,
          const std::vector<std::string>* labels) {
        ++visits;
        EXPECT_EQ(index, 0u);
        EXPECT_EQ(name, "top_talkers");
        EXPECT_EQ(value, 5000u);
        EXPECT_EQ(changed_seq, 2u);
        ASSERT_NE(counts, nullptr);
        ASSERT_NE(labels, nullptr);
        ASSERT_FALSE(labels->empty());
        EXPECT_EQ((*labels)[0], "10.0.0.3:3");
        EXPECT_EQ((*counts)[0], 5000u);
      });
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(visits, 1u);

  // Kind collision: the name cannot be re-taken by another entry kind.
  EXPECT_EQ(registry.get_or_create("top_talkers", {ErrorModel::kExact, 0, 1}),
            nullptr);
  EXPECT_EQ(registry.add_histogram(
                "top_talkers", [] { return std::make_unique<FakeHistogram>(); }),
            nullptr);
}

TEST(Aggregator, SequencedCollectFeedsChangedSinceTracking) {
  // A sequenced aggregator's frames ARE the sequenced passes: a frame's
  // sequence is usable directly as the for_each_changed_since basis.
  Registry registry(2);
  AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 2});
  Aggregator aggregator(registry, 1, /*sequenced=*/true);
  const TelemetryFrame first = aggregator.collect();
  const TelemetryFrame second = aggregator.collect();  // nothing moved
  std::size_t visited = 0;
  auto upto = registry.for_each_changed_since(
      first.sequence, second.registry_version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(upto.value_or(0), second.sequence);
  hits.increment(0);
  const TelemetryFrame third = aggregator.collect();
  upto = registry.for_each_changed_since(
      second.sequence, third.registry_version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>*) {
        ++visited;
        EXPECT_EQ(index, 0u);
        EXPECT_EQ(name, "hits");
        EXPECT_EQ(value, third.samples[0].value);
        EXPECT_EQ(changed_seq, third.sequence);
      });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(upto.value_or(0), third.sequence);
  EXPECT_EQ(third.samples[0].value, 1u);

  // A plain (default) aggregator on the same registry reads through the
  // shared-lock pass and leaves the tracking columns alone — its
  // sequence domain cannot corrupt the sequencer's.
  Aggregator plain(registry, 0);
  hits.increment(0);
  const TelemetryFrame side = plain.collect();
  EXPECT_EQ(side.samples[0].value, 2u);
  visited = 0;
  upto = registry.for_each_changed_since(
      third.sequence, third.registry_version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*) { ++visited; });
  EXPECT_EQ(visited, 0u);  // the new increment awaits a *sequenced* pass
  EXPECT_EQ(upto.value_or(0), third.sequence);  // last pass seq unmoved
}

TEST(Aggregator, SequencePublicationOrdersPayload) {
  // The release/acquire publication contract: a consumer that observes
  // frames_collected() == N and then calls latest() must see frame N (or
  // newer) — the sequence is released only after the payload store.
  RegistryT<base::DirectBackend> registry(4);
  AnyCounter& counter = registry.create("c", {ErrorModel::kExact, 0, 2});
  AggregatorT<base::DirectBackend> aggregator(registry, 3);

  std::atomic<bool> stop{false};
  std::thread collector([&] {
    unsigned pid = 0;
    while (!stop.load(std::memory_order_acquire)) {
      counter.increment(pid % 2);
      pid += 1;
      aggregator.collect();
    }
  });
  std::uint64_t observed = 0;
  std::uint64_t checks = 0;
  while (checks < 20'000) {
    const std::uint64_t count = aggregator.frames_collected();
    const TelemetryFrame frame = aggregator.latest();
    ASSERT_GE(frame.sequence, count) << "sequence published before payload";
    ASSERT_GE(frame.sequence, observed) << "latest() regressed";
    observed = frame.sequence;
    ++checks;
  }
  stop.store(true, std::memory_order_release);
  collector.join();
}

TEST(Aggregator, HeldFrameIsNeverWrittenByLaterPasses) {
  // Frames are recycled, so a frame a reader still holds must stay out
  // of the pool: later passes fill other frames, never this one.
  RegistryT<base::DirectBackend> registry(2);
  constexpr int kCounters = 8;
  std::vector<AnyCounter*> counters;
  for (int c = 0; c < kCounters; ++c) {
    counters.push_back(&registry.create("c" + std::to_string(c),
                                        {ErrorModel::kExact, 0, 1}));
    counters.back()->increment(0);
  }
  AggregatorT<base::DirectBackend> aggregator(registry, 1, /*sequenced=*/true);
  const std::shared_ptr<const TelemetryFrame> held =
      aggregator.collect_shared();
  const TelemetryFrame copy = *held;  // what the reader saw
  for (int pass = 0; pass < 3; ++pass) {
    for (AnyCounter* counter : counters) counter->increment(0);
    const std::shared_ptr<const TelemetryFrame> next =
        aggregator.collect_shared();
    ASSERT_NE(next.get(), held.get());
    for (int c = 0; c < kCounters; ++c) {
      EXPECT_EQ(next->samples[c].value, static_cast<std::uint64_t>(pass + 2));
    }
  }
  EXPECT_EQ(held->sequence, copy.sequence);
  ASSERT_EQ(held->samples.size(), copy.samples.size());
  for (std::size_t c = 0; c < copy.samples.size(); ++c) {
    EXPECT_EQ(held->samples[c].name, copy.samples[c].name);
    EXPECT_EQ(held->samples[c].value, 1u);
  }
  EXPECT_EQ(aggregator.latest().sequence, 4u);
}

TEST(Aggregator, ReleasedFramesAreReused) {
  // With no frame held across passes the pool needs exactly two: the
  // published latest() and the one the next pass fills.
  RegistryT<base::DirectBackend> registry(2);
  AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 1});
  AggregatorT<base::DirectBackend> aggregator(registry, 1, /*sequenced=*/true);
  for (int pass = 0; pass < 100; ++pass) {
    hits.increment(0);
    (void)aggregator.collect_shared();
    (void)aggregator.collect();  // the copying form recycles too
  }
  EXPECT_LE(aggregator.frames_allocated(), 2u);
  EXPECT_EQ(aggregator.frames_collected(), 200u);
  EXPECT_EQ(aggregator.latest().samples.at(0).value, 100u);
}

TEST(Aggregator, RecycledPublicationOrdersPayloadWhileFramesAreHeld) {
  // The release/acquire contract on the recycled path: frames_collected()
  // ≥ N still implies latest().sequence ≥ N while the collecting side
  // keeps its last few frames alive (so passes recycle among a larger
  // pool), and a published frame is never rewritten under a reader:
  // one increment per pass makes every frame's value its own sequence.
  RegistryT<base::DirectBackend> registry(2);
  AnyCounter& counter = registry.create("c", {ErrorModel::kExact, 0, 1});
  AggregatorT<base::DirectBackend> aggregator(registry, 1);
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    std::deque<std::shared_ptr<const TelemetryFrame>> held;
    while (!stop.load(std::memory_order_acquire)) {
      counter.increment(0);
      held.push_back(aggregator.collect_shared());
      if (held.size() > 3) held.pop_front();
      for (const auto& frame : held) {
        ASSERT_EQ(frame->samples.at(0).value, frame->sequence);
      }
    }
  });
  std::uint64_t observed = 0;
  // EXPECT + stop on the first failure: the collector must still be
  // joined (a failed ASSERT here would leave it running).
  for (int check = 0; check < 20'000 && !HasFailure(); ++check) {
    const std::uint64_t count = aggregator.frames_collected();
    const TelemetryFrame frame = aggregator.latest();
    EXPECT_GE(frame.sequence, count) << "sequence published before payload";
    EXPECT_GE(frame.sequence, observed) << "latest() regressed";
    observed = frame.sequence;
    if (frame.sequence != 0) {
      EXPECT_EQ(frame.samples.at(0).value, frame.sequence);
    }
  }
  stop.store(true, std::memory_order_release);
  collector.join();
  EXPECT_LE(aggregator.frames_allocated(), 5u);
}

TEST(Aggregator, PullModeFramesAreSequencedAndSelfDescribing) {
  Registry registry(2);
  AnyCounter& hits =
      registry.create("hits", {ErrorModel::kMultiplicative, 2, 2});
  Aggregator aggregator(registry, 1);
  EXPECT_EQ(aggregator.latest().sequence, 0u);

  for (int i = 0; i < 100; ++i) hits.increment(0);
  const TelemetryFrame first = aggregator.collect();
  EXPECT_EQ(first.sequence, 1u);
  ASSERT_EQ(first.samples.size(), 1u);
  EXPECT_TRUE(core::within_mult_band(first.samples[0].value, 100,
                                     first.samples[0].error_bound));

  for (int i = 0; i < 100; ++i) hits.increment(0);
  const TelemetryFrame second = aggregator.collect();
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_GE(second.samples[0].value, first.samples[0].value);
  EXPECT_EQ(aggregator.latest().sequence, 2u);
  EXPECT_EQ(aggregator.frames_collected(), 2u);
}

TEST(Aggregator, BackgroundModeCollectsWhileWorkersIncrement) {
  // DirectBackend: the background thread is a real thread with its own
  // dedicated pid (3); workers use pids 0..2.
  RegistryT<base::DirectBackend> registry(4);
  registry.create("events", {ErrorModel::kMultiplicative, 2, 2});
  AggregatorT<base::DirectBackend> aggregator(registry, 3);
  aggregator.start(std::chrono::milliseconds(1));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> exact{0};
  for (unsigned pid = 0; pid < 3; ++pid) {
    workers.emplace_back([&, pid] {
      AnyCounter* counter = registry.lookup("events");
      ASSERT_NE(counter, nullptr);
      while (!stop.load(std::memory_order_acquire)) {
        counter->increment(pid);
        exact.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  aggregator.stop();

  EXPECT_GE(aggregator.frames_collected(), 2u);
  const TelemetryFrame frame = aggregator.latest();
  ASSERT_EQ(frame.samples.size(), 1u);
  // The final frame was collected at some point during the run: within
  // the mult band of some count ≤ the final exact total.
  EXPECT_LE(frame.samples[0].value / 2,
            exact.load(std::memory_order_relaxed) * 2);
  // A fresh post-quiescence collect is banded against the exact total.
  const TelemetryFrame last = aggregator.collect();
  EXPECT_TRUE(core::within_mult_band(last.samples[0].value, exact.load(),
                                     last.samples[0].error_bound));
}

}  // namespace
}  // namespace approx::shard
