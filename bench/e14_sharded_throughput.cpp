// E14 — sharded-counter throughput: shard-count sweep on the direct
// backend, the scalability experiment behind the src/shard layer.
//
// Each row drives one counter configuration from t real threads
// (thread index = pid, 90% increments / 10% reads) and reports million
// ops/sec plus the ratio against the *single-instance* counter of the
// same family at the same thread count. Families:
//
//   * snapshot    — the exact baseline whose update embeds a scan over
//     the *provisioned* pid space (n = 64 here, driven by up to 8
//     active threads: the telemetry-fleet shape, provisioned for many
//     clients with few concurrently active). Compact sharding shrinks
//     each shard's provisioned space to n/S, so per-shard updates
//     collect n/S slots instead of n — an algorithmic reduction that
//     shows on any machine, single-core included.
//   * fetch&add   — the classic striped statistics counter. Its win is
//     cache-line contention, which needs true hardware parallelism; on
//     a single-core host expect ~1× (reported honestly either way).
//   * kmult-fix   — the paper's counter. Increments batch locally and
//     announce ever more rarely, so the single instance already scales;
//     sharding mainly splits announce/helping traffic (≈1× here) while
//     *relaxing* the accuracy precondition to k ≥ ⌈√(n/S)⌉.
//   * kadditive   — per-process slots, already contention-free; the
//     sweep shows the S× read-cost + S·k-error price of striping it.
//
// The sharded counter must beat the single instance at ≥ 8 threads —
// the snapshot family is where the layer earns that claim.
//
// A second section times one registry collect pass (layer L2) per
// entry: 1024 counters per model (k-mult, k-additive, exact), k = 2,
// S = 4, 3 pids (4 shards clamp to 3) — the telemetry fleet's shape.
// Pid 0 spreads the increments over the counters on a log-spaced
// weight ladder (1..64×); pid 1 collects. "cold" passes run right
// after a 64 MiB cache thrash, "warm" ones right after a cold one;
// each cell is the median of kCollectReps passes. Both are latencies,
// which the bench-baseline guard does not compare.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "bench/harness.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"

namespace {

using namespace approx;

constexpr unsigned kMaxThreads = 8;
// Provisioned pid space of the snapshot family: sized for a fleet of
// potential clients, of which only kMaxThreads are concurrently active.
// Collect-based costs scale with this width, which is what compact
// sharding divides by S.
constexpr unsigned kProvisionedProcs = 64;

// Registry collect section (see the header).
constexpr unsigned kCollectCounters = 1024;
constexpr std::uint64_t kCollectK = 2;
constexpr unsigned kCollectPids = 3;
constexpr unsigned kCollectIncrementer = 0;
constexpr unsigned kCollectReader = 1;
constexpr int kCollectReps = 21;
constexpr std::size_t kThrashBytes = std::size_t{64} << 20;

/// Median ns per entry of one registry collect pass, cold and warm.
struct CollectCost {
  double cold_ns;
  double warm_ns;
};

CollectCost registry_collect_ns(shard::ErrorModel model,
                                std::uint64_t increments,
                                std::vector<std::uint64_t>& thrash) {
  shard::RegistryT<base::DirectBackend> registry(kCollectPids);
  std::vector<shard::AnyCounter*> counters;
  double weight_sum = 0.0;
  for (unsigned i = 0; i < kCollectCounters; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "c/%04u", i);
    counters.push_back(&registry.create(name, {model, kCollectK, 4}));
    weight_sum += std::pow(64.0, (i % 64) / 63.0);
  }
  for (unsigned i = 0; i < kCollectCounters; ++i) {
    const auto share = static_cast<std::uint64_t>(
        static_cast<double>(increments) * std::pow(64.0, (i % 64) / 63.0) /
        weight_sum);
    for (std::uint64_t j = 0; j < share; ++j) {
      counters[i]->increment(kCollectIncrementer);
    }
  }
  std::vector<shard::Sample> samples;
  std::uint64_t version =
      registry.snapshot_all_into(kCollectReader, samples, 0);  // cursors
  const auto pass_ns = [&] {
    const auto start = std::chrono::steady_clock::now();
    version = registry.snapshot_all_into(kCollectReader, samples, version);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           kCollectCounters;
  };
  std::vector<double> cold;
  std::vector<double> warm;
  for (int rep = 0; rep < kCollectReps; ++rep) {
    for (std::size_t i = 0; i < thrash.size(); i += 8) thrash[i] += 1;
    cold.push_back(pass_ns());
    warm.push_back(pass_ns());
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(cold), median(warm)};
}

/// One family: the single-instance baseline plus a sharded factory per
/// shard count. Factories build DirectBackend instances.
struct Family {
  std::string name;
  std::uint64_t base_ops;  // per-thread op budget before --scale
  std::function<std::unique_ptr<sim::ICounter>()> single;
  std::function<std::unique_ptr<sim::ICounter>(unsigned shards)> sharded;
};

const bench::Experiment kExperiment{
    "e14",
    "sharded-counter throughput — shard-count sweep (DirectBackend)",
    "90% increments / 10% reads per thread, shared instance, "
    "single vs S ∈ {2,4,8} shards",
    "striping increments over S shards removes the single-instance "
    "hotspot while the accuracy band composes (mult: k; additive: S·k; "
    "exact: exact) — the snapshot family additionally shrinks every "
    "embedded collect from the provisioned width n to n/S via compact "
    "shards",
    "sharded snapshot beats the single instance at every S, most at "
    "S = 8 and 8 threads; fetch&add/kmult gains need multi-core "
    "parallelism (≈1× on a single-core host); kadditive shows the "
    "deliberate S× read-cost price of striping an already-striped "
    "counter",
    [](const bench::Options& options, bench::Report& report) {
      using base::DirectBackend;
      const std::uint64_t kmult_k =
          std::max<std::uint64_t>(2, base::ceil_sqrt(kMaxThreads));

      const std::vector<Family> families = {
          {"snapshot(n=64)", 40'000,
           [] {
             return std::make_unique<
                 sim::SnapshotCounterAdapterT<DirectBackend>>(
                 kProvisionedProcs);
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedSnapshotCounterAdapterT<DirectBackend>>(
                 kProvisionedProcs, shards);
           }},
          {"fetch&add", 1'000'000,
           [] {
             return std::make_unique<
                 sim::FetchAddCounterAdapterT<DirectBackend>>();
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedFetchAddCounterAdapterT<DirectBackend>>(
                 kMaxThreads, shards);
           }},
          {"kmult-fix", 500'000,
           [&] {
             return std::make_unique<
                 sim::KMultCounterCorrectedAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k);
           },
           [&](unsigned shards) {
             return std::make_unique<
                 sim::ShardedKMultCounterAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k, shards);
           }},
          {"kadditive", 500'000,
           [] {
             return std::make_unique<
                 sim::KAdditiveCounterAdapterT<DirectBackend>>(kMaxThreads,
                                                               64);
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedKAdditiveCounterAdapterT<DirectBackend>>(
                 kMaxThreads, 64, shards);
           }},
      };

      auto& table = report.section(
          {"impl", "shards", "threads", "Mops/s", "vs single"});
      for (const Family& family : families) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        std::map<unsigned, double> single_mops;  // threads -> baseline
        const auto run = [&](sim::ICounter& counter, unsigned threads) {
          bench::counter_throughput_mops(
              counter, threads, std::max<std::uint64_t>(1, ops / 20),
              options.seed, 0.1);  // warmup
          return bench::counter_throughput_mops(counter, threads, ops,
                                                options.seed, 0.1);
        };
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          const auto counter = family.single();
          const double mops = run(*counter, threads);
          single_mops[threads] = mops;
          table.add_row({family.name, "single",
                         bench::num(std::uint64_t{threads}),
                         bench::num(mops, 2), bench::num(1.0, 2)});
        }
        for (const unsigned shards : {2u, 4u, 8u}) {
          for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const auto counter = family.sharded(shards);
            const double mops = run(*counter, threads);
            table.add_row({family.name, bench::num(std::uint64_t{shards}),
                           bench::num(std::uint64_t{threads}),
                           bench::num(mops, 2),
                           bench::num(mops / single_mops[threads], 2)});
          }
        }
      }

      auto& collect = report.section(
          {"model", "counters", "cold ns/entry", "warm ns/entry"},
          "registry collect pass (L2): k = 2, S = 4, 3 pids");
      std::vector<std::uint64_t> thrash(kThrashBytes / sizeof(std::uint64_t));
      const std::uint64_t increments =
          bench::scaled_ops(options, 20'000'000);
      const struct {
        const char* name;
        shard::ErrorModel model;
      } models[] = {{"k-mult", shard::ErrorModel::kMultiplicative},
                    {"k-additive", shard::ErrorModel::kAdditive},
                    {"exact", shard::ErrorModel::kExact}};
      for (const auto& entry : models) {
        const CollectCost cost =
            registry_collect_ns(entry.model, increments, thrash);
        collect.add_row({entry.name,
                         bench::num(std::uint64_t{kCollectCounters}),
                         bench::num(cost.cold_ns, 1),
                         bench::num(cost.warm_ns, 1)});
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
