// E16 — the seq_cst cost: DirectBackend (every primitive sequentially
// consistent, the paper's model verbatim) vs RelaxedDirectBackend (each
// primitive site's OrderRole mapped to the weakest ordering its
// algorithm's audit justifies — see base/backend.hpp and the
// "Memory-order audit" comments per algorithm).
//
// Both builds are uninstrumented, so the ratio isolates exactly the
// fencing the role mapping removes. On x86 that is the full fence every
// seq_cst *store* pays (release stores are plain moves; seq_cst loads
// and lock-prefixed RMWs already cost the same), so store-heavy paths —
// max-register tree writes, collect/kadditive flushes, the kmult
// helping-array writes — show the big ratios, while the pure fetch&add
// cell is expected near 1.0x on x86 (its RMW instruction is identical;
// on ARM the ldadd vs ldaddal gap appears). The CI guard
// (tools/check_e16_ratio.py) asserts relaxed is never >5% *slower* than
// seq_cst — a mis-mapped role that forces extra synchronization fails
// the build.
//
// Four sections:
//   1. counters at 1–8 threads, 50% reads (incl. the snapshot counter);
//   2. max registers at 1–8 threads, 75% log-uniform writes (the
//      watermark-update hot path is the write);
//   3. the telemetry fleet: aggregator frames/s over 48 counters × 4
//      shards while workers flood increments, seq_cst vs relaxed;
//   4. the single-pass aggregator collect (registry flat-table walk
//      into a recycled frame, zero sample allocation) vs the allocating
//      snapshot_all on the same fleet. Its rows keep the historical
//      "collect_into" label: they are baseline keys.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "bench/harness.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"

namespace {

using namespace approx;
using base::DirectBackend;
using base::RelaxedDirectBackend;

constexpr unsigned kMaxThreads = 8;
constexpr double kReadFraction = 0.5;      // counters: even mix
constexpr double kRegReadFraction = 0.25;  // max registers: the hot path
                                           // is the watermark *write*
constexpr unsigned kFleetCounters = 48;
constexpr unsigned kFleetShards = 4;
constexpr unsigned kFleetWorkers = 3;
constexpr unsigned kFleetPid = 7;  // aggregator's dedicated slot (n = 8)

struct CounterFamily {
  std::string name;
  std::uint64_t base_ops;
  std::function<std::unique_ptr<sim::ICounter>()> seqcst;
  std::function<std::unique_ptr<sim::ICounter>()> relaxed;
};

struct MaxRegFamily {
  std::string name;
  std::uint64_t base_ops;
  std::function<std::unique_ptr<sim::IMaxRegister>()> seqcst;
  std::function<std::unique_ptr<sim::IMaxRegister>()> relaxed;
};

std::string fleet_counter_name(unsigned index) {
  return "ctr" + std::to_string(index / 10) + std::to_string(index % 10);
}

template <typename Backend>
void build_fleet(shard::RegistryT<Backend>& registry) {
  for (unsigned c = 0; c < kFleetCounters; ++c) {
    shard::CounterSpec spec;
    switch (c % 3) {
      case 0:
        spec = {shard::ErrorModel::kMultiplicative, 2, kFleetShards,
                shard::ShardPolicy::kHashPinned};
        break;
      case 1:
        spec = {shard::ErrorModel::kAdditive, 16, kFleetShards,
                shard::ShardPolicy::kHashPinned};
        break;
      default:
        spec = {shard::ErrorModel::kExact, 0, kFleetShards,
                shard::ShardPolicy::kHashPinned};
        break;
    }
    registry.create(fleet_counter_name(c), spec);
  }
}

/// Workers that make sense on this machine: flooding spin-threads next
/// to the timed collector only measure the OS scheduler when there is a
/// single core — run the flood only where it can actually overlap.
unsigned fleet_workers() {
  return std::thread::hardware_concurrency() > 1 ? kFleetWorkers : 0;
}

/// Aggregator frames/s over the standard fleet while fleet_workers()
/// threads flood increments nonstop.
template <typename Backend>
double fleet_frames_per_sec(std::uint64_t frames) {
  shard::RegistryT<Backend> registry(kMaxThreads);
  build_fleet(registry);
  shard::AggregatorT<Backend> aggregator(registry, kFleetPid);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (unsigned pid = 0; pid < fleet_workers(); ++pid) {
    workers.emplace_back([&registry, &stop, pid] {
      std::vector<shard::AnyCounter*> counters;
      counters.reserve(kFleetCounters);
      for (unsigned c = 0; c < kFleetCounters; ++c) {
        counters.push_back(registry.lookup(fleet_counter_name(c)));
      }
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        counters[i % kFleetCounters]->increment(pid);
        ++i;
      }
    });
  }
  for (std::uint64_t i = 0; i < frames / 20 + 1; ++i) {
    (void)aggregator.collect_shared();  // warmup
  }
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const double seconds = bench::time_seconds([&] {
      for (std::uint64_t i = 0; i < frames; ++i) {
        (void)aggregator.collect_shared();
      }
    });
    best = std::max(best, static_cast<double>(frames) / seconds);
  }
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  return best;
}

/// Best-of-`kReps` measurement: a single pass per backend is dominated
/// by scheduler noise once threads oversubscribe the cores, and the CI
/// ratio guard needs stable cells — the max over repetitions estimates
/// the noise-free cost of each build.
constexpr int kReps = 3;

const bench::Experiment kExperiment{
    "e16",
    "memory-order sweep — seq_cst DirectBackend vs RelaxedDirectBackend",
    "counters 50/50, max registers 75% writes, per thread at 1-8 "
    "threads; fleet aggregation under worker flood",
    "the paper's algorithms are specified under sequential consistency, "
    "but their proofs lean on release/acquire-shaped arguments "
    "(publish-then-announce, helping handshakes), so mapping each "
    "primitive site's ordering role to the weakest sufficient order "
    "keeps every bound while removing the seq_cst fences the hardware "
    "charges for",
    "relaxed >= seq_cst everywhere (the CI guard); biggest wins on "
    "store-heavy paths (max-register tree writes, collect/kadditive "
    "register flushes) where x86 seq_cst stores pay a full fence each; "
    "~1.0x for the bare fetch&add cell on x86 (identical lock-prefixed "
    "RMW) and for read-dominated paths (x86 seq_cst loads are already "
    "plain); the single-pass collect beats the allocating "
    "snapshot_all by skipping the map walk, string copies and "
    "metadata virtuals per frame",
    [](const bench::Options& options, bench::Report& report) {
      const std::uint64_t kmult_k =
          std::max<std::uint64_t>(2, base::ceil_sqrt(kMaxThreads));
      const std::uint64_t m = std::uint64_t{1} << 20;

      const std::vector<CounterFamily> counters = {
          {"kmult-fix(k=3)", 300'000,
           [&] {
             return std::make_unique<
                 sim::KMultCounterCorrectedAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k);
           },
           [&] {
             return std::make_unique<
                 sim::KMultCounterCorrectedAdapterT<RelaxedDirectBackend>>(
                 kMaxThreads, kmult_k);
           }},
          {"collect", 300'000,
           [] {
             return std::make_unique<
                 sim::CollectCounterAdapterT<DirectBackend>>(kMaxThreads);
           },
           [] {
             return std::make_unique<
                 sim::CollectCounterAdapterT<RelaxedDirectBackend>>(
                 kMaxThreads);
           }},
          {"kadditive(k=64)", 300'000,
           [] {
             return std::make_unique<
                 sim::KAdditiveCounterAdapterT<DirectBackend>>(kMaxThreads,
                                                               64);
           },
           [] {
             return std::make_unique<
                 sim::KAdditiveCounterAdapterT<RelaxedDirectBackend>>(
                 kMaxThreads, 64);
           }},
          {"fetch&add", 300'000,
           [] {
             return std::make_unique<
                 sim::FetchAddCounterAdapterT<DirectBackend>>();
           },
           [] {
             return std::make_unique<
                 sim::FetchAddCounterAdapterT<RelaxedDirectBackend>>();
           }},
          {"sharded-fetch&add(S=4)", 300'000,
           [] {
             return std::make_unique<
                 sim::ShardedFetchAddCounterAdapterT<DirectBackend>>(
                 kMaxThreads, kFleetShards);
           },
           [] {
             return std::make_unique<
                 sim::ShardedFetchAddCounterAdapterT<RelaxedDirectBackend>>(
                 kMaxThreads, kFleetShards);
           }},
          {"snapshot(n=8)", 24'000,
           [] {
             return std::make_unique<
                 sim::SnapshotCounterAdapterT<DirectBackend>>(kMaxThreads);
           },
           [] {
             return std::make_unique<
                 sim::SnapshotCounterAdapterT<RelaxedDirectBackend>>(
                 kMaxThreads);
           }},
      };

      auto& counter_table = report.section(
          {"impl", "threads", "seq_cst Mops/s", "relaxed Mops/s",
           "relaxed/seq_cst"},
          "counters, 50% reads");
      for (const CounterFamily& family : counters) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          const auto run = [&](sim::ICounter& counter) {
            return bench::counter_throughput_mops(counter, threads, ops,
                                                  options.seed,
                                                  kReadFraction);
          };
          const auto warmup = [&](sim::ICounter& counter) {
            bench::counter_throughput_mops(
                counter, threads, std::max<std::uint64_t>(1, ops / 20),
                options.seed, kReadFraction);
          };
          // Alternate measured repetitions over both live instances and
          // keep each build's best (see kReps).
          const auto seqcst = family.seqcst();
          const auto relaxed = family.relaxed();
          warmup(*seqcst);
          warmup(*relaxed);
          double seqcst_mops = 0.0;
          double relaxed_mops = 0.0;
          for (int rep = 0; rep < kReps; ++rep) {
            seqcst_mops = std::max(seqcst_mops, run(*seqcst));
            relaxed_mops = std::max(relaxed_mops, run(*relaxed));
          }
          counter_table.add_row({family.name,
                                 bench::num(std::uint64_t{threads}),
                                 bench::num(seqcst_mops, 2),
                                 bench::num(relaxed_mops, 2),
                                 bench::num(relaxed_mops / seqcst_mops, 2)});
        }
      }

      const std::vector<MaxRegFamily> registers = {
          {"exact-bounded", 100'000,
           [&] {
             return std::make_unique<
                 sim::ExactBoundedMaxRegisterAdapterT<DirectBackend>>(m);
           },
           [&] {
             return std::make_unique<
                 sim::ExactBoundedMaxRegisterAdapterT<RelaxedDirectBackend>>(
                 m);
           }},
          {"kmult-bounded(k=2)", 300'000,
           [&] {
             return std::make_unique<
                 sim::KMultMaxRegisterAdapterT<DirectBackend>>(m, 2);
           },
           [&] {
             return std::make_unique<
                 sim::KMultMaxRegisterAdapterT<RelaxedDirectBackend>>(m, 2);
           }},
          {"exact-unbounded", 200'000,
           [] {
             return std::make_unique<
                 sim::ExactUnboundedMaxRegisterAdapterT<DirectBackend>>();
           },
           [] {
             return std::make_unique<
                 sim::ExactUnboundedMaxRegisterAdapterT<
                     RelaxedDirectBackend>>();
           }},
          {"kmult-unbounded(k=2)", 300'000,
           [] {
             return std::make_unique<
                 sim::KMultUnboundedMaxRegisterAdapterT<DirectBackend>>(2);
           },
           [] {
             return std::make_unique<
                 sim::KMultUnboundedMaxRegisterAdapterT<
                     RelaxedDirectBackend>>(2);
           }},
      };

      auto& reg_table = report.section(
          {"impl", "threads", "seq_cst Mops/s", "relaxed Mops/s",
           "relaxed/seq_cst"},
          "max registers, 75% log-uniform writes");
      for (const MaxRegFamily& family : registers) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          const auto run = [&](sim::IMaxRegister& reg) {
            return bench::max_register_throughput_mops(
                reg, threads, ops, options.seed, kRegReadFraction, m);
          };
          const auto seqcst = family.seqcst();
          const auto relaxed = family.relaxed();
          bench::max_register_throughput_mops(
              *seqcst, threads, std::max<std::uint64_t>(1, ops / 20),
              options.seed, kRegReadFraction, m);
          bench::max_register_throughput_mops(
              *relaxed, threads, std::max<std::uint64_t>(1, ops / 20),
              options.seed, kRegReadFraction, m);
          double seqcst_mops = 0.0;
          double relaxed_mops = 0.0;
          for (int rep = 0; rep < kReps; ++rep) {
            seqcst_mops = std::max(seqcst_mops, run(*seqcst));
            relaxed_mops = std::max(relaxed_mops, run(*relaxed));
          }
          reg_table.add_row({family.name, bench::num(std::uint64_t{threads}),
                             bench::num(seqcst_mops, 2),
                             bench::num(relaxed_mops, 2),
                             bench::num(relaxed_mops / seqcst_mops, 2)});
        }
      }

      // Fleet aggregation under worker flood: one single-pass frame over
      // 48 sharded counters, seq_cst vs relaxed primitives underneath.
      {
        const std::uint64_t frames = bench::scaled_ops(options, 1'500);
        const double seqcst_fps = fleet_frames_per_sec<DirectBackend>(frames);
        const double relaxed_fps =
            fleet_frames_per_sec<RelaxedDirectBackend>(frames);
        auto& fleet_table = report.section(
            {"config", "seq_cst frames/s", "relaxed frames/s",
             "relaxed/seq_cst"},
            "aggregator fleet, 48 counters x 4 shards, 3-worker flood");
        fleet_table.add_row({"collect_into", bench::num(seqcst_fps, 0),
                             bench::num(relaxed_fps, 0),
                             bench::num(relaxed_fps / seqcst_fps, 2)});
      }

      // Single-pass collect vs the allocating snapshot_all, same fleet,
      // quiescent (isolates the frame-assembly cost itself).
      {
        const std::uint64_t frames = bench::scaled_ops(options, 4'000);
        shard::RegistryT<RelaxedDirectBackend> registry(kMaxThreads);
        build_fleet(registry);
        shard::AggregatorT<RelaxedDirectBackend> aggregator(registry,
                                                            kFleetPid);
        (void)aggregator.collect_shared();  // warm caches + storage
        double reuse_secs = 1e300;
        double alloc_secs = 1e300;
        volatile std::size_t sink = 0;
        for (int rep = 0; rep < kReps; ++rep) {
          reuse_secs = std::min(reuse_secs, bench::time_seconds([&] {
                                  for (std::uint64_t i = 0; i < frames; ++i) {
                                    (void)aggregator.collect_shared();
                                  }
                                }));
          alloc_secs = std::min(alloc_secs, bench::time_seconds([&] {
                                  for (std::uint64_t i = 0; i < frames; ++i) {
                                    sink =
                                        registry.snapshot_all(kFleetPid).size();
                                  }
                                }));
        }
        (void)sink;
        auto& path_table = report.section(
            {"path", "frames/s", "vs snapshot_all"},
            "frame assembly: single-pass collect_into vs allocating "
            "snapshot_all (quiescent)");
        const double alloc_fps = static_cast<double>(frames) / alloc_secs;
        const double reuse_fps = static_cast<double>(frames) / reuse_secs;
        path_table.add_row(
            {"snapshot_all (alloc)", bench::num(alloc_fps, 0),
             bench::num(1.0, 2)});
        path_table.add_row({"collect_into (single-pass)",
                            bench::num(reuse_fps, 0),
                            bench::num(reuse_fps / alloc_fps, 2)});
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
