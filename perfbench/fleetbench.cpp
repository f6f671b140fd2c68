// fleetbench — probe-to-view freshness of a live SnapshotServer, end to
// end and layer by layer, inside one process.
//
// One run builds a seeded fleet in a DirectBackend registry, serves it
// with a real SnapshotServer (5 ms tick, 1 I/O worker) and subscribes up
// to 3 TelemetryClients, each on its own thread. One load thread then
// drives an open loop: every 1 ms it fires one probe (an increment of
// the exact counter "probe", which every subscriber's filter includes)
// and a fixed batch of background increments / histogram records. Each
// probe is timed from its due time to the moment a subscriber's
// MaterializedView shows it. After the load stops, every subscriber
// waits for a frame collected after the stop, and every value it holds
// is checked against the load thread's own tallies under the entry's
// error model and bound.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 cuts the window
// into 500 ms segments that alternate untraced and traced. In traced
// segments the benchmark's own threads record spans (spans.hpp) around
// their calls into each layer, and a tracer thread times the collect /
// encode / apply calls on its own pid. It prints per-layer self time, the tracing overhead (traced
// minus untraced end-to-end results) and the per-layer metrics. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/prctl.h>
#include <time.h>

#include "base/backend.hpp"
#include "base/step_recorder.hpp"
#include "core/approx.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"
#include "stats/histogram.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

#include "spans.hpp"

namespace {

using namespace approx;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::SpanTotals;
using Registry = shard::RegistryT<base::DirectBackend>;
using Server = svc::SnapshotServerT<base::DirectBackend>;

// Pid space of every registry here: one slot per thread that increments
// or reads counters. 3 pids over 4 hash-pinned shards leaves one writer
// per k-mult shard, so k = 2 meets accuracy_guaranteed().
constexpr unsigned kLoadPid = 0;
constexpr unsigned kServerPid = 1;
constexpr unsigned kTracerPid = 2;
constexpr unsigned kPids = 3;

constexpr std::chrono::milliseconds kTick{5};
constexpr std::uint64_t kProbePeriodNs = 1'000'000;  // 1 kHz probes
// Background ops per probe: 1 M/s offered. 5000 ops per 5 ms tick is the
// smallest round batch with which wide_delta's round-robin changes all
// 4096 counters every tick; it keeps the load thread idle for most of
// each probe period (NOTES.md, "Load shape").
constexpr std::uint64_t kBatch = 1000;
// Random-choice workloads weight their targets over 1 .. kMaxWeight
// (Picker), so per-counter rates spread 64x and the k-mult counters do not
// all cross their switch thresholds at the same time.
constexpr double kMaxWeight = 64.0;
constexpr std::uint64_t kHistMax = std::uint64_t{1} << 20;  // observations
constexpr std::uint64_t kCreatePeriodNs = 100'000'000;
constexpr std::uint64_t kWarmupNs = 1'000'000'000;
constexpr std::uint64_t kTracerPeriodNs = 10'000'000;
constexpr std::uint64_t kSegmentNs = 1'000'000'000;
constexpr std::uint64_t kTraceSegmentNs = 500'000'000;  // traced run: A/B cut
constexpr std::uint64_t kReadSample = 64;  // counters per timed read span
// Set-up repetitions: at least kMinSetups, then more until kSetupBudgetNs
// of set-up time or kMaxSetups.
constexpr std::size_t kMinSetups = 21;
constexpr std::size_t kMaxSetups = 201;
constexpr std::uint64_t kSetupBudgetNs = 1'500'000'000;
constexpr std::uint64_t kSpinNs = 200'000;  // pacing: spin the last 200 µs
const std::string kProbeName = "probe";

enum class Kind : std::uint8_t { kKMult, kKAdd, kExact, kHist };
constexpr int kKinds = 4;

const char* kind_prefix(Kind kind) {
  switch (kind) {
    case Kind::kKMult: return "mult/";
    case Kind::kKAdd: return "app/";
    case Kind::kExact: return "db/";
    case Kind::kHist: return "lat/";
  }
  return "";
}

shard::CounterSpec counter_spec(Kind kind) {
  switch (kind) {
    case Kind::kKMult: return {shard::ErrorModel::kMultiplicative, 2, 4};
    case Kind::kKAdd: return {shard::ErrorModel::kAdditive, 64, 4};
    default: return {shard::ErrorModel::kExact, 0, 4};
  }
}

stats::HistogramSpec histogram_spec() {
  stats::HistogramSpec spec;
  spec.bounds = stats::exponential_bounds(16, 2.0, 15);  // 16 buckets
  spec.k = 64;
  spec.shards = 4;
  return spec;
}

struct SubscriberSpec {
  std::vector<std::string> prefixes;  // empty = unfiltered
  bool shm = false;
};

struct WorkloadSpec {
  const char* name;
  unsigned counts[kKinds];  // static entries per Kind
  bool round_robin;         // else weighted random choice (Picker)
  bool self_metrics;
  bool churn;  // get_or_create one counter every kCreatePeriodNs
  std::vector<SubscriberSpec> subs;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"kmult_fleet", {1024, 0, 0, 0}, false, false, false, {{{}, false}}},
      {"wide_delta",
       {0, 0, 4096, 0},
       true,
       false,
       false,
       {{{}, false}, {{}, false}}},
      {"mixed_groups",
       {0, 256, 256, 16},
       false,
       true,
       true,
       {{{"app/"}, false}, {{"db/", "lat/"}, false}, {{}, true}}},
  };
  return all;
}

// --- small utilities ----------------------------------------------------

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Sleeps until `deadline_ns` minus the spin slice, then spins: the
/// open-loop generator's pacing (a plain sleep wakes up too late).
void wait_until(std::uint64_t deadline_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) return;
    const std::uint64_t left = deadline_ns - now;
    if (left > 2 * kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Mean of the middle half of `values` (robust to outliers and to a
/// bimodal spread, unlike the median of a few samples).
double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

/// CPU time the hypervisor gave to other guests (/proc/stat "steal"),
/// and all CPU time: host contention, which moves every timing here.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  void add(const CpuTicks& a, const CpuTicks& b) {
    steal += b.steal - a.steal;
    total += b.total - a.total;
  }
  [[nodiscard]] double steal_frac() const {
    return total == 0 ? 0.0
                      : static_cast<double>(steal) / static_cast<double>(total);
  }
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

// --- the fleet ------------------------------------------------------------

/// One instrument the load thread drives, with the generator's own
/// tally of what it did to it (written by the load thread only).
struct Target {
  std::string name;
  Kind kind = Kind::kExact;
  shard::AnyCounter* counter = nullptr;
  shard::AnyHistogram* hist = nullptr;
  std::uint64_t tally = 0;
  std::vector<std::uint64_t> bucket_tally;  // histograms
};

/// Registry + server + connected clients. Targets past `static_targets`
/// are filled in by the churn thread and published via `created`.
struct Fleet {
  std::unique_ptr<Registry> registry;
  std::vector<Target> targets;
  std::size_t static_targets = 0;
  std::atomic<std::size_t> created{0};
  shard::AnyCounter* probe = nullptr;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<svc::TelemetryClient>> clients;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    clients.clear();
    if (server) server->stop();
  }
};

svc::SubscriptionFilter filter_of(const SubscriberSpec& sub) {
  svc::SubscriptionFilter filter;
  if (!sub.prefixes.empty()) {
    filter.exact = {kProbeName};
    filter.prefixes = sub.prefixes;
  }
  return filter;
}

std::string static_name(Kind kind, unsigned i) {
  char name[32];
  std::snprintf(name, sizeof name, "%s%04u", kind_prefix(kind), i);
  return name;
}

/// Builds the fleet, starts the server and connects every subscriber,
/// returning once each one applied its first frame (nullptr on failure).
std::unique_ptr<Fleet> set_up(const WorkloadSpec& spec,
                              std::size_t create_capacity) {
  auto fleet = std::make_unique<Fleet>();
  fleet->registry = std::make_unique<Registry>(kPids);
  Registry& registry = *fleet->registry;
  for (int k = 0; k < kKinds; ++k) {
    fleet->static_targets += spec.counts[k];
  }
  fleet->targets.resize(fleet->static_targets + create_capacity);
  std::size_t next = 0;
  for (int k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    for (unsigned i = 0; i < spec.counts[k]; ++i) {
      Target& target = fleet->targets[next++];
      target.name = static_name(kind, i);
      target.kind = kind;
      if (kind == Kind::kHist) {
        target.hist =
            stats::create_histogram(registry, target.name, histogram_spec());
        if (target.hist == nullptr) return nullptr;
        target.bucket_tally.assign(target.hist->bucket_bounds().size() + 1, 0);
      } else {
        target.counter = registry.get_or_create(target.name, counter_spec(kind));
        if (target.counter == nullptr ||
            !target.counter->accuracy_guaranteed()) {
          return nullptr;
        }
      }
    }
  }
  fleet->probe =
      registry.get_or_create(kProbeName, {shard::ErrorModel::kExact, 0, 1});
  if (fleet->probe == nullptr) return nullptr;

  svc::ServerOptions options;
  options.io_threads = 1;
  options.period = kTick;
  options.self_metrics = spec.self_metrics;
  options.shm_enable = std::any_of(spec.subs.begin(), spec.subs.end(),
                                   [](const SubscriberSpec& s) { return s.shm; });
  fleet->server = std::make_unique<Server>(registry, kServerPid, options);
  if (!fleet->server->start()) return nullptr;
  // Subscribers connect to a serving server: one whose first frame is
  // published (a client adopted before that waits a whole extra tick).
  while (fleet->server->aggregator().frames_collected() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  for (const SubscriberSpec& sub : spec.subs) {
    auto client = std::make_unique<svc::TelemetryClient>();
    if (!client->connect(fleet->server->port())) return nullptr;
    if (!sub.prefixes.empty() && !client->subscribe(filter_of(sub))) {
      return nullptr;
    }
    if (sub.shm && !client->request_shm()) return nullptr;
    fleet->clients.push_back(std::move(client));
  }
  for (auto& client : fleet->clients) {
    if (!client->poll_frame(std::chrono::milliseconds(5000))) return nullptr;
  }
  return fleet;
}

// --- run-time state shared by the threads -----------------------------------

/// The measured interval after the warm-up, cut into equal segments,
/// each belonging to one of `classes` windows: a single untraced window,
/// or (traced run) pairs of segments holding one untraced and one traced
/// segment in seeded order, so drift and periodic bursts over the run
/// fall on both windows alike. A window's end-to-end figures are medians
/// of per-segment figures, so a burst of host contention shorter than
/// half the run does not move them. Fixed before any thread starts.
struct Timeline {
  std::uint64_t t0 = 0;  // probe j is due at t0 + j·period
  std::uint64_t start = 0;
  std::uint64_t segment_ns = 0;
  std::size_t segments = 1;
  std::size_t classes = 1;
  std::vector<std::uint8_t> flip;  // per segment pair: swap the two classes

  [[nodiscard]] std::size_t class_of_segment(std::size_t segment) const {
    if (classes == 1) return 0;
    return (segment % 2) ^ flip[segment / 2];
  }
  /// The segment time `t` falls in, or -1 outside the interval.
  [[nodiscard]] int segment_of(std::uint64_t t) const {
    if (t < start) return -1;
    const std::uint64_t segment = (t - start) / segment_ns;
    return segment < segments ? static_cast<int>(segment) : -1;
  }
  [[nodiscard]] std::uint64_t bound(std::size_t segment) const {
    return start + segment * segment_ns;
  }
};

struct Flags {
  std::atomic<bool> stop_load{false};
  std::atomic<bool> stop_subs{false};
  std::atomic<bool> tracing{false};
};

/// What one subscriber thread saw in one segment.
struct SubWindow {
  std::vector<double> fresh_ms;
  std::vector<double> lag_ms;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shm_frames = 0;
  std::uint64_t shm_overruns = 0;
  std::uint64_t shm_demotions = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t wall_ns = 0;
};

struct SubState {
  explicit SubState(std::size_t segments, std::size_t span_capacity)
      : per_segment(segments), log(span_capacity) {}
  std::vector<SubWindow> per_segment;
  std::uint64_t last_probe = 0;
  std::atomic<std::uint64_t> view_seq{0};
  std::atomic<bool> exited{false};
  bool dropped = false;
  SpanLog log;
};

void subscriber_loop(svc::TelemetryClient& client, SubState& state,
                     const Timeline& timeline, Flags& flags) {
  std::uint64_t prev_bytes = client.full_frame_bytes() +
                             client.delta_frame_bytes() +
                             client.shm_frame_bytes();
  std::uint64_t prev_shm = client.shm_frames();
  std::uint64_t prev_overruns = client.shm_overruns();
  std::uint64_t prev_demotions = client.shm_demotions();
  while (!flags.stop_subs.load(std::memory_order_acquire)) {
    const bool traced = flags.tracing.load(std::memory_order_relaxed);
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t wall0 = now_ns();
    bool ok = false;
    {
      ScopedSpan span(traced ? &state.log : nullptr, "svc.client.poll_frame");
      ok = client.poll_frame(std::chrono::milliseconds(50));
      span.set_items(ok ? 1 : 0);
    }
    const std::uint64_t now = now_ns();
    const std::uint64_t cpu1 = thread_cpu_ns();
    if (!ok) {
      if (!client.connected()) {
        state.dropped = true;
        break;
      }
      continue;
    }
    const std::uint64_t bytes = client.full_frame_bytes() +
                                client.delta_frame_bytes() +
                                client.shm_frame_bytes();
    const int seg = timeline.segment_of(now);
    if (seg >= 0) {
      SubWindow& win = state.per_segment[static_cast<std::size_t>(seg)];
      ++win.frames;
      win.bytes += bytes - prev_bytes;
      win.shm_frames += client.shm_frames() - prev_shm;
      win.shm_overruns += client.shm_overruns() - prev_overruns;
      win.shm_demotions += client.shm_demotions() - prev_demotions;
      win.cpu_ns += cpu1 - cpu0;
      win.wall_ns += now - wall0;
      win.lag_ms.push_back(static_cast<double>(client.last_latency_ns()) / 1e6);
    }
    prev_bytes = bytes;
    prev_shm = client.shm_frames();
    prev_overruns = client.shm_overruns();
    prev_demotions = client.shm_demotions();

    const std::vector<shard::Sample>& samples = client.view().samples();
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), kProbeName,
        [](const shard::Sample& s, const std::string& key) {
          return s.name < key;
        });
    if (it != samples.end() && it->name == kProbeName &&
        it->value > state.last_probe) {
      for (std::uint64_t j = state.last_probe + 1; j <= it->value; ++j) {
        const std::uint64_t due = timeline.t0 + j * kProbePeriodNs;
        const int due_seg = timeline.segment_of(due);
        if (due_seg >= 0 && now >= due) {
          state.per_segment[static_cast<std::size_t>(due_seg)].fresh_ms.push_back(
              static_cast<double>(now - due) / 1e6);
        }
      }
      state.last_probe = it->value;
    }
    state.view_seq.store(client.view().sequence(), std::memory_order_release);
  }
  state.exited.store(true, std::memory_order_release);
}

struct LoadState {
  explicit LoadState(std::size_t segments, std::size_t span_capacity)
      : late_us(segments), probes_due(segments, 0), log(span_capacity) {}
  std::vector<std::vector<double>> late_us;
  std::vector<std::uint64_t> probes_due;
  std::uint64_t probes = 0;
  SpanLog log;
};

/// Seeded target choice shared by the load thread and the step replay:
/// round-robin over the static targets, or a draw in proportion to each
/// target's weight. Each stratum of targets (the static ones of one kind,
/// then all created ones in creation order) gets the same weight ladder
/// in a seeded order: counters run at unequal rates, and each kind's
/// share of the load is the same for every seed.
class Picker {
 public:
  Picker(const WorkloadSpec& spec, std::size_t static_targets,
         std::size_t all_targets, std::uint64_t seed)
      : round_robin_(spec.round_robin),
        static_targets_(static_targets),
        rng_(seed) {
    if (round_robin_) return;
    sim::Rng order(seed ^ 0x3Eu);  // own stream: picks match any capacity
    std::uint64_t sum = 0;
    cumulative_.reserve(all_targets);
    auto stratum = [&](std::size_t n) {
      std::vector<std::uint64_t> ladder(n);
      for (std::size_t i = 0; i < n; ++i) {  // scaled by 1024 to integers
        ladder[i] = static_cast<std::uint64_t>(std::llround(
            1024.0 * std::pow(kMaxWeight, (static_cast<double>(i) + 0.5) /
                                              static_cast<double>(n))));
      }
      for (std::size_t i = n; i > 1; --i) {
        std::swap(ladder[i - 1], ladder[order.below(i)]);
      }
      for (const std::uint64_t w : ladder) cumulative_.push_back(sum += w);
    };
    for (const unsigned n : spec.counts) stratum(n);
    stratum(all_targets - static_targets);
  }

  std::size_t pick(std::size_t live_targets) {
    if (round_robin_) return cursor_++ % static_targets_;
    const auto end = cumulative_.begin() +
                     static_cast<std::ptrdiff_t>(live_targets);
    const std::uint64_t x = rng_.below(*(end - 1));
    return static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), end, x) - cumulative_.begin());
  }
  sim::Rng& rng() { return rng_; }

 private:
  bool round_robin_;
  std::size_t static_targets_;
  std::size_t cursor_ = 0;
  std::vector<std::uint64_t> cumulative_;  // running sum of the weights
  sim::Rng rng_;
};

const char* const kIncrSpan[kKinds] = {"core.kmult_incr", "core.kadd_incr",
                                       "exact.incr", "stats.hist_record"};

void load_loop(Fleet& fleet, const WorkloadSpec& spec, std::uint64_t seed,
               LoadState& state, const Timeline& timeline, Flags& flags) {
  // 1 ns timer slack: the sleep before each spin slice wakes on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Picker picker(spec, fleet.static_targets, fleet.targets.size(), seed);
  std::vector<std::size_t> by_kind[kKinds];
  std::vector<std::uint64_t> values;  // histogram observations, in order
  for (auto& list : by_kind) list.reserve(kBatch);
  values.reserve(kBatch);
  for (std::uint64_t j = 1; !flags.stop_load.load(std::memory_order_acquire);
       ++j) {
    const std::uint64_t due = timeline.t0 + j * kProbePeriodNs;
    wait_until(due);
    const std::uint64_t late = now_ns() - due;
    const int seg = timeline.segment_of(due);
    if (seg >= 0) {
      state.late_us[static_cast<std::size_t>(seg)].push_back(
          static_cast<double>(late) / 1e3);
      ++state.probes_due[static_cast<std::size_t>(seg)];
    }
    SpanLog* log =
        flags.tracing.load(std::memory_order_relaxed) ? &state.log : nullptr;
    ScopedSpan tick(log, "gen.tick");
    fleet.probe->increment(kLoadPid);
    state.probes = j;

    // Draw the batch, then run it grouped by kind so each kind's
    // increments can be timed as one span.
    const std::size_t live =
        fleet.static_targets + fleet.created.load(std::memory_order_acquire);
    for (auto& list : by_kind) list.clear();
    values.clear();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const std::size_t t = picker.pick(live);
      by_kind[static_cast<int>(fleet.targets[t].kind)].push_back(t);
      if (fleet.targets[t].kind == Kind::kHist) {
        values.push_back(picker.rng().log_uniform(kHistMax));
      }
    }
    for (int k = 0; k < kKinds; ++k) {
      if (by_kind[k].empty()) continue;
      ScopedSpan span(log, kIncrSpan[k]);
      if (static_cast<Kind>(k) == Kind::kHist) {
        for (std::size_t i = 0; i < by_kind[k].size(); ++i) {
          Target& target = fleet.targets[by_kind[k][i]];
          target.hist->record(kLoadPid, values[i]);
          const std::vector<std::uint64_t>& edges =
              target.hist->bucket_bounds();
          ++target.bucket_tally[static_cast<std::size_t>(
              std::lower_bound(edges.begin(), edges.end(), values[i]) -
              edges.begin())];
        }
      } else {
        for (const std::size_t t : by_kind[k]) {
          fleet.targets[t].counter->increment(kLoadPid);
          ++fleet.targets[t].tally;
        }
      }
      span.set_items(by_kind[k].size());
    }
    tick.set_items(kBatch + 1);
  }
}

/// Creates one seeded counter every kCreatePeriodNs (mixed_groups).
void churn_loop(Fleet& fleet, std::uint64_t seed, SpanLog& log,
                const Timeline& timeline, Flags& flags) {
  sim::Rng rng(seed);
  const std::size_t capacity = fleet.targets.size() - fleet.static_targets;
  for (std::size_t c = 0; c < capacity; ++c) {
    const std::uint64_t due = timeline.t0 + (c + 1) * kCreatePeriodNs;
    while (!flags.stop_load.load(std::memory_order_acquire) && now_ns() < due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (flags.stop_load.load(std::memory_order_acquire)) return;
    const Kind kind = rng.below(2) == 0 ? Kind::kKAdd : Kind::kExact;
    char name[64];
    std::snprintf(name, sizeof name, "%sdyn_%08" PRIx64 "_%04zu",
                  kind_prefix(kind), rng.next() >> 32, c);
    Target& target = fleet.targets[fleet.static_targets + c];
    target.name = name;
    target.kind = kind;
    {
      ScopedSpan span(flags.tracing.load(std::memory_order_relaxed) ? &log
                                                                     : nullptr,
                      "shard.create");
      target.counter = fleet.registry->get_or_create(name, counter_spec(kind));
      span.set_items(1);
    }
    if (target.counter == nullptr) return;
    fleet.created.store(c + 1, std::memory_order_release);
  }
}

/// The traced run's own calls into each layer, on the tracer pid: timed
/// reads, a full collect pass, the histogram share of it, the public
/// encoders on the collected frame, and MaterializedView::apply.
struct TracerResult {
  std::uint64_t applies = 0;
  std::uint64_t apply_failures = 0;
  std::uint64_t read_sum = 0;  // keeps the timed reads observable
};

void tracer_loop(Fleet& fleet, std::uint64_t seed, SpanLog& log,
                 TracerResult& result, Flags& flags) {
  sim::Rng rng(seed);
  std::vector<std::size_t> of_kind[kKinds];
  for (std::size_t t = 0; t < fleet.static_targets; ++t) {
    of_kind[static_cast<int>(fleet.targets[t].kind)].push_back(t);
  }
  shard::TelemetryFrame frame;
  std::vector<std::uint64_t> prev_values;
  std::vector<std::vector<std::uint64_t>> prev_counts;
  std::uint64_t prev_version = 0;
  std::vector<std::uint64_t> counts;
  std::vector<svc::DeltaEntry> delta;
  std::string full_buf;
  std::string delta_buf;
  svc::MaterializedView view;
  std::uint64_t next = now_ns();
  while (!flags.stop_load.load(std::memory_order_acquire)) {
    if (!flags.tracing.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      next = now_ns();
      continue;
    }
    {
      ScopedSpan pass(&log, "tracer.pass");
      const struct {
        Kind kind;
        const char* span;
      } reads[] = {{Kind::kKMult, "core.kmult_read"},
                   {Kind::kExact, "exact.read"}};
      for (const auto& r : reads) {
        const std::vector<std::size_t>& pool = of_kind[static_cast<int>(r.kind)];
        if (pool.empty()) continue;
        ScopedSpan span(&log, r.span);
        for (std::uint64_t i = 0; i < kReadSample; ++i) {
          result.read_sum +=
              fleet.targets[pool[rng.below(pool.size())]].counter->read(
                  kTracerPid);
        }
        span.set_items(kReadSample);
      }
      {
        ScopedSpan span(&log, "shard.collect");
        frame.registry_version = fleet.registry->snapshot_all_into(
            kTracerPid, frame.samples, frame.registry_version);
        span.set_items(frame.samples.size());
      }
      ++frame.sequence;
      const std::vector<std::size_t>& hists = of_kind[static_cast<int>(Kind::kHist)];
      if (!hists.empty()) {
        ScopedSpan span(&log, "stats.hist_collect");
        for (const std::size_t t : hists) {
          fleet.targets[t].hist->snapshot_into(kTracerPid, counts);
        }
        span.set_items(hists.size());
      }
      const std::uint64_t stamp = now_ns();
      {
        ScopedSpan span(&log, "svc.wire.encode_full");
        svc::encode_full_frame(frame, stamp, full_buf);
        span.set_items(frame.samples.size());
      }
      const bool delta_ok = view.sequence() != 0 &&
                            prev_version == frame.registry_version &&
                            prev_values.size() == frame.samples.size();
      svc::ApplyResult applied = svc::ApplyResult::kApplied;
      if (delta_ok) {
        delta.clear();
        for (std::size_t i = 0; i < frame.samples.size(); ++i) {
          const shard::Sample& now_s = frame.samples[i];
          if (now_s.model == shard::ErrorModel::kTopK) continue;
          if (now_s.model == shard::ErrorModel::kHistogram) {
            if (now_s.bucket_counts != prev_counts[i]) {
              delta.emplace_back(i, now_s.value, now_s.bucket_counts);
            }
          } else if (now_s.value != prev_values[i]) {
            delta.emplace_back(i, now_s.value);
          }
        }
        {
          ScopedSpan span(&log, "svc.wire.encode_delta");
          svc::encode_delta_frame(frame.sequence, frame.registry_version,
                                  stamp, frame.sequence - 1, delta, delta_buf);
          span.set_items(delta.size());
        }
        ScopedSpan span(&log, "svc.wire.apply_delta");
        applied = view.apply(
            std::string_view(delta_buf).substr(svc::kFramePrefixBytes));
        span.set_items(delta.size());
      } else {
        ScopedSpan span(&log, "svc.wire.apply_full");
        applied = view.apply(
            std::string_view(full_buf).substr(svc::kFramePrefixBytes));
        span.set_items(frame.samples.size());
      }
      ++result.applies;
      if (applied != svc::ApplyResult::kApplied) ++result.apply_failures;
      prev_values.resize(frame.samples.size());
      prev_counts.resize(frame.samples.size());
      for (std::size_t i = 0; i < frame.samples.size(); ++i) {
        prev_values[i] = frame.samples[i].value;
        if (frame.samples[i].model == shard::ErrorModel::kHistogram) {
          prev_counts[i] = frame.samples[i].bucket_counts;
        }
      }
      prev_version = frame.registry_version;
    }
    next += kTracerPeriodNs;
    while (!flags.stop_load.load(std::memory_order_acquire) && now_ns() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

// --- the paper's step counts ------------------------------------------------

struct StepCounts {
  double per_incr = 0.0;
  double per_read = 0.0;
};

/// Replays the workload's seeded increment mix on a small
/// InstrumentedBackend replica (8 counters per kind present; histogram
/// records skipped), with one read of every replica per tick's worth of
/// increments, and counts the paper's steps for each operation type.
StepCounts replay_steps(const WorkloadSpec& spec, std::uint64_t seed) {
  constexpr unsigned kReplicas = 8;
  constexpr std::uint64_t kIncrements = 200'000;
  const std::uint64_t per_tick =
      kBatch * static_cast<std::uint64_t>(kTick.count()) * 1'000'000 /
      kProbePeriodNs;
  shard::RegistryT<base::InstrumentedBackend> registry(kPids);
  std::vector<shard::AnyCounter*> replica[kKinds];
  std::vector<Kind> kinds;
  std::size_t static_targets = 0;
  for (int k = 0; k < kKinds; ++k) {
    static_targets += spec.counts[k];
    for (unsigned i = 0; i < spec.counts[k]; ++i) {
      kinds.push_back(static_cast<Kind>(k));
    }
    if (k == static_cast<int>(Kind::kHist) || spec.counts[k] == 0) continue;
    for (unsigned r = 0; r < kReplicas; ++r) {
      replica[k].push_back(&registry.create(
          static_name(static_cast<Kind>(k), r), counter_spec(static_cast<Kind>(k))));
    }
  }
  Picker picker(spec, static_targets, static_targets, seed);
  base::StepRecorder incr_steps;
  base::StepRecorder read_steps;
  std::uint64_t incrs = 0;
  std::uint64_t reads = 0;
  for (std::uint64_t i = 1; i <= kIncrements; ++i) {
    const std::size_t t = picker.pick(static_targets);
    const int k = static_cast<int>(kinds[t]);
    if (kinds[t] == Kind::kHist) {
      (void)picker.rng().log_uniform(kHistMax);
    } else {
      base::ScopedRecording on(incr_steps);
      replica[k][t % kReplicas]->increment(kLoadPid);
      ++incrs;
    }
    if (i % per_tick == 0) {
      base::ScopedRecording on(read_steps);
      for (const auto& list : replica) {
        for (shard::AnyCounter* counter : list) {
          (void)counter->read(kServerPid);
          ++reads;
        }
      }
    }
  }
  StepCounts out;
  if (incrs > 0) out.per_incr = static_cast<double>(incr_steps.total()) / incrs;
  if (reads > 0) out.per_read = static_cast<double>(read_steps.total()) / reads;
  return out;
}

// --- correctness gate ---------------------------------------------------------

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sys_entries = 0;  // __sys/ rows: no tally to check against
};

bool within(const shard::Sample& sample, std::uint64_t x, std::uint64_t v) {
  switch (sample.model) {
    case shard::ErrorModel::kExact:
      return x == v;
    case shard::ErrorModel::kMultiplicative:
      return core::within_mult_band(x, v, sample.error_bound);
    default:  // additive, and histogram buckets (per-bucket additive)
      return core::within_add_band(x, v, sample.error_bound);
  }
}

shard::ErrorModel model_of(Kind kind) {
  switch (kind) {
    case Kind::kKMult: return shard::ErrorModel::kMultiplicative;
    case Kind::kKAdd: return shard::ErrorModel::kAdditive;
    case Kind::kExact: return shard::ErrorModel::kExact;
    case Kind::kHist: return shard::ErrorModel::kHistogram;
  }
  return shard::ErrorModel::kExact;
}

/// Checks one subscriber's final view against the generator's tallies:
/// every entry its filter admits is present, and every value is within
/// the entry's own error model and bound.
void check_view(const svc::MaterializedView& view,
                const svc::SubscriptionFilter& filter, const Fleet& fleet,
                std::uint64_t probes, Verdict& verdict) {
  std::unordered_map<std::string, const Target*> by_name;
  const std::size_t live =
      fleet.static_targets + fleet.created.load(std::memory_order_acquire);
  std::uint64_t expected = 1;  // the probe
  for (std::size_t t = 0; t < live; ++t) {
    by_name.emplace(fleet.targets[t].name, &fleet.targets[t]);
    if (filter.pass_all() || filter.matches(fleet.targets[t].name)) ++expected;
  }
  std::uint64_t present = 0;
  for (const shard::Sample& sample : view.samples()) {
    if (shard::is_reserved_name(sample.name)) {
      ++verdict.sys_entries;
      continue;
    }
    ++verdict.attempted;
    if (sample.name == kProbeName) {
      ++present;
      if (!within(sample, sample.value, probes)) {
        ++verdict.failed;
        std::fprintf(stderr, "probe = %" PRIu64 " (fired %" PRIu64 ")\n",
                     sample.value, probes);
      }
      continue;
    }
    const auto it = by_name.find(sample.name);
    if (it == by_name.end() || sample.model != model_of(it->second->kind) ||
        !(filter.pass_all() || filter.matches(sample.name))) {
      ++verdict.failed;
      std::fprintf(stderr, "unexpected entry in view: %s\n",
                   sample.name.c_str());
      continue;
    }
    ++present;
    const Target& target = *it->second;
    bool ok = true;
    if (target.kind == Kind::kHist) {
      ok = sample.bucket_counts.size() == target.bucket_tally.size();
      for (std::size_t b = 0; ok && b < target.bucket_tally.size(); ++b) {
        ok = within(sample, sample.bucket_counts[b], target.bucket_tally[b]);
      }
    } else {
      ok = within(sample, sample.value, target.tally);
    }
    if (!ok) {
      ++verdict.failed;
      std::fprintf(stderr, "accuracy violation: %s = %" PRIu64
                           " (tally %" PRIu64 ", bound %" PRIu64 ")\n",
                   sample.name.c_str(), sample.value, target.tally,
                   sample.error_bound);
    }
  }
  if (present < expected) {
    verdict.attempted += expected - present;
    verdict.failed += expected - present;
    std::fprintf(stderr, "view misses %" PRIu64 " of %" PRIu64 " entries\n",
                 expected - present, expected);
  }
}

// --- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The ServerStats counters the metrics use, summed over a window's
/// segments.
struct ServerDelta {
  double ticks = 0, collector_ns = 0, io_ns = 0;
  double full = 0, delta = 0, catchup = 0, coalesced = 0, group_encodes = 0;

  void add(const svc::ServerStats& a, const svc::ServerStats& b) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    ticks += d(a.frames_collected, b.frames_collected);
    collector_ns += d(a.collector_cpu_ns, b.collector_cpu_ns);
    io_ns += d(a.io_cpu_ns, b.io_cpu_ns);
    full += d(a.full_frames_sent, b.full_frames_sent);
    delta += d(a.delta_frames_sent, b.delta_frames_sent);
    catchup += d(a.catchup_deltas_sent, b.catchup_deltas_sent);
    coalesced += d(a.frames_coalesced, b.frames_coalesced);
    group_encodes += d(a.filtered_delta_encodes, b.filtered_delta_encodes) +
                     d(a.filtered_full_encodes, b.filtered_full_encodes);
  }
  [[nodiscard]] double sent() const { return full + delta + catchup; }
};

/// End-to-end figures of one window.
struct EndToEnd {
  double fresh_p50 = 0, fresh_p90 = 0, fresh_p99 = 0;
  std::size_t fresh_n = 0;
  double lag_p50 = 0;
  double frames_per_sub_s = 0;
  double server_cpu_ms_per_s = 0;
  double bytes_per_frame = 0;
  // Raw sums behind the two count ratios.
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double sub_seconds = 0;
};

/// End-to-end figures of one segment.
EndToEnd end_to_end(const std::vector<std::unique_ptr<SubState>>& subs,
                    std::size_t segment, const ServerDelta& server,
                    double seconds) {
  EndToEnd e;
  std::vector<double> fresh;
  std::vector<double> lag;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  for (const auto& sub : subs) {
    const SubWindow& win = sub->per_segment[segment];
    fresh.insert(fresh.end(), win.fresh_ms.begin(), win.fresh_ms.end());
    lag.insert(lag.end(), win.lag_ms.begin(), win.lag_ms.end());
    frames += win.frames;
    bytes += win.bytes;
  }
  e.fresh_p50 = percentile(fresh, 0.50);
  e.fresh_p90 = percentile(fresh, 0.90);
  e.fresh_p99 = percentile(fresh, 0.99);
  e.fresh_n = fresh.size();
  e.lag_p50 = percentile(lag, 0.50);
  e.server_cpu_ms_per_s = (server.collector_ns + server.io_ns) / 1e6 / seconds;
  e.frames = frames;
  e.bytes = bytes;
  e.sub_seconds = static_cast<double>(subs.size()) * seconds;
  return e;
}

/// A window's figures from its segments: timings are medians of the
/// per-segment values; frame and byte counts are summed (a per-segment
/// median of those small integer ratios would repeat exactly).
EndToEnd median_of(const std::vector<EndToEnd>& parts) {
  auto med = [&](double EndToEnd::*field) {
    std::vector<double> values;
    for (const EndToEnd& part : parts) values.push_back(part.*field);
    return median(std::move(values));
  };
  EndToEnd e;
  e.fresh_p50 = med(&EndToEnd::fresh_p50);
  e.fresh_p90 = med(&EndToEnd::fresh_p90);
  e.fresh_p99 = med(&EndToEnd::fresh_p99);
  e.lag_p50 = med(&EndToEnd::lag_p50);
  e.server_cpu_ms_per_s = med(&EndToEnd::server_cpu_ms_per_s);
  for (const EndToEnd& part : parts) {
    e.fresh_n += part.fresh_n;
    e.frames += part.frames;
    e.bytes += part.bytes;
    e.sub_seconds += part.sub_seconds;
  }
  if (e.sub_seconds > 0) {
    e.frames_per_sub_s = static_cast<double>(e.frames) / e.sub_seconds;
  }
  if (e.frames > 0) {
    e.bytes_per_frame =
        static_cast<double>(e.bytes) / static_cast<double>(e.frames);
  }
  return e;
}

std::vector<Metric> e2e_metrics(const EndToEnd& e) {
  return {{"fresh_p50_ms", e.fresh_p50, "ms"},
          {"fresh_p90_ms", e.fresh_p90, "ms"},
          {"view_lag_p50_ms", e.lag_p50, "ms"},
          {"frames_per_sub_s", e.frames_per_sub_s, "1/s"},
          {"server_cpu_ms_per_s", e.server_cpu_ms_per_s, "ms/s"},
          {"bytes_per_frame", e.bytes_per_frame, "B"}};
}

void print_json(bool correct, const Verdict& verdict,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", verdict.attempted, verdict.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload <kmult_fleet|wide_delta|"
               "mixed_groups> --seed <n> --seconds <s> --trace <0|1>\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage();
    }
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      const unsigned long s = std::strtoul(value.c_str(), &end, 10);
      // run.py kills a run after 170 s; set-ups, warm-up, final sync and
      // step replay fit in the 20 s beyond --seconds.
      if (s < 1 || s > 150) usage();
      args.seconds = static_cast<unsigned>(s);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage();
      args.trace = value == "1";
      continue;
    } else {
      usage();
    }
    if (end != nullptr && (*end != '\0' || errno != 0 || value.empty())) {
      usage();
    }
  }
  if (!have_workload) usage();
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) usage();
  const WorkloadSpec& spec = *found;
  const std::size_t create_capacity =
      spec.churn ? (args.seconds + 5) * 1'000'000'000ull / kCreatePeriodNs : 0;

  // Set-up, several times; the last one is kept. setup_s is the
  // interquartile mean: a new subscriber's first frame waits for the
  // collector's first publish or for the next tick, so single set-ups
  // fall into two modes a tick apart and a plain median flips between
  // them from run to run.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  const std::uint64_t setups_start = now_ns();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          now_ns() - setups_start < kSetupBudgetNs)) {
    fleet.reset();
    const std::uint64_t start = now_ns();
    fleet = set_up(spec, create_capacity);
    if (!fleet) {
      std::fprintf(stderr, "fleetbench: set-up failed (server or client)\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  const double setup_iqm = interquartile_mean(setup_s);

  // Timeline: 1 s warm-up, then the measured interval — 1 s untraced
  // segments, or 500 ms segments alternating untraced and traced.
  Timeline timeline;
  timeline.t0 = now_ns() + 20'000'000;
  timeline.start = timeline.t0 + kWarmupNs;
  timeline.segment_ns = args.trace ? kTraceSegmentNs : kSegmentNs;
  timeline.segments =
      args.seconds * 1'000'000'000ull / timeline.segment_ns;
  if (args.trace) {
    timeline.classes = 2;
    sim::Rng order(args.seed ^ 0x5Eu);
    for (std::size_t pair = 0; pair < timeline.segments / 2; ++pair) {
      timeline.flip.push_back(static_cast<std::uint8_t>(order.below(2)));
    }
  }
  const std::size_t segments = timeline.segments;
  const std::size_t windows = timeline.classes;
  const double segment_s = static_cast<double>(timeline.segment_ns) / 1e9;

  Flags flags;
  const std::size_t span_cap = args.trace ? (args.seconds + 2) * 8'000 : 0;
  std::vector<std::unique_ptr<SubState>> subs;
  std::vector<std::thread> sub_threads;
  for (auto& client : fleet->clients) {
    subs.push_back(std::make_unique<SubState>(segments, span_cap / 16));
    sub_threads.emplace_back(subscriber_loop, std::ref(*client),
                             std::ref(*subs.back()), std::cref(timeline),
                             std::ref(flags));
  }
  LoadState load(segments, span_cap);
  std::thread load_thread(load_loop, std::ref(*fleet), std::cref(spec),
                          args.seed, std::ref(load), std::cref(timeline),
                          std::ref(flags));
  SpanLog churn_log(args.trace ? args.seconds * 20 + 64 : 0);
  std::thread churn_thread;
  if (spec.churn) {
    churn_thread = std::thread(churn_loop, std::ref(*fleet), args.seed ^ 0xC4u,
                               std::ref(churn_log), std::cref(timeline),
                               std::ref(flags));
  }

  auto sleep_until_ns = [](std::uint64_t t) {
    const std::uint64_t now = now_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  SpanLog tracer_log(args.trace ? args.seconds * 1'000 : 0);
  TracerResult tracer_result;
  std::thread tracer_thread;
  if (args.trace) {
    tracer_thread = std::thread(tracer_loop, std::ref(*fleet),
                                args.seed ^ 0x7Au, std::ref(tracer_log),
                                std::ref(tracer_result), std::ref(flags));
  }
  std::vector<ServerDelta> server(segments);        // per segment
  std::vector<ServerDelta> server_window(windows);  // summed per window
  std::vector<CpuTicks> steal_window(windows);
  svc::ServerStats last;
  CpuTicks last_ticks;
  for (std::size_t i = 0; i <= segments; ++i) {
    sleep_until_ns(timeline.bound(i));
    const svc::ServerStats now = fleet->server->stats();
    const CpuTicks now_ticks = cpu_ticks();
    if (i > 0) {
      server[i - 1].add(last, now);
      server_window[timeline.class_of_segment(i - 1)].add(last, now);
      steal_window[timeline.class_of_segment(i - 1)].add(last_ticks, now_ticks);
    }
    last = now;
    last_ticks = now_ticks;
    flags.tracing.store(
        i < timeline.segments && timeline.class_of_segment(i) == 1,
        std::memory_order_relaxed);
  }
  flags.stop_load.store(true, std::memory_order_release);
  load_thread.join();
  if (churn_thread.joinable()) churn_thread.join();
  if (tracer_thread.joinable()) tracer_thread.join();
  flags.tracing.store(false, std::memory_order_relaxed);

  // Final sync: each subscriber must apply a frame whose collect began
  // after the load stopped (two passes past the current one).
  const std::uint64_t target_seq =
      fleet->server->aggregator().frames_collected() + 2;
  const std::uint64_t sync_deadline = now_ns() + 5'000'000'000ull;
  std::uint64_t sync_timeouts = 0;
  for (const auto& sub : subs) {
    while (sub->view_seq.load(std::memory_order_acquire) < target_seq &&
           !sub->exited.load(std::memory_order_acquire) &&
           now_ns() < sync_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (sub->view_seq.load(std::memory_order_acquire) < target_seq) {
      ++sync_timeouts;
      std::fprintf(stderr, "subscriber never saw a post-load frame\n");
    }
  }
  flags.stop_subs.store(true, std::memory_order_release);
  for (std::thread& t : sub_threads) t.join();

  // Correctness gate.
  Verdict verdict;
  for (std::size_t s = 0; s < subs.size(); ++s) {
    ++verdict.attempted;  // the session itself
    if (subs[s]->dropped) {
      ++verdict.failed;
      std::fprintf(stderr, "subscriber %zu dropped\n", s);
    }
    check_view(fleet->clients[s]->view(), filter_of(spec.subs[s]), *fleet,
               load.probes, verdict);
    verdict.attempted += load.probes;  // probe deliveries
    if (subs[s]->last_probe < load.probes) {
      verdict.failed += load.probes - subs[s]->last_probe;
      std::fprintf(stderr, "subscriber %zu never saw %" PRIu64 " probes\n", s,
                   load.probes - subs[s]->last_probe);
    }
  }
  if (tracer_result.apply_failures > 0) {
    std::fprintf(stderr, "%" PRIu64 " traced applies failed\n",
                 tracer_result.apply_failures);
  }
  verdict.attempted += sync_timeouts + tracer_result.applies;
  verdict.failed += sync_timeouts + tracer_result.apply_failures;
  const bool correct = verdict.failed == 0;
  const double fail_frac = static_cast<double>(verdict.failed) /
                           static_cast<double>(verdict.attempted);

  std::printf("fleetbench workload=%s seed=%" PRIu64 " seconds=%u trace=%d\n",
              spec.name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::vector<EndToEnd> e2e;
  std::vector<std::vector<double>> late_us(windows);
  std::vector<std::uint64_t> probes_due(windows, 0);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<EndToEnd> parts;
    for (std::size_t seg = 0; seg < segments; ++seg) {
      if (timeline.class_of_segment(seg) != w) continue;
      parts.push_back(end_to_end(subs, seg, server[seg], segment_s));
      late_us[w].insert(late_us[w].end(), load.late_us[seg].begin(),
                        load.late_us[seg].end());
      probes_due[w] += load.probes_due[seg];
    }
    e2e.push_back(median_of(parts));
  }
  const EndToEnd& base = e2e[0];
  std::printf("%-22s %12.6f s   (interquartile mean of %zu set-ups)\n",
              "setup_s", setup_iqm, setup_s.size());
  for (const Metric& m : e2e_metrics(base)) {
    std::printf("%-22s %12.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const double rss = peak_rss_mib();
  std::printf("%-22s %12.6f MiB\n", "peak_rss_mb", rss);
  std::printf("%-22s %12.6f 1     (failed %" PRIu64 " / attempted %" PRIu64
              ", __sys/ rows unchecked %" PRIu64 ")\n",
              "fail_frac", fail_frac, verdict.failed, verdict.attempted,
              verdict.sys_entries);
  std::printf("%-22s %12.6f ms    (n = %zu; unbounded)\n", "fresh_p99_ms",
              base.fresh_p99, base.fresh_n);
  std::printf("%-22s %12.6f us    (%" PRIu64 " probes due)\n",
              "gen.late_p99_us", percentile(late_us[0], 0.99), probes_due[0]);
  std::printf("%-22s %12.6f 1     (host CPU stolen while measuring)\n",
              "host_steal_frac", steal_window[0].steal_frac());

  if (!args.trace) {
    std::vector<Metric> metrics = {{"setup_s", setup_iqm, "s"}};
    for (const Metric& m : e2e_metrics(base)) metrics.push_back(m);
    metrics.push_back({"peak_rss_mb", rss, "MiB"});
    print_json(correct, verdict, metrics);
    return 0;
  }

  // --- traced window: per-layer self time, overhead, per-layer metrics ---
  const EndToEnd& traced = e2e[1];
  const std::vector<Metric> untraced_m = e2e_metrics(base);
  const std::vector<Metric> traced_m = e2e_metrics(traced);
  std::printf("\ntracing overhead (traced minus untraced segments):\n");
  for (std::size_t i = 0; i < untraced_m.size(); ++i) {
    std::printf("  %-22s %12.6f -> %12.6f  (%+.6f %s)\n",
                untraced_m[i].name.c_str(), untraced_m[i].value,
                traced_m[i].value, traced_m[i].value - untraced_m[i].value,
                untraced_m[i].unit);
  }

  SpanTotals totals;
  totals.add(load.log);
  totals.add(churn_log);
  totals.add(tracer_log);
  for (const auto& sub : subs) totals.add(sub->log);
  std::uint64_t all_self = 0;
  for (const auto& [name, t] : totals.all()) all_self += t.self_ns;
  std::printf("\nper-layer self time over the traced segments (%" PRIu64
              " spans dropped):\n",
              totals.dropped());
  std::printf("  %-26s %10s %12s %12s %8s %12s\n", "span", "count",
              "total_ms", "self_ms", "self%", "ns/item");
  for (const auto& [name, t] : totals.all()) {
    std::printf("  %-26s %10" PRIu64 " %12.3f %12.3f %7.2f%% %12.1f\n",
                name.c_str(), t.count, static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6,
                all_self == 0 ? 0.0
                              : 100.0 * static_cast<double>(t.self_ns) /
                                    static_cast<double>(all_self),
                totals.ns_per_item(name));
  }

  const ServerDelta& srv = server_window[1];
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };

  std::uint64_t frames = 0, shm_frames = 0, cpu_ns = 0, wall_ns = 0;
  std::uint64_t overruns = 0, demotions = 0;
  for (const auto& sub : subs) {
    for (std::size_t seg = 0; seg < segments; ++seg) {
      if (timeline.class_of_segment(seg) != 1) continue;
      const SubWindow& win = sub->per_segment[seg];
      frames += win.frames;
      shm_frames += win.shm_frames;
      overruns += win.shm_overruns;
      demotions += win.shm_demotions;
      cpu_ns += win.cpu_ns;
      wall_ns += win.wall_ns;
    }
  }
  const StepCounts steps = replay_steps(spec, args.seed);

  // Where a tick's collector time goes, by the traced calls' costs.
  const double collect_us = totals.mean_ns("shard.collect") / 1e3;
  const double encode_us = (totals.mean_ns("svc.wire.encode_full") +
                            totals.mean_ns("svc.wire.encode_delta")) /
                           1e3;
  const double io_us_per_tick = ratio(srv.io_ns, srv.ticks) / 1e3;
  std::printf("\nper tick: collect %.1f us, encode (full + delta) %.1f us, "
              "server I/O %.1f us, collector thread %.1f us -> largest: %s\n",
              collect_us, encode_us, io_us_per_tick,
              ratio(srv.collector_ns, srv.ticks) / 1e3,
              collect_us >= encode_us + io_us_per_tick ? "shard collect"
                                                       : "encode + I/O");

  const std::vector<Metric> per_layer = {
      {"core.kmult_incr_ns", totals.ns_per_item("core.kmult_incr"), "ns"},
      {"core.kadd_incr_ns", totals.ns_per_item("core.kadd_incr"), "ns"},
      {"core.kmult_read_ns", totals.ns_per_item("core.kmult_read"), "ns"},
      {"exact.read_ns", totals.ns_per_item("exact.read"), "ns"},
      {"core.steps_per_read", steps.per_read, "steps"},
      {"core.steps_per_incr", steps.per_incr, "steps"},
      {"shard.collect_ns_per_entry", totals.ns_per_item("shard.collect"), "ns"},
      {"shard.collect_us", collect_us, "us"},
      {"stats.hist_collect_ns", totals.mean_ns("stats.hist_collect"), "ns"},
      {"shard.create_us", totals.mean_ns("shard.create") / 1e3, "us"},
      {"svc.wire.encode_delta_ns_per_entry",
       totals.ns_per_item("svc.wire.encode_delta"), "ns"},
      {"svc.wire.encode_full_us", totals.mean_ns("svc.wire.encode_full") / 1e3,
       "us"},
      {"svc.wire.apply_ns_per_entry",
       totals.ns_per_item("svc.wire.apply_delta"), "ns"},
      {"svc.server.collector_us_per_tick",
       ratio(srv.collector_ns, srv.ticks) / 1e3, "us"},
      {"svc.server.io_us_per_frame", ratio(srv.io_ns, srv.sent()) / 1e3, "us"},
      {"svc.server.tick_hz",
       srv.ticks / (segment_s * static_cast<double>(segments / windows)),
       "1/s"},
      {"svc.server.coalesced_frac",
       ratio(srv.coalesced, srv.sent() + srv.coalesced), "1"},
      {"svc.server.full_frac", ratio(srv.full, srv.sent()), "1"},
      {"svc.server.group_encodes_per_tick",
       ratio(srv.group_encodes, srv.ticks), "count"},
      {"svc.client.cpu_us_per_frame",
       ratio(static_cast<double>(cpu_ns), static_cast<double>(frames)) / 1e3,
       "us"},
      {"svc.client.wait_ms_per_frame",
       ratio(static_cast<double>(wall_ns - std::min(wall_ns, cpu_ns)),
             static_cast<double>(frames)) /
           1e6,
       "ms"},
      {"svc.shm.ring_frac",
       ratio(static_cast<double>(shm_frames), static_cast<double>(frames)),
       "1"},
      {"svc.shm.overruns", static_cast<double>(overruns), "count"},
      {"svc.shm.demotions", static_cast<double>(demotions), "count"},
      {"gen.late_p99_us", percentile(late_us[1], 0.99), "us"},
      {"gen.probes", static_cast<double>(probes_due[1]), "count"},
      {"host.steal_frac", steal_window[1].steal_frac(), "1"},
  };
  std::printf("\nper-layer metrics (traced segments):\n");
  for (const Metric& m : per_layer) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_json(correct, verdict, per_layer);
  return 0;
}
