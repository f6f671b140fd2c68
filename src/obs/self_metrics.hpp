// self_metrics.hpp — the server's own internals, published through the
// server's own registry: self-observability without a second pipeline.
//
// The snapshot server (src/svc) already owns a distribution machine —
// sequenced collects, FULL/DELTA encoding, prefix-filtered
// subscriptions, shm fan-out. This header points that machine at the
// server itself: every internal signal (accepted clients, frames sent,
// per-stage tick timing, top talkers) becomes a registry entry under
// the reserved `__sys/` prefix, so any existing client can subscribe
// to `__sys/` and watch the server's vitals over the standard wire
// with ZERO new wire format.
//
// Each event is counted once. The server counts into ONE block of
// relaxed atomics (ServerCounters); ServerStats is a plain copy of it,
// and every scalar `__sys/server.*` row is a read-only exact view of
// one of its fields (model exact, bound 0), built from one (row name,
// field) table. The views hold the block by shared_ptr, so a row
// outlives the server that counted into it.
//
// Where the paper's objects add something they keep metering the
// server: per-stage timing histograms (k-additive buckets, per-bucket
// S·k) and the top-talker directory (exact max-register rows). Those
// are two-face instruments: ONE object whose registry face
// (shard::AnyHistogram / AnyTopK) collects and describes the entry but
// whose public mutators NO-OP — a fleet worker that somehow obtained a
// `__sys/` handle cannot spoof server internals (and the registry's
// reserved-prefix guard stops it from creating one; see
// shard/registry.hpp kReservedPrefix) — and whose privileged face
// (SysHist / SysTopK) is handed only to the server core. The counter
// views have no privileged face at all: the server writes the block.
//
// Pid discipline: the server's threads are NOT in the registry's pid
// space (that space belongs to fleet workers + the aggregator). The
// instruments here run over a private wpid space instead — wpid 0 is
// the collector thread, wpid 1+i is io worker i — sized at install
// time from the server's thread count. Registry-face reads always use
// wpid 0: sharded reads sum shard cells and are pid-stateless, so any
// in-range pid observes the same value.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "shard/registry.hpp"
#include "stats/histogram.hpp"
#include "stats/topk.hpp"

namespace approx::obs {

// ---------------------------------------------------------------------
// The server's counters: one field per counted quantity, one row each.
// ---------------------------------------------------------------------

/// Every quantity the snapshot server counts. `T` is
/// std::atomic<std::uint64_t> for the live block the server writes
/// (ServerCounters) and std::uint64_t for a plain copy of it
/// (svc::ServerStats). Every field is monotonic except frames_in_flight.
template <typename T>
struct ServerCountersT {
  T frames_collected{};
  T clients_accepted{};
  T clients_closed{};
  /// Subscribers closed by ack-deadline eviction (a subset of
  /// clients_closed). See ServerOptions::ack_deadline_ticks.
  T clients_evicted_idle{};
  /// GAUGE (not monotonic): encoded frames currently handed to
  /// subscribers and not yet fully written — each pins its tick's
  /// shared-encode refcount. Drains to zero when every peer is caught
  /// up or evicted; the eviction proof watches exactly this.
  T frames_in_flight{};
  T full_frames_sent{};     // full encodes handed to clients
  T delta_frames_sent{};    // shared tick/group deltas
  T catchup_deltas_sent{};  // per-client changed-since deltas
  /// Frames of its group's stream a slow reader skipped: counted when it
  /// takes a catch-up or a re-basing full instead of the group's shared
  /// delta. A filtered group's suppressed quiet tick is no frame.
  T frames_coalesced{};
  T bytes_sent{};
  T acks_received{};
  // Wire v2 control channel + filter groups.
  T subscribes_received{};
  T resyncs_received{};
  /// Full-frame encodes of the pass-all group actually performed. Lazy:
  /// zero on a tick nobody needs a full, and at most one per tick
  /// however many subscribers (and the shm ring) take it.
  T unfiltered_full_encodes{};
  /// Distinct encodes of the other (filtered) groups actually
  /// performed; the pass-all group's count in neither. The sharing pins:
  /// K identically-filtered in-step subscribers over T ticks cost ~T
  /// delta encodes (not K·T) and ≤ a handful of full encodes.
  T filtered_full_encodes{};
  T filtered_delta_encodes{};
  /// Group-ticks on which a filter group's subset was unchanged and no
  /// frame was shipped to it (not coalescing — there was nothing to
  /// say; a heartbeat bounds the silence).
  T group_deltas_suppressed{};
  // Shared-memory ring transport (wire v3).
  T shm_requests_received{};
  T shm_offers_sent{};
  T shm_accepts_received{};  // clients moved off TCP data
  T shm_frames_published{};  // ring writes by the collector
  /// Frames that did not fit a ring slot; any > 0 means the ring broke
  /// and shm clients were demoted back to TCP.
  T shm_publish_failures{};
  /// CPU time (CLOCK_THREAD_CPUTIME_ID, ns) burned by the collector
  /// thread so far, counted once per tick.
  T collector_cpu_ns{};
  /// Ticks whose work outran the period — the one number that says the
  /// monitor itself is saturating.
  T ticks_overrun{};
};

/// The live block: relaxed atomics, written only by the server.
using ServerCounters = ServerCountersT<std::atomic<std::uint64_t>>;

/// One scalar `__sys/server.*` row: its name and the field it reads.
template <typename T>
struct ServerCounterRow {
  const char* name;
  T ServerCountersT<T>::*field;
};

/// The one (row name, field) table: the views, install_self_metrics and
/// copy_counters all walk it.
template <typename T>
inline constexpr ServerCounterRow<T> kServerCounterRows[] = {
    {"__sys/server.frames_collected", &ServerCountersT<T>::frames_collected},
    {"__sys/server.clients_accepted", &ServerCountersT<T>::clients_accepted},
    {"__sys/server.clients_closed", &ServerCountersT<T>::clients_closed},
    {"__sys/server.clients_evicted",
     &ServerCountersT<T>::clients_evicted_idle},
    {"__sys/server.frames_in_flight", &ServerCountersT<T>::frames_in_flight},
    {"__sys/server.full_frames_sent", &ServerCountersT<T>::full_frames_sent},
    {"__sys/server.delta_frames_sent", &ServerCountersT<T>::delta_frames_sent},
    {"__sys/server.catchup_deltas_sent",
     &ServerCountersT<T>::catchup_deltas_sent},
    {"__sys/server.frames_coalesced", &ServerCountersT<T>::frames_coalesced},
    {"__sys/server.bytes_sent", &ServerCountersT<T>::bytes_sent},
    {"__sys/server.acks_received", &ServerCountersT<T>::acks_received},
    {"__sys/server.subscribes_received",
     &ServerCountersT<T>::subscribes_received},
    {"__sys/server.resyncs_received", &ServerCountersT<T>::resyncs_received},
    {"__sys/server.unfiltered_full_encodes",
     &ServerCountersT<T>::unfiltered_full_encodes},
    {"__sys/server.filtered_full_encodes",
     &ServerCountersT<T>::filtered_full_encodes},
    {"__sys/server.filtered_delta_encodes",
     &ServerCountersT<T>::filtered_delta_encodes},
    {"__sys/server.group_deltas_suppressed",
     &ServerCountersT<T>::group_deltas_suppressed},
    {"__sys/server.shm_requests_received",
     &ServerCountersT<T>::shm_requests_received},
    {"__sys/server.shm_offers_sent", &ServerCountersT<T>::shm_offers_sent},
    {"__sys/server.shm_accepts_received",
     &ServerCountersT<T>::shm_accepts_received},
    {"__sys/server.shm_frames_published",
     &ServerCountersT<T>::shm_frames_published},
    {"__sys/server.shm_publish_failures",
     &ServerCountersT<T>::shm_publish_failures},
    {"__sys/server.collector_cpu_ns", &ServerCountersT<T>::collector_cpu_ns},
    {"__sys/server.ticks_overrun", &ServerCountersT<T>::ticks_overrun},
};

static_assert(std::size(kServerCounterRows<std::uint64_t>) *
                      sizeof(std::uint64_t) ==
                  sizeof(ServerCountersT<std::uint64_t>),
              "every ServerCounters field needs exactly one row");

/// Copies every field of the live block into `out` (relaxed loads).
inline void copy_counters(const ServerCounters& from,
                          ServerCountersT<std::uint64_t>& out) {
  constexpr auto& live = kServerCounterRows<std::atomic<std::uint64_t>>;
  constexpr auto& plain = kServerCounterRows<std::uint64_t>;
  for (std::size_t i = 0; i < std::size(live); ++i) {
    out.*plain[i].field = (from.*live[i].field).load(std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------
// Privileged faces of the two-face instruments: what the server core
// holds (concrete pointers, no Backend parameter — the erasure lives in
// the instrument objects).
// ---------------------------------------------------------------------

/// Privileged timing histogram (nanosecond observations).
class SysHist {
 public:
  virtual ~SysHist() = default;
  virtual void rec(unsigned wpid, std::uint64_t value) = 0;
};

/// Privileged labeled max-register directory (label, cumulative value).
class SysTopK {
 public:
  virtual ~SysTopK() = default;
  virtual void offer(unsigned wpid, std::string_view label,
                     std::uint64_t value) = 0;
};

// ---------------------------------------------------------------------
// The registry-owned entries (lifetime = registry lifetime).
// ---------------------------------------------------------------------

namespace detail {

/// A scalar row: an exact, read-only view of one ServerCounters field.
class CounterView final : public shard::AnyCounter {
 public:
  using Field = std::atomic<std::uint64_t> ServerCounters::*;

  CounterView(std::shared_ptr<ServerCounters> counters, Field field)
      : counters_(std::move(counters)), field_(field) {}

  [[nodiscard]] const std::shared_ptr<ServerCounters>& counters() const {
    return counters_;
  }

  // Registry face: public mutation no-ops (spoof-proof), reads exact.
  void increment(unsigned /*pid*/) override {}
  std::uint64_t read(unsigned /*pid*/) override {
    return ((*counters_).*field_).load(std::memory_order_relaxed);
  }
  void flush(unsigned /*pid*/) override {}
  [[nodiscard]] shard::ErrorModel error_model() const override {
    return shard::ErrorModel::kExact;
  }
  [[nodiscard]] std::uint64_t error_bound() const override { return 0; }
  [[nodiscard]] unsigned num_shards() const override { return 1; }
  [[nodiscard]] bool accuracy_guaranteed() const override { return true; }

 private:
  std::shared_ptr<ServerCounters> counters_;
  Field field_;
};

/// Reserved timing histogram over the wpid space.
template <typename Backend>
class ReservedHistogram final : public shard::AnyHistogram, public SysHist {
 public:
  ReservedHistogram(unsigned wpids, const stats::HistogramSpec& spec)
      : histogram_(wpids, spec) {}

  // Privileged face.
  void rec(unsigned wpid, std::uint64_t value) override {
    histogram_.record(wpid, value);
  }

  // Registry face.
  void record(unsigned /*pid*/, std::uint64_t /*value*/) override {}
  void snapshot_into(unsigned /*pid*/,
                     std::vector<std::uint64_t>& counts) override {
    histogram_.snapshot_into(0, counts);
  }
  void flush(unsigned /*pid*/) override {}
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_bounds()
      const override {
    return histogram_.bounds();
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override {
    return histogram_.per_bucket_bound();
  }

 private:
  stats::HistogramT<Backend> histogram_;
};

/// Reserved top-k directory over the wpid space.
template <typename Backend>
class ReservedTopK final : public shard::AnyTopK, public SysTopK {
 public:
  ReservedTopK(unsigned wpids, std::size_t capacity)
      : topk_(wpids, capacity) {}

  // Privileged face.
  void offer(unsigned wpid, std::string_view label,
             std::uint64_t value) override {
    (void)topk_.update(wpid, label, value);
  }

  // Registry face: public update unconditionally rejected (the AnyTopK
  // contract documents this for reserved entries).
  bool update(unsigned /*pid*/, std::string_view /*label*/,
              std::uint64_t /*value*/) override {
    return false;
  }
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) override {
    rows_.clear();
    topk_.collect(topk_.capacity(), rows_);
    labels.resize(rows_.size());
    values.resize(rows_.size());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      labels[i] = std::move(rows_[i].label);
      values[i] = rows_[i].value;
    }
  }
  [[nodiscard]] std::size_t capacity() const override {
    return topk_.capacity();
  }

 private:
  stats::TopKT<Backend> topk_;
  std::vector<stats::TopEntry> rows_;  // collect scratch (single reader)
};

}  // namespace detail

// ---------------------------------------------------------------------
// The catalog: every `__sys/server.*` entry, as the server core holds it.
// ---------------------------------------------------------------------

/// The server core's handle bundle. The counter block is shared with
/// the registry's row views; the instrument pointers are non-owning
/// (the registry owns the instruments). All non-null after a
/// successful install; the struct is cheap to copy.
struct ServerInstruments {
  /// The block every scalar row reads; the server counts into it.
  std::shared_ptr<ServerCounters> counters;
  // Stage timing histograms — ns observations, exponential edges.
  SysHist* tick_collect_ns = nullptr;
  SysHist* tick_encode_ns = nullptr;
  SysHist* tick_flush_ns = nullptr;
  SysHist* apply_lag_ns = nullptr;
  // Top talkers — label = peer address, value = cumulative bytes
  // flushed to that peer (monotone, so the max-register fold is exact).
  SysTopK* top_talkers = nullptr;

  /// True iff the full catalog is wired (install succeeded).
  [[nodiscard]] bool complete() const noexcept {
    return counters && tick_collect_ns && tick_encode_ns && tick_flush_ns &&
           apply_lag_ns && top_talkers;
  }
};

/// Timing-histogram edges shared by every `__sys/` *_ns instrument:
/// 1.024 µs … ~4.3 s, factor 4 (12 finite edges + overflow). Coarse on
/// purpose — stage timings are order-of-magnitude signals.
inline std::vector<std::uint64_t> sys_histogram_bounds() {
  return stats::exponential_bounds(1024, 4.0, 12);
}

/// Per-bucket slack of the `__sys/` timing histograms: a bucket
/// undercounts by at most this, and never overcounts.
inline constexpr std::uint64_t kSysHistogramK = 4;

/// Rows kept by `__sys/server.top_talkers`.
inline constexpr std::size_t kTopTalkerRows = 16;

/// Installs the full `__sys/server.*` catalog into `registry` (via the
/// privileged reserved adders) and returns the server core's handles.
/// The first install creates the counter block and the instruments
/// (over a private wpid space of `1 + io_threads` threads); a later
/// install finds them and returns the same block and instruments, so
/// every server armed over one registry counts into that registry's
/// totals (the wpid space of the FIRST install wins — callers reusing a
/// registry across server restarts must keep io_threads stable, which
/// the service layer's single-options construction guarantees).
template <typename Backend>
ServerInstruments install_self_metrics(shard::RegistryT<Backend>& registry,
                                       unsigned io_threads) {
  const unsigned wpids = 1 + (io_threads < 1 ? 1 : io_threads);
  ServerInstruments out;

  // Reserved names are only ever populated by this installer, so the
  // concrete types are known; a kind collision yields nullptr instead.
  const auto fresh = std::make_shared<ServerCounters>();
  [[maybe_unused]] bool rows_complete = true;
  for (const auto& row : kServerCounterRows<std::atomic<std::uint64_t>>) {
    const auto* view = dynamic_cast<detail::CounterView*>(
        registry.add_counter_reserved(std::string(row.name), [&] {
          return std::make_unique<detail::CounterView>(
              out.counters ? out.counters : fresh, row.field);
        }));
    rows_complete = rows_complete && view != nullptr;
    // The first row decides the block: an earlier install's, or `fresh`.
    if (view != nullptr && !out.counters) out.counters = view->counters();
  }
  const auto hist = [&](const char* name) -> SysHist* {
    shard::AnyHistogram* entry = registry.add_histogram_reserved(
        std::string(name), [&] {
          stats::HistogramSpec spec;
          spec.bounds = sys_histogram_bounds();
          spec.k = kSysHistogramK;
          spec.shards = 1;
          return std::make_unique<detail::ReservedHistogram<Backend>>(wpids,
                                                                      spec);
        });
    return dynamic_cast<detail::ReservedHistogram<Backend>*>(entry);
  };

  out.tick_collect_ns = hist("__sys/server.tick.collect_ns");
  out.tick_encode_ns = hist("__sys/server.tick.encode_ns");
  out.tick_flush_ns = hist("__sys/server.tick.flush_ns");
  out.apply_lag_ns = hist("__sys/server.client.apply_lag_ns");

  {
    shard::AnyTopK* entry = registry.add_topk_reserved(
        std::string("__sys/server.top_talkers"), [&] {
          return std::make_unique<detail::ReservedTopK<Backend>>(
              wpids, kTopTalkerRows);
        });
    out.top_talkers = dynamic_cast<detail::ReservedTopK<Backend>*>(entry);
  }

  assert(rows_complete && out.complete() &&
         "self-metrics install hit a kind collision");
  return out;
}

}  // namespace approx::obs
