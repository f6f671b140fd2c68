// server.cpp — SnapshotServer internals: collector + poll() I/O workers.
//
// Layout: detail::ServerCore is the backend-agnostic machinery (sockets,
// threads, frame fan-out) driven through two hooks — "collect a frame"
// and "list the rows changed since" — that the thin SnapshotServerT
// template binds to its AggregatorT / RegistryT pair. Everything
// socket-ish therefore compiles exactly once.
#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/epoch.hpp"
#include "obs/metricsz.hpp"
#include "obs/self_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "svc/shm.hpp"

namespace approx::svc {
namespace detail {
namespace {

/// Longest ack record: type byte + 10-byte varint.
constexpr std::size_t kMaxAckBytes = 11;

/// This thread's slot in the self-metrics instruments' private wpid
/// space: 0 = the collector, 1 + i = io worker i (assigned at the top
/// of each loop). The obs instruments keep the repo-wide one-thread-
/// per-pid discipline without borrowing fleet pids.
thread_local unsigned t_wpid = 0;

/// CPU time this thread has burned so far (ns) — the per-thread clock,
/// so sleeping out the tick costs nothing. Feeds the collector/io CPU
/// stats E19 uses to show shm fan-out keeps server CPU flat.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

class ServerCore {
 public:
  struct Hooks {
    /// Runs one sequenced aggregator pass and returns its published,
    /// immutable frame (shared with the aggregator's latest()).
    std::function<std::shared_ptr<const shard::TelemetryFrame>()> collect;
    /// Replaces `out` with a (wire, flat) ref per row changed in a pass
    /// after `since`, ascending: every row (wire == flat) when
    /// `selection` is null, else the rows it lists (wire = position in
    /// it, a filter group's index space). Copies no values. False when
    /// the registry moved past `expected_version` (indices shifted: fall
    /// back to a full frame).
    std::function<bool(std::uint64_t since, std::uint64_t expected_version,
                       const std::vector<std::uint64_t>* selection,
                       std::vector<DeltaRef>& out)>
        changed_since;
  };

  ServerCore(const ServerOptions& options, Hooks hooks)
      : options_(options), hooks_(std::move(hooks)), trace_(options.trace) {
    if (options_.io_threads == 0) options_.io_threads = 1;
    if (options_.period <= std::chrono::milliseconds::zero()) {
      options_.period = std::chrono::milliseconds(1);
    }
    if (options_.group_heartbeat_ticks == 0) {
      options_.group_heartbeat_ticks = 1;
    }
    if (options_.shm_slots == 0) options_.shm_slots = 1;
    if (options_.shm_slot_bytes == 0) options_.shm_slot_bytes = 4096;
  }

  ~ServerCore() {
    stop();
    delete group_table_.load(std::memory_order_relaxed);
  }

  bool start() {
    // lifecycle_mutex_ serializes start/stop/stats: workers_ is rebuilt
    // here and torn down in stop(), and stats() walks it.
    std::lock_guard lifecycle(lifecycle_mutex_);
    if (running_.load(std::memory_order_acquire)) return true;
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(addr.sin_port);

    // The shm ring (wire v3). Creation failure (no /dev/shm, rlimits)
    // is not an error — the server just never offers and everyone
    // stays on TCP.
    ring_broken_.store(false, std::memory_order_relaxed);
    shm_offer_frame_.reset();
    if (options_.shm_enable &&
        shm_.create(options_.shm_slots, options_.shm_slot_bytes)) {
      ShmOffer offer;
      offer.name = shm_.name();
      offer.generation = shm_.generation();
      offer.slot_count = shm_.slot_count();
      offer.slot_payload_bytes = shm_.slot_payload_bytes();
      auto frame = std::make_shared<std::string>();
      if (encode_shm_offer_frame(offer, *frame)) {
        shm_offer_frame_ = std::move(frame);  // shared by every offer
      } else {
        shm_.destroy();
      }
    }

    workers_.clear();
    for (unsigned i = 0; i < options_.io_threads; ++i) {
      auto worker = std::make_unique<Worker>();
      if (::pipe2(worker->wake_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        close_pipes_and_listener();
        shm_.destroy();
        shm_offer_frame_.reset();
        return false;
      }
      workers_.push_back(std::move(worker));
    }
    // The pass-all group carries every subscriber that has no filter.
    // It is in the table before the collector's first pass, and the
    // server's own ref keeps it there for the whole run.
    pass_all_ = std::make_shared<FilterGroup>();
    pass_all_->key = pass_all_->filter.canonical_key();
    pass_all_->refs = 1;
    auto table = std::make_unique<GroupTable>();
    table->by_key.emplace(pass_all_->key, pass_all_);
    group_table_.store(table.release(), std::memory_order_release);
    running_.store(true, std::memory_order_release);
    for (unsigned i = 0; i < options_.io_threads; ++i) {
      workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
    }
    collector_ = std::thread([this] { collector_loop(); });
    return true;
  }

  void stop() {
    std::lock_guard lifecycle(lifecycle_mutex_);
    if (!running_.exchange(false, std::memory_order_acq_rel)) {
      return;  // never started or already stopped
    }
    for (auto& worker : workers_) wake(*worker);
    if (collector_.joinable()) collector_.join();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    close_pipes_and_listener();
    workers_.clear();
    // After the joins: no thread can touch the ring now. Unlinking only
    // removes the name — a still-attached reader keeps its mapping (and
    // will see no new frames, then EOF on its TCP side).
    shm_.destroy();
    shm_offer_frame_.reset();
    // Post-join there are no readers, so the table (and through it every
    // group and its last tick) dies immediately, and the epoch backlog
    // drains unsafely. start() builds the next run's table.
    delete group_table_.exchange(nullptr, std::memory_order_acq_rel);
    pass_all_.reset();  // worker-held group refs died with workers_
    epochs_.drain_unsafe();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ServerStats stats() const {
    // Serialized against start()/stop() (which rebuild/free workers_);
    // the per-worker atomics keep the counters themselves race-free
    // against the running threads.
    std::lock_guard lifecycle(lifecycle_mutex_);
    ServerStats out;
    obs::copy_counters(*counters_, out);
    out.io_cpu_ns = retired_io_cpu_ns_.load(std::memory_order_relaxed);
    for (const auto& worker : workers_) {
      out.io_cpu_ns += worker->cpu_ns.load(std::memory_order_relaxed);
    }
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (const auto& worker : workers_) {
      floor = std::min(floor,
                       worker->min_acked.load(std::memory_order_relaxed));
    }
    out.min_acked_seq =
        floor == std::numeric_limits<std::uint64_t>::max() ? 0 : floor;
    return out;
  }

  /// Arms the `__sys/` self-metrics handles (obs/self_metrics.hpp):
  /// from here on the server counts into the catalog's block, which its
  /// rows read. Must be called before start().
  void set_instruments(const obs::ServerInstruments& sys) {
    sys_ = sys;
    sys_on_ = sys.complete();
    if (sys_on_) counters_ = sys.counters;
  }

 private:
  /// Flight-recorder shorthand: no-op without a ring.
  void trace(obs::TraceKind kind, std::uint64_t a = 0,
             std::uint64_t b = 0) noexcept {
    if (trace_ != nullptr) trace_->record(kind, a, b);
  }
  /// A lazily-encoded full frame, cached per pass: encoded at most once
  /// per tick, and only when something takes it (see cached_full). Its
  /// own tiny mutex: only re-basing paths (a new or re-basing
  /// subscriber, RESYNC, a failed catch-up walk, the shm ring on a
  /// delta-less tick) ever take it — never the steady delta stream.
  struct FullCache {
    std::mutex mutex;
    std::shared_ptr<const std::string> full;  // guarded by mutex
    std::uint64_t seq = 0;                    // pass `full` encodes
  };

  /// One group's published per-tick state: an immutable record the
  /// collector builds each pass and swings into FilterGroup::tick by
  /// RCU pointer swap, retiring the superseded one through the epoch
  /// domain. Workers snapshot it under an epoch guard (the shared_ptr
  /// payloads extend every buffer past the guard) and then serve
  /// entirely lock-free.
  struct GroupTick {
    std::uint64_t collect_ns = 0;  // collect stamp of snapshot's pass
    /// The registry version the group's WIRE STREAM is labeled with
    /// (see FilterGroup::wire_regver for the pinning rationale).
    std::uint64_t wire_regver = 0;
    /// The group's delta basis AFTER this pass: sequence of the last
    /// frame shipped to the group (deltas cover (sent_seq, label]).
    std::uint64_t sent_seq = 0;
    /// This tick's shared group delta over (delta_base, snapshot's
    /// sequence], under wire_regver (null: suppressed or re-based).
    std::shared_ptr<const std::string> delta;
    std::uint64_t delta_base = 0;
    /// Frames the group has shipped so far, this pass's included (the
    /// measure frames_coalesced counts skipped frames in).
    std::uint64_t frames = 0;
    /// The pass's collected frame (the aggregator's published frame,
    /// shared by pointer with every group's tick) and the selection it
    /// was filtered with — the coherent (snapshot, selection,
    /// sel_regver, wire) tuple lazy filtered fulls encode from.
    std::shared_ptr<const shard::TelemetryFrame> snapshot;
    std::shared_ptr<const std::vector<std::uint64_t>> selection;
    std::uint64_t sel_regver = 0;
  };

  /// One subscription filter's server-side state: every client that
  /// SUBSCRIBEd with the same canonical filter shares one of these, and
  /// with it this tick's single delta encode and the lazily-built full.
  /// A client that never SUBSCRIBEd is in the pass-all group, whose
  /// selection is every row: its frames are byte for byte the unfiltered
  /// v1 stream, and it never suppresses a quiet tick.
  /// Ownership: `refs` is guarded by groups_writer_mutex_; the
  /// selection/basis fields are collector-private pass scratch (workers
  /// only ever see the immutable copies published in GroupTicks); the
  /// full cache has its own mutex (rare re-base path only).
  struct FilterGroup {
    std::string key;  // canonical filter key (the table map key)
    SubscriptionFilter filter;
    std::size_t refs = 0;  // clients in the group; erased at zero
    /// Flat-table indices matching the filter, ascending — valid for
    /// sel_regver's name table; rebuilt (as a fresh immutable vector)
    /// when the registry version moves. Collector-private.
    std::shared_ptr<const std::vector<std::uint64_t>> selection;
    std::uint64_t sel_regver = 0;
    /// The registry version the group's WIRE STREAM is labeled with.
    /// The registry is append-only and the name table name-sorted, so a
    /// fixed filter's subset can only grow — a version bump that leaves
    /// the selection SIZE unchanged left the subset (names and order)
    /// unchanged too, merely shifting its flat indices. The group then
    /// keeps streaming deltas under this pinned older label (its
    /// subscribers' tables are untouched) instead of re-encoding a full
    /// per group on every disjoint create; only a create that actually
    /// lands in the subset bumps wire_regver and re-bases everyone.
    std::uint64_t wire_regver = 0;
    /// The group's delta basis (see GroupTick::sent_seq). Suppressed
    /// ticks do not advance it, so the next delta still covers them.
    std::uint64_t sent_seq = 0;
    unsigned ticks_suppressed = 0;
    std::uint64_t frames = 0;  // see GroupTick::frames
    /// The RCU-published per-tick state. Null until the collector's
    /// first pass over the group. Superseded ticks are retired through
    /// the epoch domain; the last one dies with the group (a reader
    /// holding a tick pointer always also holds the group shared_ptr
    /// that keeps this destructor from running).
    std::atomic<const GroupTick*> tick{nullptr};
    FullCache full;  // the group's lazily-encoded filtered full

    ~FilterGroup() { delete tick.load(std::memory_order_acquire); }
  };

  /// The RCU-published group table: immutable once the writer swaps it
  /// in (the shared_ptr values keep groups alive across table
  /// turnover). Readers pin it with an epoch guard; superseded tables
  /// retire through the epoch domain.
  struct GroupTable {
    std::unordered_map<std::string, std::shared_ptr<FilterGroup>> by_key;
  };

  /// What the collector publishes per tick besides the group ticks;
  /// workers copy it under published_mutex_ (shared_ptr payloads make
  /// the copy O(1)).
  struct PublishedFrame {
    std::uint64_t seq = 0;  // 0 before the first pass
    /// Newest rendered metricsz page (a full kMetricsz stream frame) and
    /// the collect sequence it was rendered at. Carried forward across
    /// ticks (rendering is on demand); null until first requested.
    std::shared_ptr<const std::string> metricsz;
    std::uint64_t metricsz_seq = 0;
  };

  struct Client {
    int fd = -1;
    std::shared_ptr<const std::string> out;  // the ONE in-flight frame
    std::size_t off = 0;
    std::uint64_t sent_seq = 0;  // newest frame fully handed to out
    std::uint64_t sent_regver = 0;
    std::uint64_t sent_frames = 0;  // its group's GroupTick::frames then
    std::uint64_t acked_seq = 0;
    std::string inbuf;  // partial ack/control bytes
    /// The client's filter group; the pass-all group until a SUBSCRIBE
    /// moves it. Never null once the client is adopted.
    std::shared_ptr<FilterGroup> group;
    bool force_full = false;  // RESYNC or filter change pending
    bool shm_offer_pending = false;  // SHM_REQUEST seen; offer next
    /// SHM_ACCEPT seen: the ring carries this client's data frames; we
    /// send nothing per tick (force_full still goes over TCP — that is
    /// the overrun-recovery path).
    bool shm_consuming = false;
    /// Ack-deadline eviction clock (ServerOptions::ack_deadline_ticks).
    /// Armed (at the then-current pub.seq) when the client is owed
    /// frames; re-armed on any progress (ack advance, partial-write
    /// drain); disarmed when nothing is owed. 0 = disarmed.
    std::uint64_t ack_wait_since = 0;
    std::uint64_t ack_wait_acked = 0;  // acked_seq when armed
    std::size_t ack_wait_off = 0;      // in-flight drain offset when armed
    /// Self-metrics bookkeeping: "ip:port" of the peer (the
    /// top_talkers label) and cumulative bytes flushed to it — monotone
    /// by construction, so the top-k max-register fold is exact.
    std::string peer;
    std::uint64_t bytes_flushed = 0;
    /// kMetricszRequest pending: set when the control record is read,
    /// served once a metricsz page rendered at or after the request
    /// (req_seq = pub.seq at the first service round that saw it).
    bool metricsz_pending = false;
    std::uint64_t metricsz_req_seq = 0;
  };

  struct Worker {
    std::thread thread;
    int wake_fds[2] = {-1, -1};  // [0] poll side, [1] ring side
    std::mutex inbox_mutex;
    std::vector<int> inbox;  // accepted fds awaiting adoption
    std::vector<Client> clients;  // worker-thread-owned
    std::atomic<std::uint64_t> min_acked{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> cpu_ns{0};  // this thread's CPU so far
  };

  void close_pipes_and_listener() {
    for (auto& worker : workers_) {
      for (int& fd : worker->wake_fds) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      std::lock_guard lock(worker->inbox_mutex);
      for (int fd : worker->inbox) ::close(fd);
      worker->inbox.clear();
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

  void wake(Worker& worker) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(worker.wake_fds[1], &byte, 1);
  }

  void collector_loop() {
    t_wpid = 0;  // the collector's slot in the obs wpid space
    // collector_cpu_ns accumulates this thread's CPU since the last
    // count, so it stays monotonic across restarts (each run has a
    // fresh thread) and sums when several servers share one block.
    std::uint64_t cpu_counted = 0;
    const auto count_cpu = [&] {
      const std::uint64_t cpu = thread_cpu_ns();
      if (cpu <= cpu_counted) return;
      counters_->collector_cpu_ns.fetch_add(cpu - cpu_counted,
                                            std::memory_order_relaxed);
      cpu_counted = cpu;
    };
    std::vector<DeltaRef> changed;
    std::vector<DeltaRef> group_subset;  // per-group intersect scratch
    std::uint64_t prev_seq = 0;
    // Metricsz page carried forward tick to tick (rendered on demand).
    std::shared_ptr<const std::string> metricsz_cache;
    std::uint64_t metricsz_cache_seq = 0;
    std::string metricsz_text;  // render scratch
    while (running_.load(std::memory_order_acquire)) {
      const auto tick_start = std::chrono::steady_clock::now();
      // The aggregator's published frame, shared by pointer with every
      // consumer below — never copied.
      const std::shared_ptr<const shard::TelemetryFrame> shared =
          hooks_.collect();
      const shard::TelemetryFrame& frame = *shared;
      const auto collect_done = std::chrono::steady_clock::now();
      const std::uint64_t collect_ns = steady_now_ns();
      PublishedFrame pub;
      pub.seq = frame.sequence;
      // The changed walk names every row this frame changed since
      // prev_seq; each filter group's pass intersects it with its
      // selection. A create racing in since our pass shifts flat-table
      // indices; the walk then fails and this tick ships no deltas at
      // all — subscribers heal via full frames, and the next tick
      // re-collects under the new version. The collector is the
      // registry's only sequencer, so on success the rows it names are
      // exactly those this frame changed since prev_seq.
      bool changed_valid = false;
      if (prev_seq != 0) {
        changed_valid = hooks_.changed_since(prev_seq, frame.registry_version,
                                             nullptr, changed);
      }
      // Filter-group pass, BEFORE publication — and fully lock-free for
      // the workers: the collector reads the RCU-published group table
      // under an epoch guard and publishes ONE immutable GroupTick per
      // group (pointer swap; the superseded tick retires through the
      // epoch domain). One delta encode per group per tick, shared by
      // all its subscribers; a group whose subset did not change ships
      // a null delta (its basis stays put, so the next delta still
      // covers the quiet ticks) until a heartbeat is due. A group
      // created by a worker during this pass is simply absent from the
      // table we pinned — the NEXT pass seeds its basis, and its
      // subscribers' first filtered full lands at that pass or later,
      // so no delta ever skips a tick they saw. Encode buffers are
      // freshly allocated per tick and retired by refcount once the
      // last subscriber drains them: a slow reader holding tick N's
      // bytes never blocks (or races with) tick N+1's encode.
      {
        const base::EpochDomain::Guard eguard(epochs_);
        const GroupTable* table =
            group_table_.load(std::memory_order_acquire);
        for (const auto& [key, group] : table->by_key) {
          collector_group_pass(*group, shared, collect_ns, changed_valid,
                               changed, group_subset);
        }
      }
      // Reap tables/ticks whose grace period has passed — outside the
      // guard (our own pin would hold the horizon back).
      epochs_.reclaim();
      // The shm ring carries the pass-all group's frame: its tick delta,
      // or its full (encoded here, and cached for any TCP subscriber
      // that needs it this tick) on a tick without one — minus the u32le
      // stream prefix: ring slots carry their own length, and readers
      // hand the payload straight to the view. Counted before the write,
      // so the count is visible no later than the frame.
      if (shm_.active() && !ring_broken_.load(std::memory_order_relaxed)) {
        // Only the collector publishes ticks: a relaxed read of our own
        // store is exact, and the pass above just published one.
        const GroupTick& tick =
            *pass_all_->tick.load(std::memory_order_relaxed);
        const std::shared_ptr<const std::string> bytes =
            tick.delta ? tick.delta : cached_full(*pass_all_, tick);
        const std::string_view payload =
            std::string_view(*bytes).substr(kFramePrefixBytes);
        if (payload.size() <= shm_.slot_payload_bytes()) {
          counters_->shm_frames_published.fetch_add(1,
                                                    std::memory_order_relaxed);
          shm_.publish(payload);  // cannot fail: the ring is up and it fits
        } else {
          counters_->shm_publish_failures.fetch_add(1,
                                                    std::memory_order_relaxed);
          ring_broken_.store(true, std::memory_order_relaxed);
          trace(obs::TraceKind::kShmDemote, shm_.generation());
        }
      }
      const auto encode_done = std::chrono::steady_clock::now();
      // Metricsz exposition: rendered only when a kMetricszRequest came
      // in since the last render (on-demand; an idle server pays one
      // relaxed exchange per tick) — then carried forward in every
      // published frame until superseded.
      if (metricsz_wanted_.exchange(false, std::memory_order_relaxed)) {
        (void)obs::render_metricsz(frame.samples, trace_, metricsz_text);
        auto page = std::make_shared<std::string>();
        encode_metricsz_frame(frame.sequence, frame.registry_version,
                              collect_ns, metricsz_text, *page);
        metricsz_cache = std::move(page);
        metricsz_cache_seq = frame.sequence;
      }
      pub.metricsz = metricsz_cache;
      pub.metricsz_seq = metricsz_cache_seq;
      {
        std::lock_guard lock(published_mutex_);
        published_ = pub;
      }
      last_pub_seq_.store(pub.seq, std::memory_order_relaxed);
      last_pub_collect_ns_.store(collect_ns, std::memory_order_relaxed);
      counters_->frames_collected.fetch_add(1, std::memory_order_relaxed);
      for (auto& worker : workers_) wake(*worker);
      const auto flush_done = std::chrono::steady_clock::now();
      // The basis advances only past a tick whose changed walk
      // succeeded: a raced tick's changes must ride the next delta (the
      // walk from the older basis covers them), or filter groups, which
      // keep their basis through the raced tick, would never see them.
      if (prev_seq == 0 || changed_valid) prev_seq = frame.sequence;
      count_cpu();
      // Self-metrics: per-stage timings into the `__sys/` histograms
      // (next tick's collect pass picks them up, so the vitals ride the
      // very stream they describe).
      if (sys_on_) {
        const auto ns = [](auto duration) {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(duration)
                  .count());
        };
        sys_.tick_collect_ns->rec(0, ns(collect_done - tick_start));
        sys_.tick_encode_ns->rec(0, ns(encode_done - collect_done));
        sys_.tick_flush_ns->rec(0, ns(flush_done - encode_done));
      }
      // Slow-tick watchdog: the work above outran the period — the
      // serving cadence is slipping and subscribers will see coalesced
      // ticks. Counted (and traced) rather than "handled": the honest
      // response to overload is visibility, the next tick starts late.
      const auto deadline = tick_start + options_.period;
      const auto now = std::chrono::steady_clock::now();
      if (now > deadline) {
        counters_->ticks_overrun.fetch_add(1, std::memory_order_relaxed);
        trace(obs::TraceKind::kTickOverrun,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      now - tick_start)
                      .count()),
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      options_.period)
                      .count()));
      }
      // Sleep out the tick in slices of at most 1 ms so stop() stays
      // responsive. The last slice ends at the deadline instead of up to
      // a whole slice past it, so the tick length does not depend on how
      // much of the period the tick's work happened to use.
      for (auto t = std::chrono::steady_clock::now();
           running_.load(std::memory_order_acquire) && t < deadline;
           t = std::chrono::steady_clock::now()) {
        std::this_thread::sleep_until(
            std::min(deadline, t + std::chrono::milliseconds(1)));
      }
    }
    count_cpu();
  }

  void worker_loop(unsigned index) {
    t_wpid = 1 + index;  // this worker's slot in the obs wpid space
    Worker& worker = *workers_[index];
    std::vector<pollfd> pfds;
    std::vector<DeltaRef> changed_scratch;
    while (running_.load(std::memory_order_acquire)) {
      adopt_inbox(worker);
      pfds.clear();
      pfds.push_back({worker.wake_fds[0], POLLIN, 0});
      if (index == 0) pfds.push_back({listen_fd_, POLLIN, 0});
      const std::size_t base = pfds.size();
      for (const Client& client : worker.clients) {
        short events = POLLIN;
        if (client.out) events |= POLLOUT;
        pfds.push_back({client.fd, events, 0});
      }
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0 &&
          errno != EINTR) {
        break;
      }
      if (!running_.load(std::memory_order_acquire)) break;
      if (pfds[0].revents & POLLIN) drain_wake(worker);
      if (index == 0 && (pfds[1].revents & POLLIN)) accept_clients();
      // Clients accepted just now (possibly into our own inbox) join
      // this round: they sit beyond the pfds snapshot and are serviced
      // by the tail loop below.
      adopt_inbox(worker);
      const PublishedFrame pub = [&] {
        std::lock_guard lock(published_mutex_);
        return published_;
      }();
      for (std::size_t i = 0; i < worker.clients.size() &&
                              base + i < pfds.size();
           ++i) {
        Client& client = worker.clients[i];
        const short revents = pfds[base + i].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          close_client(client);
          continue;
        }
        if ((revents & POLLIN) && !read_inbound(client)) {
          close_client(client);
          continue;
        }
        service_client(client, pub, changed_scratch);
      }
      // Clients adopted this round (beyond the pfds snapshot) get their
      // first frame immediately rather than next tick.
      for (std::size_t i = pfds.size() - base; i < worker.clients.size();
           ++i) {
        service_client(worker.clients[i], pub, changed_scratch);
      }
      std::erase_if(worker.clients,
                    [](const Client& client) { return client.fd < 0; });
      publish_min_acked(worker);
      worker.cpu_ns.store(thread_cpu_ns(), std::memory_order_relaxed);
    }
    for (Client& client : worker.clients) {
      if (client.fd >= 0) ::close(client.fd);
      drop_inflight(client);  // keep the gauge exact across stop()
    }
    worker.clients.clear();
    // Retire this thread's CPU into the durable sum (stats() adds live
    // workers' cpu_ns on top; zero ours first so it never double
    // counts).
    worker.cpu_ns.store(0, std::memory_order_relaxed);
    retired_io_cpu_ns_.fetch_add(thread_cpu_ns(), std::memory_order_relaxed);
  }

  /// Adopts accepted connections; each joins the pass-all group.
  void adopt_inbox(Worker& worker) {
    std::lock_guard lock(worker.inbox_mutex);
    if (worker.inbox.empty()) return;
    std::lock_guard wlock(groups_writer_mutex_);
    for (int fd : worker.inbox) {
      Client client;
      client.fd = fd;
      client.peer = peer_label(fd);
      client.group = pass_all_;
      ++pass_all_->refs;
      worker.clients.push_back(std::move(client));
    }
    worker.inbox.clear();
  }

  /// "ip:port" of the connected peer — the top_talkers row label.
  static std::string peer_label(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        addr.sin_family != AF_INET) {
      return "fd:" + std::to_string(fd);
    }
    char ip[INET_ADDRSTRLEN] = {0};
    if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip)) == nullptr) {
      return "fd:" + std::to_string(fd);
    }
    return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
  }

  void drain_wake(Worker& worker) {
    char buf[64];
    while (::read(worker.wake_fds[0], buf, sizeof(buf)) > 0) {
    }
  }

  void accept_clients() {
    while (true) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        // Fd exhaustion leaves the pending connection queued and the
        // listener readable, so poll() would return immediately and
        // spin this worker at 100% CPU; back off until an fd frees up.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        break;  // EAGAIN / transient
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options_.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf,
                     sizeof(options_.sndbuf));
      }
      counters_->clients_accepted.fetch_add(1, std::memory_order_relaxed);
      trace(obs::TraceKind::kClientConnect,
            static_cast<std::uint64_t>(fd));
      Worker& target =
          *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                    workers_.size()];
      {
        std::lock_guard lock(target.inbox_mutex);
        target.inbox.push_back(fd);
      }
      wake(target);
    }
  }

  /// Hands `frame` to the client as its ONE in-flight buffer (the
  /// backpressure invariant guarantees none is pending) and maintains
  /// the fleet-wide frames_in_flight gauge — the refcount-pinning
  /// evidence the eviction proof drains to zero.
  void set_inflight(Client& client,
                    std::shared_ptr<const std::string> frame) {
    client.out = std::move(frame);
    client.off = 0;
    counters_->frames_in_flight.fetch_add(1, std::memory_order_relaxed);
  }

  void drop_inflight(Client& client) {
    if (!client.out) return;
    client.out.reset();
    client.off = 0;
    counters_->frames_in_flight.fetch_sub(1, std::memory_order_relaxed);
  }

  /// The ack-deadline eviction check (ServerOptions::ack_deadline_ticks;
  /// runs per client per service round, after the flush attempt). True
  /// when the client was evicted (and closed). The predicate is "owed
  /// AND stalled": a peer holding an undrained in-flight buffer or
  /// unacked fully-sent frames, with neither its acked_seq nor its
  /// partial-write offset moving for the deadline's worth of ticks, is
  /// half-open or frozen — close it so its socket and pinned
  /// shared-encode refcount come back. A slow-but-live reader resets
  /// the clock on every ack or drained byte; an shm consumer never
  /// acks by design and is exempt; a caught-up subscriber of a quiet
  /// group owes nothing and is disarmed.
  bool evict_if_ack_stalled(Client& client, const PublishedFrame& pub) {
    if (options_.ack_deadline_ticks == 0 || pub.seq == 0) return false;
    if (client.shm_consuming) {
      client.ack_wait_since = 0;
      return false;
    }
    const bool owed =
        client.out != nullptr || client.sent_seq > client.acked_seq;
    if (!owed) {
      client.ack_wait_since = 0;
      return false;
    }
    const bool progressed =
        client.acked_seq > client.ack_wait_acked ||
        (client.out != nullptr && client.off > client.ack_wait_off);
    if (client.ack_wait_since == 0 || progressed) {
      client.ack_wait_since = pub.seq;
      client.ack_wait_acked = client.acked_seq;
      client.ack_wait_off = client.out ? client.off : 0;
      return false;
    }
    if (pub.seq - client.ack_wait_since < options_.ack_deadline_ticks) {
      return false;
    }
    counters_->clients_evicted_idle.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kClientEvict,
          static_cast<std::uint64_t>(client.fd),
          (pub.seq - client.ack_wait_since) *
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      options_.period)
                      .count()));
    close_client(client);
    return true;
  }

  void close_client(Client& client) {
    if (client.fd < 0) return;
    const int fd = client.fd;
    ::close(client.fd);
    client.fd = -1;
    drop_inflight(client);
    {
      std::lock_guard wlock(groups_writer_mutex_);
      release_group_writer_locked(client);
    }
    counters_->clients_closed.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kClientDisconnect, static_cast<std::uint64_t>(fd));
  }

  /// Caller holds groups_writer_mutex_. Drops the client's group ref;
  /// the last ref republishes the table without the group (never the
  /// pass-all group's: the server holds a ref to it).
  void release_group_writer_locked(Client& client) {
    if (--client.group->refs == 0) {
      const GroupTable* table =
          group_table_.load(std::memory_order_relaxed);
      auto next = std::make_unique<GroupTable>(*table);
      next->by_key.erase(client.group->key);
      publish_table_writer_locked(std::move(next));
    }
    client.group.reset();
  }

  /// Caller holds groups_writer_mutex_. Swaps the published table in
  /// and retires the superseded one through the epoch domain (the
  /// collector's pass may still hold it pinned).
  void publish_table_writer_locked(std::unique_ptr<GroupTable> next) {
    const GroupTable* old =
        group_table_.exchange(next.release(), std::memory_order_acq_rel);
    if (old != nullptr) epochs_.retire(old);
  }

  /// Moves the client onto `filter`'s group (a pass-all filter finds the
  /// pass-all group by its key) and schedules the re-basing full.
  /// Membership changes are the RARE writer path of the RCU scheme:
  /// serialized on groups_writer_mutex_, they copy the current table
  /// (shared_ptr values — O(groups) pointer copies), edit the copy off
  /// to the side and publish it by pointer swap. Readers — the
  /// collector's pass and workers snapshotting ticks — never wait here.
  void apply_subscription(Client& client, SubscriptionFilter filter) {
    std::lock_guard wlock(groups_writer_mutex_);
    release_group_writer_locked(client);
    const GroupTable* table = group_table_.load(std::memory_order_relaxed);
    std::string key = filter.canonical_key();
    auto it = table->by_key.find(key);
    if (it != table->by_key.end()) {
      ++it->second->refs;
      client.group = it->second;
    } else {
      // A fresh group enters the table with no tick: the collector's
      // next pass seeds its basis at that pass's sequence, and its
      // subscribers' first filtered full lands at or after it — no
      // delta ever skips a tick they saw.
      auto group = std::make_shared<FilterGroup>();
      group->key = key;
      group->filter = std::move(filter);
      group->refs = 1;
      client.group = group;
      auto next = std::make_unique<GroupTable>(*table);
      next->by_key.emplace(std::move(key), std::move(group));
      publish_table_writer_locked(std::move(next));
    }
    client.sent_frames = 0;  // a new group's stream: nothing skipped yet
    trace(obs::TraceKind::kSubscribe, static_cast<std::uint64_t>(client.fd),
          client.group->refs);
    client.force_full = true;
  }

  /// Parses complete inbound records — { kAckByte, seq } acks (v1) and
  /// kControlByte-framed SUBSCRIBE/RESYNC control frames (v2) — out of
  /// the client's buffered bytes. False = EOF / error / protocol
  /// violation: close.
  bool read_inbound(Client& client) {
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
      if (n == 0) return false;  // orderly EOF
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      client.inbuf.append(buf, static_cast<std::size_t>(n));
    }
    while (!client.inbuf.empty()) {
      const unsigned char type = static_cast<unsigned char>(client.inbuf[0]);
      if (type == kAckByte) {
        const char* cursor = client.inbuf.data() + 1;
        const char* const end = client.inbuf.data() + client.inbuf.size();
        std::uint64_t seq = 0;
        if (!read_uvarint(&cursor, end, seq)) {
          // Truncated varint: wait for more bytes — unless the buffer
          // already holds a full-size record, which makes it malformed.
          return client.inbuf.size() < kMaxAckBytes;
        }
        client.acked_seq = std::max(client.acked_seq, seq);
        counters_->acks_received.fetch_add(1, std::memory_order_relaxed);
        if (sys_on_) {
          // Apply-lag proxy: collect-stamp → ack-receipt for the newest
          // published frame (older acks are skipped — their stamp is
          // gone; the racy seq/ns pair is at worst one tick stale,
          // noise at histogram granularity).
          if (seq != 0 &&
              seq == last_pub_seq_.load(std::memory_order_relaxed)) {
            const std::uint64_t collected =
                last_pub_collect_ns_.load(std::memory_order_relaxed);
            const std::uint64_t now = steady_now_ns();
            if (now > collected) {
              sys_.apply_lag_ns->rec(t_wpid, now - collected);
            }
          }
        }
        client.inbuf.erase(0, static_cast<std::size_t>(cursor -
                                                       client.inbuf.data()));
        continue;
      }
      if (type == kControlByte) {
        if (client.inbuf.size() < kControlPrefixBytes) return true;  // wait
        const std::uint64_t len = read_u32le(client.inbuf.data() + 1);
        if (len > kMaxControlPayload) return false;  // lying length
        if (client.inbuf.size() < kControlPrefixBytes + len) return true;
        ControlFrame control;
        if (!decode_control_payload(
                std::string_view(client.inbuf.data() + kControlPrefixBytes,
                                 static_cast<std::size_t>(len)),
                control)) {
          return false;  // malformed control frame
        }
        if (control.kind == FrameKind::kSubscribe) {
          apply_subscription(client, std::move(control.filter));
          // A subscription moves the client's data path back to TCP
          // entirely: the ring carries only the pass-all group's frames,
          // and the client detached before sending SUBSCRIBE.
          client.shm_consuming = false;
          counters_->subscribes_received.fetch_add(1,
                                                   std::memory_order_relaxed);
        } else if (control.kind == FrameKind::kMetricszRequest) {
          // Solicited exposition: flag the client and ask the collector
          // to render at its next tick; service_client ships the page
          // once one rendered at/after the request.
          client.metricsz_pending = true;
          metricsz_wanted_.store(true, std::memory_order_relaxed);
        } else if (control.kind == FrameKind::kShmRequest) {
          counters_->shm_requests_received.fetch_add(1,
                                                     std::memory_order_relaxed);
          // No ring (disabled, create failed, broken): silently ignore
          // — the requester simply stays on TCP. A FILTERED subscriber
          // is likewise never offered the ring: the ring carries only
          // the pass-all group's frames, whose indices would misdecode
          // against the client's subset name table (see README's
          // transport section for the per-group-ring upgrade path).
          if (shm_offer_frame_ && client.group->filter.pass_all() &&
              !ring_broken_.load(std::memory_order_relaxed)) {
            client.shm_offer_pending = true;
          }
        } else if (control.kind == FrameKind::kShmAccept) {
          // Generation must match OUR ring: a stale accept (e.g. raced
          // with a ring break) keeps the client on TCP. Same filtered-
          // subscriber guard as the offer: an accept that raced with a
          // SUBSCRIBE must not move a filtered client onto the ring.
          if (shm_.active() && client.group->filter.pass_all() &&
              !ring_broken_.load(std::memory_order_relaxed) &&
              control.shm_generation == shm_.generation()) {
            client.shm_consuming = true;
            counters_->shm_accepts_received.fetch_add(
                1, std::memory_order_relaxed);
            trace(obs::TraceKind::kShmAccept,
                  static_cast<std::uint64_t>(client.fd),
                  control.shm_generation);
          }
        } else {
          client.force_full = true;  // RESYNC: full at the next service
          // A RESYNC from a ring consumer means it lost the ring's
          // delta chain (overrun, corrupt slot): demote it to TCP so
          // deltas flow again after the recovery full. While the view
          // trails the ring, every ring delta is a future-gap skip —
          // only a live TCP stream can walk the view forward to where
          // the ring's chain picks it up. The client re-ACCEPTs once a
          // ring frame applies cleanly again, which re-freezes this
          // stream (sent_seq stays stale-low for the next demotion).
          client.shm_consuming = false;
          counters_->resyncs_received.fetch_add(1, std::memory_order_relaxed);
          trace(obs::TraceKind::kResync,
                static_cast<std::uint64_t>(client.fd));
        }
        client.inbuf.erase(0, kControlPrefixBytes +
                                  static_cast<std::size_t>(len));
        continue;
      }
      return false;  // not speaking our protocol
    }
    return true;
  }

  /// Drains the in-flight buffer; true when fully written (or nothing
  /// pending), false when blocked or the client closed.
  bool flush(Client& client) {
    if (!client.out) return true;
    while (client.off < client.out->size()) {
      const ssize_t n =
          ::send(client.fd, client.out->data() + client.off,
                 client.out->size() - client.off, MSG_NOSIGNAL);
      if (n > 0) {
        client.off += static_cast<std::size_t>(n);
        counters_->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                        std::memory_order_relaxed);
        client.bytes_flushed += static_cast<std::uint64_t>(n);
        if (sys_on_) {
          // Cumulative per-peer bytes only grow, so the max-register
          // fold keeps the directory exact.
          sys_.top_talkers->offer(t_wpid, client.peer, client.bytes_flushed);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n < 0 && errno == EINTR) continue;
      close_client(client);  // error, or the impossible 0-byte send
      return false;
    }
    drop_inflight(client);
    return true;
  }

  /// The backpressure policy (see server.hpp): finish the in-flight
  /// frame; once drained, hand the client the NEWEST frame in the
  /// cheapest applicable encoding.
  void service_client(Client& client, const PublishedFrame& pub,
                      std::vector<DeltaRef>& changed_scratch) {
    if (client.fd < 0) return;
    const bool drained = flush(client);
    if (client.fd < 0) return;
    // The eviction clock runs whether or not the flush is blocked — a
    // half-open peer IS a permanently blocked flush.
    if (evict_if_ack_stalled(client, pub)) return;
    if (!drained) return;  // blocked mid-frame
    if (client.shm_offer_pending) {
      // The offer rides the data channel — framed like a data frame, it
      // lands between frames, never splitting one.
      client.shm_offer_pending = false;
      if (shm_offer_frame_ && client.group->filter.pass_all() &&
          !ring_broken_.load(std::memory_order_relaxed)) {
        set_inflight(client, shm_offer_frame_);
        counters_->shm_offers_sent.fetch_add(1, std::memory_order_relaxed);
        trace(obs::TraceKind::kShmOffer,
              static_cast<std::uint64_t>(client.fd), shm_.generation());
        flush(client);
        return;
      }
    }
    // A pending metricsz page rides the data channel between frames,
    // exactly like an shm offer — and is served to every client state
    // (shm consumers and filtered subscribers keep their control TCP).
    if (client.metricsz_pending) {
      if (client.metricsz_req_seq == 0) {
        client.metricsz_req_seq = pub.seq == 0 ? 1 : pub.seq;
      }
      if (pub.metricsz && pub.metricsz_seq >= client.metricsz_req_seq) {
        client.metricsz_pending = false;
        client.metricsz_req_seq = 0;
        set_inflight(client, pub.metricsz);
        flush(client);
        return;
      }
    }
    if (pub.seq == 0) return;
    if (client.shm_consuming) {
      if (ring_broken_.load(std::memory_order_relaxed)) {
        // Demote back to TCP. Safe mid-stream: sent_seq was frozen at
        // the last TCP-sent frame (stale-low), so the catch-up below
        // re-covers ticks the ring already delivered — deltas carry
        // absolute values and apply idempotently. (An overrun RESYNC
        // demotes in read_inbound for the same reason; by the time
        // force_full is set this flag is already down.)
        client.shm_consuming = false;
      } else {
        return;  // data rides the ring: zero per-tick work here
      }
    }
    service_group(client, changed_scratch);
  }

  /// The one steady service path: the newest-frame/backpressure policy
  /// against the client's filter group, entirely lock-free on the steady
  /// path. The group's current GroupTick is snapshotted under an epoch
  /// guard (the shared_ptr copies extend every payload past the guard),
  /// then served without ever touching a mutex: a re-basing full when
  /// needed (the one rare path with a per-group cache mutex), the
  /// group's shared tick delta when in step, a per-client catch-up delta
  /// when lagged, and nothing at all while the subset is quiet.
  void service_group(Client& client, std::vector<DeltaRef>& changed_scratch) {
    GroupTick tick;
    {
      const base::EpochDomain::Guard eguard(epochs_);
      const GroupTick* current =
          client.group->tick.load(std::memory_order_acquire);
      if (current == nullptr) return;  // group born after the last pass
      tick = *current;
    }
    const std::uint64_t pass = tick.snapshot->sequence;  // the tick's pass
    // Re-base against the group's WIRE label, not the raw registry
    // version: a create outside the subset bumps the registry but not
    // wire_regver, so in-step subscribers keep streaming deltas instead
    // of all taking a filtered full.
    if (client.force_full || client.sent_seq == 0 ||
        client.sent_regver != tick.wire_regver) {
      // A new subscriber, a table change, a failed catch-up walk, or a
      // RESYNC / re-subscribe (a fresh full now, no waiting for a table
      // change): the tick's full, always of a strictly newer pass.
      if (pass <= client.sent_seq) return;  // re-base next tick
      count_coalesced(client, tick);
      set_inflight(client, cached_full(*client.group, tick));
      client.sent_seq = pass;
      client.sent_regver = tick.wire_regver;
      client.force_full = false;
      counters_->full_frames_sent.fetch_add(1, std::memory_order_relaxed);
      flush(client);
      return;
    }
    if (tick.sent_seq <= client.sent_seq) return;  // subset quiet: nothing
    if (tick.delta && tick.delta_base <= client.sent_seq) {
      // In step (or covered): the group's one shared encode this tick.
      // Its label matches the client's (checked above), and it is newer
      // than the client's frame: a delta moves the basis to `pass`.
      set_inflight(client, std::move(tick.delta));
      client.sent_seq = pass;
      client.sent_frames = tick.frames;
      counters_->delta_frames_sent.fetch_add(1, std::memory_order_relaxed);
      flush(client);
      return;
    }
    // Lagged below the shared delta's basis: a per-client catch-up of
    // what moved in its subset since its last fully-sent frame, walked
    // against the tick's published selection — coherent with its
    // sel_regver (and the tick's frame) by construction — and encoded
    // from the tick's frame under the group's pinned wire version, the
    // index space of the client's table, carrying the frame's sequence
    // and stamp. The walk's version guard rejects it if the registry
    // has moved past that version (a create shifted the flat indices);
    // the full path heals the client next round. The walk may see later
    // passes, and that is safe: changed_seq only grows, so
    // `changed_seq > sent_seq` names every row that moved in
    // (sent_seq, pass]; an extra row ships its frame value, which the
    // client already holds, so applying it is idempotent.
    if (!hooks_.changed_since(client.sent_seq, tick.sel_regver,
                              tick.selection.get(), changed_scratch)) {
      client.force_full = true;
      return;
    }
    count_coalesced(client, tick);
    auto delta = std::make_shared<std::string>();
    encode_delta_frame(*tick.snapshot, tick.wire_regver, tick.collect_ns,
                       client.sent_seq, changed_scratch, *delta);
    set_inflight(client, std::move(delta));
    client.sent_seq = pass;
    counters_->catchup_deltas_sent.fetch_add(1, std::memory_order_relaxed);
    flush(client);
  }

  /// A client taking a catch-up or a re-basing full instead of its
  /// group's shared delta skipped the group's frames in between (a
  /// suppressed quiet tick is no frame, so it is not counted).
  void count_coalesced(Client& client, const GroupTick& tick) {
    if (client.sent_frames != 0 && tick.frames > client.sent_frames + 1) {
      counters_->frames_coalesced.fetch_add(
          tick.frames - client.sent_frames - 1, std::memory_order_relaxed);
    }
    client.sent_frames = tick.frames;
  }

  /// The group's full frame of `tick` — the tick's frame filtered by its
  /// selection (every row for the pass-all group) and labeled with its
  /// wire version — encoding it at most once per pass no matter how
  /// many takers need it. A taker holding an older pass's tick (it raced
  /// the next publication) gets a fresh encode of that tick; the cache
  /// keeps the newest pass. The inputs come from ONE published tick, so
  /// the (frame, selection, label, stamp) tuple is coherent by
  /// construction.
  std::shared_ptr<const std::string> cached_full(FilterGroup& group,
                                                 const GroupTick& tick) {
    FullCache& cache = group.full;
    const shard::TelemetryFrame& frame = *tick.snapshot;
    std::lock_guard lock(cache.mutex);
    if (cache.full && cache.seq == frame.sequence) return cache.full;
    auto buf = std::make_shared<std::string>();
    encode_full_frame_filtered(frame, *tick.selection, tick.collect_ns,
                               tick.wire_regver, *buf);
    auto& encodes = group.filter.pass_all()
                        ? counters_->unfiltered_full_encodes
                        : counters_->filtered_full_encodes;
    encodes.fetch_add(1, std::memory_order_relaxed);
    if (frame.sequence >= cache.seq) {
      cache.full = buf;
      cache.seq = frame.sequence;
    }
    return buf;
  }

  /// Rebuilds the group's flat-index selection when the registry's
  /// name table moved. Returns true when the SUBSET itself changed —
  /// and then bumps the group's pinned wire_regver, which re-bases its
  /// subscribers. The registry is append-only and its name table
  /// name-sorted, so a fixed filter's subset can only grow: an
  /// unchanged selection SIZE across a version bump means an unchanged
  /// subset (names and order), merely shifted flat indices — the pin
  /// that lets disjoint creates leave the group's stream untouched.
  /// Every version bump adds a row, so the pass-all group's selection
  /// grows on each: its wire_regver is always the registry version.
  /// Collector thread only (the fields are collector-private; workers
  /// see the immutable copies published in GroupTicks).
  bool ensure_selection(FilterGroup& group,
                        const shard::TelemetryFrame& frame) {
    if (group.sel_regver == frame.registry_version) return false;
    auto selection = std::make_shared<std::vector<std::uint64_t>>();
    for (std::size_t i = 0; i < frame.samples.size(); ++i) {
      if (group.filter.matches(frame.samples[i].name)) {
        selection->push_back(i);
      }
    }
    const bool subset_changed =
        !group.selection || selection->size() != group.selection->size();
    group.selection = std::move(selection);
    group.sel_regver = frame.registry_version;
    if (subset_changed) group.wire_regver = frame.registry_version;
    return subset_changed;
  }

  /// The collector's per-tick, per-group pass: maintains the group's
  /// selection against the tick's registry version, intersects the
  /// tick's changed rows with it and, when the subset moved (or a
  /// heartbeat is due), encodes the ONE delta every in-step subscriber
  /// of the group will share — then publishes it all as this pass's
  /// immutable GroupTick (RCU pointer swap; the superseded tick retires
  /// through the epoch domain). The pass-all group never suppresses a
  /// quiet tick: v1 clients and the shm ring's dead-writer probe rely on
  /// a frame every tick. Collector thread only.
  void collector_group_pass(
      FilterGroup& group,
      const std::shared_ptr<const shard::TelemetryFrame>& snapshot,
      std::uint64_t collect_ns, bool changed_valid,
      const std::vector<DeltaRef>& changed, std::vector<DeltaRef>& subset) {
    const shard::TelemetryFrame& frame = *snapshot;
    // Only the collector publishes ticks, so a relaxed read of our own
    // last store is exact.
    const bool first_pass =
        group.tick.load(std::memory_order_relaxed) == nullptr;
    const bool rebased = ensure_selection(group, frame);
    const bool pass_all = group.filter.pass_all();
    std::shared_ptr<const std::string> delta;
    std::uint64_t delta_base = 0;
    if (first_pass || rebased) {
      // First pass establishes the basis; a re-base (a create landed IN
      // the subset: wire_regver just bumped) resets it — every
      // subscriber takes a filtered full from this tick.
      group.sent_seq = frame.sequence;
      group.ticks_suppressed = 0;
      ++group.frames;
    } else if (!changed_valid) {
      // The changed walk was unusable this tick (registry version raced
      // the collect): ship nothing and keep the basis — the next delta
      // still covers this tick, and re-basing subscribers heal via the
      // tick's full.
    } else {
      // A selection of every row (the pass-all group's) maps each row
      // to itself, so its subset is the changed walk as it stands.
      const std::vector<std::uint64_t>& selection = *group.selection;
      const bool every_row = selection.size() == frame.samples.size();
      if (!every_row) {
        subset.clear();
        // Both sides ascend by flat index: one two-pointer pass over
        // plain integers. Matches keep their flat row (the encoder reads
        // it from the frame) and take their SUBSET position as the wire
        // index — the filtered table's index space.
        std::size_t ci = 0;
        std::size_t si = 0;
        while (ci < changed.size() && si < selection.size()) {
          if (changed[ci].flat < selection[si]) {
            ++ci;
          } else if (changed[ci].flat > selection[si]) {
            ++si;
          } else {
            subset.push_back({si, selection[si]});
            ++ci;
            ++si;
          }
        }
      }
      const std::vector<DeltaRef>& rows = every_row ? changed : subset;
      if (rows.empty() && !pass_all &&
          ++group.ticks_suppressed < options_.group_heartbeat_ticks) {
        // Quiet subset: ship nothing this tick (basis stays put).
        counters_->group_deltas_suppressed.fetch_add(1,
                                                     std::memory_order_relaxed);
      } else {
        auto buf = std::make_shared<std::string>();
        // Labeled with the group's pinned wire version (== the registry
        // version of its subscribers' tables), NOT the raw registry
        // version: across disjoint creates the stream keeps flowing
        // under the old label and nobody re-bases.
        encode_delta_frame(frame, group.wire_regver, collect_ns,
                           group.sent_seq, rows, *buf);
        delta = std::move(buf);
        delta_base = group.sent_seq;
        group.sent_seq = frame.sequence;
        group.ticks_suppressed = 0;
        ++group.frames;
        if (!pass_all) {
          counters_->filtered_delta_encodes.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
    }
    auto* tick = new GroupTick{.collect_ns = collect_ns,
                               .wire_regver = group.wire_regver,
                               .sent_seq = group.sent_seq,
                               .delta = std::move(delta),
                               .delta_base = delta_base,
                               .frames = group.frames,
                               .snapshot = snapshot,
                               .selection = group.selection,
                               .sel_regver = group.sel_regver};
    // Publish the fully built tick, then retire the one it replaces —
    // a worker may still hold it pinned under an epoch guard.
    const GroupTick* old =
        group.tick.exchange(tick, std::memory_order_acq_rel);
    if (old != nullptr) epochs_.retire(old);
  }

  void publish_min_acked(Worker& worker) {
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (const Client& client : worker.clients) {
      floor = std::min(floor, client.acked_seq);
    }
    worker.min_acked.store(floor, std::memory_order_relaxed);
  }

  ServerOptions options_;
  Hooks hooks_;
  mutable std::mutex lifecycle_mutex_;  // start/stop/stats (see start())
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread collector_;
  std::atomic<unsigned> next_worker_{0};
  std::mutex published_mutex_;
  PublishedFrame published_;
  /// The pass-all group (see FilterGroup), built in start() and dropped
  /// in stop(); threads only run in between, so they read it lock-free.
  std::shared_ptr<FilterGroup> pass_all_;
  /// Filter groups, keyed by canonical filter (wire v2), RCU-published:
  /// the current immutable GroupTable hangs off this atomic pointer.
  /// Readers — the collector's pass and (indirectly, via the per-group
  /// tick pointers) the workers — pin with an epoch guard and never
  /// block; membership changes are the rare writer path: serialized on
  /// groups_writer_mutex_, they build the next table off to the side
  /// and swap, retiring the old one through epochs_. Client::group
  /// pointers are worker-thread-owned shared_ptrs that keep a group
  /// alive independently of table turnover.
  std::mutex groups_writer_mutex_;
  std::atomic<const GroupTable*> group_table_{nullptr};
  /// Epoch domain for everything RCU-published here (tables and group
  /// ticks). The collector drives reclaim() once per tick; stop()
  /// drains the backlog after the joins.
  base::EpochDomain epochs_;
  /// The one place each event is counted (obs/self_metrics.hpp): this
  /// server's own block, or the registry's when self_metrics armed it.
  std::shared_ptr<obs::ServerCounters> counters_ =
      std::make_shared<obs::ServerCounters>();
  std::atomic<std::uint64_t> retired_io_cpu_ns_{0};  // exited workers' sum
  /// The shm snapshot ring (wire v3). shm_ and shm_offer_frame_ are
  /// (re)built in start() before any thread spawns and torn down in
  /// stop() after every join, so the collector publishes through shm_
  /// and workers read shm_offer_frame_ without locks.
  ShmRingWriter shm_;
  std::shared_ptr<const std::string> shm_offer_frame_;
  /// Latched when a frame outgrows its slot: a ring reader could never
  /// decode past the gap, so the ring is done for this run — offers
  /// stop and accepted clients are demoted back to TCP.
  std::atomic<bool> ring_broken_{false};
  // --- Self-observability (src/obs) ---------------------------------
  /// Privileged handles into the registry's `__sys/server.*` histograms
  /// and top-k; sys_on_ iff the catalog is armed (set_instruments before
  /// start()). The counters need no handle: their rows read counters_.
  obs::ServerInstruments sys_{};
  bool sys_on_ = false;
  /// Flight recorder; null = tracing off. Not owned.
  obs::TraceRing* trace_ = nullptr;
  /// Set by any worker that read a kMetricszRequest; the collector
  /// exchanges it down and renders one page for every waiter.
  std::atomic<bool> metricsz_wanted_{false};
  /// Newest published (seq, collect stamp) pair for the apply-lag
  /// proxy: two relaxed loads per ack instead of published_mutex_. The
  /// pair can be torn across a tick boundary — at worst one tick of
  /// skew in a histogram sample, which the bucket width swallows.
  std::atomic<std::uint64_t> last_pub_seq_{0};
  std::atomic<std::uint64_t> last_pub_collect_ns_{0};
};

}  // namespace detail

template <typename Backend>
  requires(!Backend::kInstrumented)
SnapshotServerT<Backend>::SnapshotServerT(
    const shard::RegistryT<Backend>& registry, unsigned pid,
    ServerOptions options)
    : aggregator_(registry, pid, /*sequenced=*/true), registry_(registry) {
  typename detail::ServerCore::Hooks hooks;
  hooks.collect = [this] { return aggregator_.collect_shared(); };
  hooks.changed_since = [this](std::uint64_t since, std::uint64_t version,
                               const std::vector<std::uint64_t>* selection,
                               std::vector<DeltaRef>& out) {
    out.clear();
    if (selection == nullptr) {
      return registry_
          .for_each_changed_since(since, version,
                                  [&out](std::size_t index, auto&&...) {
                                    out.push_back({index, index});
                                  })
          .has_value();
    }
    return registry_
        .for_each_changed_since_filtered(
            since, version, *selection,
            [&out](std::size_t wire, std::size_t flat, auto&&...) {
              out.push_back({wire, flat});
            })
        .has_value();
  };
  core_ = std::make_unique<detail::ServerCore>(options, std::move(hooks));
}

template <typename Backend>
  requires(!Backend::kInstrumented)
SnapshotServerT<Backend>::SnapshotServerT(shard::RegistryT<Backend>& registry,
                                          unsigned pid, ServerOptions options)
    : SnapshotServerT(
          static_cast<const shard::RegistryT<Backend>&>(registry), pid,
          options) {
  if (options.self_metrics) {
    core_->set_instruments(
        obs::install_self_metrics(registry, options.io_threads));
  }
}

template <typename Backend>
  requires(!Backend::kInstrumented)
SnapshotServerT<Backend>::~SnapshotServerT() {
  stop();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
bool SnapshotServerT<Backend>::start() {
  return core_->start();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
void SnapshotServerT<Backend>::stop() {
  core_->stop();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
std::uint16_t SnapshotServerT<Backend>::port() const {
  return core_->port();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
ServerStats SnapshotServerT<Backend>::stats() const {
  return core_->stats();
}

template class SnapshotServerT<base::DirectBackend>;
template class SnapshotServerT<base::RelaxedDirectBackend>;

}  // namespace approx::svc
