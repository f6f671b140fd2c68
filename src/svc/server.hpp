// server.hpp — SnapshotServer: the registry behind a network facade.
//
// The fifth layer's serving half. A SnapshotServer owns one background
// aggregator over a counter registry and fans its frames out to TCP
// subscribers on the loopback interface:
//
//   * collector thread — every `period`, one sequenced aggregator pass
//     (collect_shared: a recycled frame, filled once and published
//     as-is — no frame copy anywhere; the pass feeds the registry's
//     changed-since tracking), then one changed walk (row indices
//     only) and, per filter group, ONE delta encode shared by every
//     up-to-date subscriber of the group, read straight from the
//     frame, which every group's tick holds by pointer. A group's full
//     frame is encoded lazily, at most once per tick and only when
//     something takes it — a new or re-basing subscriber, a RESYNC, a
//     failed catch-up walk, or the shm ring on a tick without a
//     pass-all delta. Encoded byte buffers are freshly allocated and
//     retired by refcount when the last subscriber drains them, so a
//     slow reader holding an old tick's bytes never blocks the next
//     encode.
//
//   * N I/O worker threads — a non-blocking poll() loop each, over a
//     share of the subscriber sockets plus a self-pipe the collector
//     rings every tick. Worker 0 also polls the listening socket and
//     deals accepted connections round-robin.
//
//   * per-client backpressure — each subscriber has AT MOST one
//     in-flight encoded frame (partial writes keep an offset; POLLOUT
//     resumes them) and no queue. A subscriber that drains slower than
//     the tick rate simply skips frames: when its buffer drains the
//     worker hands it the NEWEST frame — as its group's shared delta if
//     it is exactly one frame behind, as a per-client catch-up delta
//     (rows changed since its last fully-sent sequence) if it lagged
//     but the name table is unchanged, or as the full frame otherwise. Memory
//     per client is O(one frame) regardless of how slow it reads;
//     nobody is disconnected for being slow.
//
//   * acks — subscribers send { 0xAC, seq:uvarint } after applying a
//     frame; the server tracks the fleet-wide acked floor as
//     observability (ServerStats::min_acked_seq), TCP already
//     guaranteeing delivery of fully-written frames, and an ack
//     advance is what tells a live reader from a dead one once its
//     frames are fully written (ServerOptions::ack_deadline_ticks), so
//     a TCP subscriber that never acks is evicted. Unknown inbound
//     bytes are a protocol error and close that subscriber.
//
//   * filter groups and the control channel (wire v2) — every
//     subscriber is in exactly one *filter group* (keyed by the
//     filter's canonical form). A new connection joins the pass-all
//     group, which the server holds for its whole run: its selection
//     is every row, so its frames are the v1 stream byte for byte, and
//     it ships a frame every tick. A v1 client never sends control
//     records and stays there. A SUBSCRIBE (wire.hpp) moves the client
//     to its filter's group, and from the next tick it receives only
//     the matching subset — a filtered full re-bases its name table,
//     then group-shared filtered deltas. Identically-filtered
//     subscribers share the group's one delta encode per tick (pinned
//     by ServerStats::filtered_delta_encodes), and a tick on which a
//     filtered group's subset did not change ships nothing to it
//     (ServerStats::group_deltas_suppressed) until a heartbeat is due
//     (ServerOptions::group_heartbeat_ticks) — a selective subscriber's
//     receive cost scales with its subset's activity, not the fleet's.
//     A RESYNC short-circuits the "wait for the next table change"
//     path: the client's next frame is a fresh full of its current
//     subset, at the next tick at the latest.
//
//   * shared-memory ring (wire v3) — when ServerOptions::shm_enable,
//     the collector also publishes the pass-all group's frame of each
//     tick (its delta, else its full) into a seqlock shm ring
//     (base/seqlock_ring.hpp via svc/shm.hpp). A same-host client
//     sends SHM_REQUEST, receives SHM_OFFER (segment name, generation,
//     geometry) on its data stream, maps the segment read-only and
//     confirms with SHM_ACCEPT — from then on the server sends it no
//     per-tick data frames (zero per-reader syscalls AND zero
//     per-reader server work; the swarm's cost no longer scales with
//     its size), while its TCP connection stays up for control,
//     liveness and recovery: an overrun reader RESYNCs and the full
//     goes over TCP; a SUBSCRIBE moves the client back to (filtered)
//     TCP frames entirely. Only pass-all clients are offered the ring.
//     Remote and declining clients never notice.
//
// A catch-up delta is encoded from the published frame and carries its
// sequence and collect stamp; the registry's version-guarded changed
// walk names its rows. If a create shifted the name-table indices since
// the frame was published, the walk refuses and the subscriber gets a
// full frame instead (a delta against the wrong table would silently
// misapply values).
//
// The server binds 127.0.0.1 only: the facade is an in-host scrape/
// stream endpoint (sidecar, dashboard, load generator), not an
// authenticated public service.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "base/backend.hpp"
#include "obs/self_metrics.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "svc/wire.hpp"

namespace approx::obs {
class TraceRing;
}  // namespace approx::obs

namespace approx::svc {

/// Inbound ack record type byte (followed by one uvarint sequence).
inline constexpr unsigned char kAckByte = 0xAC;

struct ServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; port() reports the choice
  unsigned io_threads = 2;
  std::chrono::milliseconds period{20};  // collect/broadcast tick
  /// Per-subscriber SO_SNDBUF in bytes; 0 keeps the kernel default.
  /// Tests shrink it to force the backpressure/coalescing path without
  /// megabytes of loopback buffering in the way.
  int sndbuf = 0;
  /// A filtered group whose subset did not change ships nothing — except
  /// one empty-delta heartbeat after this many consecutive suppressed
  /// ticks (liveness + sequence advance for its subscribers). Minimum 1
  /// (1 = heartbeat every tick, the pass-all group's v1 cadence).
  unsigned group_heartbeat_ticks = 16;
  /// Shared-memory snapshot ring (wire v3, see shm.hpp): when enabled
  /// the collector also publishes each tick's pass-all frame into a
  /// POSIX shm ring, and same-host clients that SHM_REQUEST it consume
  /// frames with zero syscalls and zero server-side per-reader work.
  /// Disabling (or a host without /dev/shm — create failure is
  /// tolerated) simply leaves everyone on TCP. The ring is
  /// shm_slots × (shm_slot_bytes + 88) bytes of /dev/shm; a frame that
  /// outgrows a slot permanently breaks the ring for this run (offers
  /// stop, accepted clients are demoted to TCP) — size slots for the
  /// fleet's full frame.
  bool shm_enable = true;
  std::uint32_t shm_slots = 64;
  std::uint64_t shm_slot_bytes = 64 * 1024;
  /// Ack-deadline eviction: a subscriber that is OWED frames (an
  /// in-flight buffer it will not drain, or fully-sent frames it never
  /// acked) and shows no progress — no ack advance, no partial-write
  /// drain — for this many consecutive collector ticks is closed
  /// (ServerStats::clients_evicted_idle), releasing its socket and its
  /// pinned retired-encode refcount. Half-open TCP peers and SIGSTOP'd
  /// readers die within `ack_deadline_ticks × period`; a merely SLOW
  /// reader keeps resetting the clock with every ack or drained byte
  /// and is never evicted. Shm-consuming clients are exempt (they ack
  /// nothing by design; ring liveness is the client's job), as are
  /// idle-but-owed-nothing subscribers of a quiet filter group.
  /// 0 disables eviction (the pre-v5 behavior). Default 250 ticks
  /// (5 s at the default 20 ms period).
  unsigned ack_deadline_ticks = 250;
  /// Flight recorder (src/obs): when non-null the server records one
  /// structured event per resilience-ladder decision (accept, evict,
  /// subscribe, shm offer/accept/demote, tick overrun, …) into this
  /// ring — wait-free, allocation-free, cheap enough to leave on. The
  /// ring must outlive the server. Null: no tracing (the default).
  obs::TraceRing* trace = nullptr;
  /// Self-metrics (src/obs): when true — requires the non-const
  /// registry constructor — the server installs the `__sys/server.*`
  /// catalog into the registry it serves and keeps it live: one exact
  /// row per ServerStats counter (a read-only view of the very counter
  /// stats() copies, so a row and its field always agree), per-stage
  /// tick timing histograms and a top-talker directory then ride the
  /// standard wire like any fleet entry (subscribe with a `__sys/`
  /// prefix filter), and the kind-7/kind-8 metricsz exchange renders
  /// them as text. Off by default: the rows add changed entries to every
  /// pass-all frame, and a server over a const registry cannot (and
  /// does not) self-report. Counting itself costs the same either way.
  bool self_metrics = false;
};

/// A server's counters so far, plus two figures read from its
/// workers. stats() may be called from any thread at any time (it is
/// serialized against start()/stop() internally); while the server runs
/// the counters are a racy-but-coherent snapshot, exact once stop()
/// returned.
///
/// The inherited fields are a copy of the block the server counts each
/// event into once (obs::ServerCountersT), the same block its
/// `__sys/server.*` rows read. A server without self_metrics owns its
/// block. With self_metrics the block belongs to the registry: the
/// first server armed over it creates the block, and every later server
/// over that registry counts into the same one — its stats continue the
/// registry's `__sys/` totals rather than starting from zero.
struct ServerStats : obs::ServerCountersT<std::uint64_t> {
  std::uint64_t min_acked_seq = 0;  // slowest subscriber's acked frame
  /// CPU time (CLOCK_THREAD_CPUTIME_ID, ns) summed over the I/O workers
  /// so far. With collector_cpu_ns, the shm scaling evidence:
  /// per-subscriber work lives here, and a ring consumer adds none (E19
  /// pins server CPU flat in shm-swarm size).
  std::uint64_t io_cpu_ns = 0;
};

namespace detail {
class ServerCore;
}  // namespace detail

/// Serves one registry. Uninstrumented backends only — the collector and
/// I/O threads are real OS threads outside any sim scheduler, exactly
/// like AggregatorT's background mode.
template <typename Backend>
  requires(!Backend::kInstrumented)
class SnapshotServerT {
 public:
  /// @param registry fleet to serve (must outlive the server).
  /// @param pid dedicated aggregation slot in the registry's pid space;
  ///   no worker may share it (one thread per pid, repo-wide).
  SnapshotServerT(const shard::RegistryT<Backend>& registry, unsigned pid,
                  ServerOptions options = {});

  /// Mutable-registry overload: additionally honors
  /// ServerOptions::self_metrics by installing the `__sys/server.*`
  /// self-observability catalog into `registry` before serving begins
  /// (the const overload ignores that flag — it cannot create entries).
  SnapshotServerT(shard::RegistryT<Backend>& registry, unsigned pid,
                  ServerOptions options = {});
  ~SnapshotServerT();

  SnapshotServerT(const SnapshotServerT&) = delete;
  SnapshotServerT& operator=(const SnapshotServerT&) = delete;

  /// Binds, listens and spawns the collector + I/O threads. False if the
  /// socket setup failed (port in use, fd limits); the server is then
  /// inert and start() may be retried with different options.
  bool start();

  /// Stops all threads and closes every socket. Idempotent.
  void stop();

  /// The bound TCP port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] ServerStats stats() const;

  /// The serving aggregator (e.g. to await frames_collected() ≥ N).
  [[nodiscard]] const shard::AggregatorT<Backend>& aggregator() const {
    return aggregator_;
  }

 private:
  shard::AggregatorT<Backend> aggregator_;
  const shard::RegistryT<Backend>& registry_;
  std::unique_ptr<detail::ServerCore> core_;
};

using SnapshotServer = SnapshotServerT<base::DirectBackend>;
using RelaxedSnapshotServer = SnapshotServerT<base::RelaxedDirectBackend>;

extern template class SnapshotServerT<base::DirectBackend>;
extern template class SnapshotServerT<base::RelaxedDirectBackend>;

}  // namespace approx::svc
