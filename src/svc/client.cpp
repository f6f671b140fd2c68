// client.cpp — TelemetryClient stream pump (see client.hpp).
#include "svc/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/trace_ring.hpp"
#include "svc/server.hpp"  // kAckByte

namespace approx::svc {
namespace {

/// Upper bound on one frame payload; anything larger is a corrupt
/// length prefix, not a fleet we serve (a million counters with 64-byte
/// names is still an order of magnitude below this).
constexpr std::uint64_t kMaxFramePayload = 1ull << 28;

/// Consecutive frozen-head doorbell timeouts required (with the idle
/// deadline elapsed) before the ring writer is declared dead. A small
/// floor so one long park straddling a scheduler hiccup cannot demote
/// by itself; the deadline carries the real semantics.
constexpr std::uint32_t kRingIdleStrikeMin = 3;

}  // namespace

TelemetryClient::~TelemetryClient() { close(); }

void TelemetryClient::flush_outbox() {
  if (fd_ < 0 || outbox_.empty()) return;
  const ssize_t n = ::send(fd_, outbox_.data(), outbox_.size(), MSG_NOSIGNAL);
  if (n > 0) outbox_.erase(0, static_cast<std::size_t>(n));
  // n <= 0 (EAGAIN or error): keep the bytes; read-path handling owns
  // real socket errors.
}

bool TelemetryClient::queue_record(std::string_view record) {
  // The outbound stream must never desync: a HALF-written record would
  // make the server read the next record's type byte as a varint
  // continuation byte and close us as a protocol violator. So records
  // are appended whole to the outbox and the outbox drains in order —
  // whole records or nothing ever reach the wire. Control records
  // (subscribe/resync) are always queued; acks are dropped instead when
  // the outbox is jammed (send_ack), merely dulling min_acked_seq.
  if (fd_ < 0) return false;
  outbox_.append(record);
  flush_outbox();
  return true;
}

void TelemetryClient::send_ack(std::uint64_t sequence) {
  flush_outbox();
  if (!outbox_.empty()) return;  // jammed; skip this ack (best-effort)
  std::string record;
  record.push_back(static_cast<char>(kAckByte));
  append_uvarint(record, sequence);
  queue_record(record);
}

bool TelemetryClient::subscribe(const SubscriptionFilter& filter) {
  if (fd_ < 0) return false;
  std::string record;
  if (!encode_subscribe_record(filter, record)) return false;
  if (ring_.mapped()) {
    // A filtered stream cannot ride the (unfiltered) ring, so drop it —
    // and the VIEW with it: the ring may have advanced the view past
    // anything the server ever sent this socket, and the coming subset
    // deltas must not land on an unfiltered table. The re-basing
    // filtered full rebuilds from scratch.
    ring_.close();
    view_ = MaterializedView{};
  }
  shm_requested_ = false;
  subscribed_filter_ = filter;
  subscribed_filter_.normalize();
  rebase_guard_armed_ = true;
  rebase_floor_seq_ = view_.sequence();
  view_.expect_rebase();
  return queue_record(record);
}

bool TelemetryClient::request_resync() {
  if (fd_ < 0) return false;
  if (trace_ != nullptr) {
    trace_->record(obs::TraceKind::kResync, static_cast<std::uint64_t>(fd_));
  }
  std::string record;
  encode_resync_record(record);
  rebase_guard_armed_ = true;
  rebase_floor_seq_ = view_.sequence();
  view_.expect_rebase();
  return queue_record(record);
}

bool TelemetryClient::request_shm() {
  if (fd_ < 0) return false;
  std::string record;
  encode_shm_request_record(record);
  shm_requested_ = true;
  return queue_record(record);
}

void TelemetryClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // The ring's liveness is tied to this connection (the server unlinks
  // it on stop, and recovery needs the control channel anyway).
  ring_.close();
  shm_requested_ = false;
}

bool TelemetryClient::connect(std::uint16_t port, const std::string& host,
                              int rcvbuf) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  // A (re)connection starts unfiltered: the server knows nothing of a
  // previous socket's subscription. The VIEW must restart too — its
  // table may be a previous subscription's subset, and the new
  // stream's first full can carry the same (registry_version,
  // sequence) the old stream reached, which the replay guard would
  // stale-skip: unfiltered delta indices would then land on (or past)
  // the stale subset table. A fresh view has no table to misapply to.
  view_ = MaterializedView{};
  subscribed_filter_ = SubscriptionFilter{};
  rebase_guard_armed_ = false;
  if (rcvbuf > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Non-blocking from here on: poll_frame() multiplexes reads against
  // its deadline.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  buf_.clear();
  outbox_.clear();
  return true;
}

bool TelemetryClient::record_applied(std::uint64_t frames_before,
                                     std::uint64_t fulls_before,
                                     std::size_t wire_bytes, bool via_ring) {
  if (view_.frames_applied() <= frames_before) {
    return false;  // stale skip or kNeedFull: not the awaited frame
  }
  const bool was_full = view_.full_frames() > fulls_before;
  if (via_ring) {
    ++shm_frames_;
    shm_frame_bytes_ += wire_bytes;
  } else if (was_full) {
    full_frame_bytes_ += wire_bytes;
  } else {
    delta_frame_bytes_ += wire_bytes;
  }
  if (was_full && rebase_guard_armed_) {
    // The view auto-clears rebase_pending on any full; only accept the
    // all-clear if this full can actually be the awaited re-base
    // (newer than the view was at arm time and a table the subscribed
    // filter admits) — otherwise it is a pre-request full that was
    // already in flight: re-arm.
    bool satisfied = view_.sequence() > rebase_floor_seq_;
    if (satisfied) {
      for (const shard::Sample& sample : view_.samples()) {
        if (!subscribed_filter_.matches(sample.name)) {
          satisfied = false;
          break;
        }
      }
    }
    if (satisfied) {
      rebase_guard_armed_ = false;
    } else {
      view_.expect_rebase();
    }
  }
  if (view_.last_collect_ns() != 0) {
    const std::uint64_t now = steady_now_ns();
    last_latency_ns_ =
        now > view_.last_collect_ns() ? now - view_.last_collect_ns() : 0;
  }
  // Ring frames are not acked: the server does no per-reader work for
  // them, and that is the point.
  if (!via_ring) send_ack(view_.sequence());
  return true;
}

bool TelemetryClient::poll_frame(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return false;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // Doorbell read BEFORE the ring pump: if a frame lands after the
    // pump comes up empty, the doorbell no longer holds this value and
    // the wait below returns immediately instead of sleeping past it.
    const std::uint32_t doorbell_seen = ring_.doorbell();
    // The ring drains first: at steady state it IS the data path, and
    // everything it yields costs zero syscalls.
    while (ring_.mapped()) {
      const base::RingPoll rp = ring_.poll(ring_scratch_);
      if (rp == base::RingPoll::kEmpty) break;
      if (rp == base::RingPoll::kOverrun) {
        // Lapped (or adopted mid-wrap): skip to the freshest frames
        // and let TCP heal the gap. The RESYNC also demotes us
        // server-side — TCP deltas resume after the recovery full,
        // because until the view catches up to the ring's delta chain
        // every ring frame is a future-gap skip. Once one applies,
        // re-ACCEPT below to re-freeze the TCP stream.
        ring_.skip_to_head();
        ++shm_overruns_;
        if (trace_ != nullptr) {
          trace_->record(obs::TraceKind::kShmOverrun, ring_.generation());
        }
        ring_accept_pending_ = true;
        request_resync();
        break;
      }
      if (rp == base::RingPoll::kDead) {
        ring_.close();  // writer re-formatted or gone: back to TCP
        break;
      }
      const std::uint64_t frames_before = view_.frames_applied();
      const std::uint64_t fulls_before = view_.full_frames();
      const ApplyResult result = view_.apply(ring_scratch_);
      if (result == ApplyResult::kCorrupt) {
        // A torn read shows as kOverrun, so corrupt BYTES mean the
        // writer published something the view cannot parse; stop
        // trusting the ring — TCP still speaks the protocol.
        ring_.close();
        request_resync();
        break;
      }
      if (record_applied(frames_before, fulls_before, ring_scratch_.size(),
                         /*via_ring=*/true)) {
        if (ring_accept_pending_) {
          // The ring has demonstrably delivered (adoption) or
          // re-aligned (overrun recovery): tell the server to stop
          // mirroring data onto TCP (idempotent server-side).
          ring_accept_pending_ = false;
          std::string record;
          encode_shm_accept_record(ring_.generation(), record);
          queue_record(record);
          flush_outbox();
        }
        return true;
      }
      // Stale skip or kNeedFull: keep pumping.
    }
    // Consume every complete TCP frame already buffered.
    while (buf_.size() >= kFramePrefixBytes) {
      const std::uint64_t payload_len = read_u32le(buf_.data());
      if (payload_len > kMaxFramePayload) {
        close();
        return false;  // corrupt length prefix; resync is impossible
      }
      if (buf_.size() < kFramePrefixBytes + payload_len) break;
      const std::string_view payload(buf_.data() + kFramePrefixBytes,
                                     static_cast<std::size_t>(payload_len));
      const std::size_t wire_bytes = kFramePrefixBytes + payload.size();
      if (shm_requested_) {
        // The awaited SHM_OFFER rides the data channel; it must be
        // intercepted here (the view rejects v3 frames as corrupt).
        // decode_shm_offer is strict — anything else falls through to
        // the view untouched.
        ShmOffer offer;
        if (decode_shm_offer(payload, offer)) {
          buf_.erase(0, wire_bytes);
          shm_requested_ = false;
          if (ring_.open(offer.name, offer.generation)) {
            // Adopt from the head: older slots predate what TCP
            // already delivered. The ACCEPT is NOT sent yet — it
            // freezes our TCP stream server-side, and the ring's
            // delta chain only picks the view up once TCP has walked
            // it to the ring's current sequence. Accepting first
            // would strand both paths (frozen TCP, every ring delta
            // a future gap) if no TCP delta lands in between. The
            // ring pump sends it on the first frame that APPLIES.
            ring_.skip_to_head();
            ring_accept_pending_ = true;
            ring_last_head_ = ring_.head();
            ring_last_progress_ns_ = steady_now_ns();
            ring_idle_strikes_ = 0;
          }
          // Open failure (stale offer, restarted server): stay on TCP.
          continue;
        }
      }
      const std::uint64_t frames_before = view_.frames_applied();
      const std::uint64_t fulls_before = view_.full_frames();
      const ApplyResult result = view_.apply(payload);
      buf_.erase(0, wire_bytes);
      if (result == ApplyResult::kCorrupt) {
        close();
        return false;
      }
      if (record_applied(frames_before, fulls_before, wire_bytes,
                         /*via_ring=*/false)) {
        return true;
      }
      // Stale skip or kNeedFull: keep pumping until something advances
      // the view or the deadline passes.
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    flush_outbox();  // drain queued control records / ack tails
    if (ring_.mapped()) {
      // While the ring is the data path, the DOORBELL is the wait: the
      // socket cannot announce ring frames, so the park happens on the
      // futex, which the writer rings per tick. The steady state costs
      // ONE syscall per frame (the park); the socket is probed without
      // blocking only when the outbox has an unsent tail, on every 8th
      // wake (bounds how long control bytes — a recovery full after an
      // overrun — can queue behind a busy ring), and whenever the
      // doorbell goes quiet (EOF must still surface; the 100 ms slice
      // bounds how long a dead server can hide it).
      const bool probe =
          !outbox_.empty() || ((ring_wait_count_++ & 0x7) == 0);
      if (probe) {
        const std::size_t buffered = buf_.size();
        if (!drain_socket(0)) return false;
        if (buf_.size() > buffered) continue;  // control bytes: process
      }
      if (!ring_.wait(doorbell_seen,
                      std::min(remaining, std::chrono::milliseconds(100)))) {
        if (!drain_socket(0)) return false;  // quiet ring: probe now
        // Dead-writer probe: the doorbell cannot distinguish a quiet
        // fleet from a dead writer (a SIGSTOP'd or exited server
        // leaves generation AND head frozen, so poll() keeps saying
        // kEmpty forever). A healthy writer publishes every tick, so a
        // head frozen across kRingIdleStrikeMin consecutive timeouts
        // for the full idle deadline means the writer is gone: demote
        // to TCP (close the ring, RESYNC for a fresh full). If TCP is
        // dead too, the next drain/poll surfaces it and the caller's
        // reconnect supervisor takes the final rung.
        const std::uint64_t head = ring_.head();
        const std::uint64_t now_ns = steady_now_ns();
        if (head != ring_last_head_) {
          ring_last_head_ = head;
          ring_last_progress_ns_ = now_ns;
          ring_idle_strikes_ = 0;
        } else if (++ring_idle_strikes_ >= kRingIdleStrikeMin &&
                   ring_idle_deadline_.count() > 0 &&
                   now_ns - ring_last_progress_ns_ >=
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               ring_idle_deadline_)
                               .count())) {
          ++shm_demotions_;
          if (trace_ != nullptr) {
            trace_->record(obs::TraceKind::kShmDemote, ring_.generation());
          }
          ring_.close();
          ring_accept_pending_ = false;
          request_resync();
        }
      }
      continue;
    }
    if (!drain_socket(static_cast<int>(remaining.count()) + 1)) return false;
  }
}

bool TelemetryClient::drain_socket(int wait_ms) {
  pollfd pfd{fd_, static_cast<short>(outbox_.empty() ? POLLIN
                                                     : POLLIN | POLLOUT),
             0};
  const int rc = ::poll(&pfd, 1, wait_ms);
  if (rc < 0 && errno != EINTR) {
    close();
    return false;
  }
  if (rc <= 0) return true;  // timeout slice or EINTR
  if (pfd.revents & POLLOUT) flush_outbox();
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      bytes_received_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n == 0) {
      close();  // server went away
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close();
    return false;
  }
  return true;
}

}  // namespace approx::svc
