// Tests for the snapshot server + client (src/svc/server.hpp,
// src/svc/client.hpp): real loopback sockets, real threads
// (DirectBackend — the server's collector and I/O workers live outside
// any sim scheduler, like AggregatorT's background mode).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/backend.hpp"
#include "shard/registry.hpp"
#include "stats/histogram.hpp"
#include "stats/topk.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace approx::svc {
namespace {

using namespace std::chrono_literals;
using shard::ErrorModel;

/// Generous per-frame wait: CI sanitizer builds are slow.
constexpr auto kFrameTimeout = 5s;

/// Polls until the named counter's decoded value reaches `expected`
/// (exact counters only). False on timeout.
bool await_value(TelemetryClient& client, const std::string& name,
                 std::uint64_t expected, int max_frames = 400) {
  for (int i = 0; i < max_frames; ++i) {
    if (!client.poll_frame(kFrameTimeout)) return false;
    for (const shard::Sample& sample : client.view().samples()) {
      if (sample.name == name && sample.value >= expected) return true;
    }
  }
  return false;
}

TEST(SnapshotServer, StartStopIdempotentAndPortAssigned) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  SnapshotServer server(registry, 1);
  ASSERT_TRUE(server.start());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());  // already running: no-op success
  const std::uint16_t port = server.port();
  // A second server on the same explicit port must fail cleanly...
  ServerOptions clash;
  clash.port = port;
  shard::RegistryT<base::DirectBackend> other(2);
  SnapshotServerT<base::DirectBackend> loser(other, 1, clash);
  EXPECT_FALSE(loser.start());
  server.stop();
  server.stop();  // idempotent
  // ...and succeed once the port is free again (SO_REUSEADDR).
  EXPECT_TRUE(loser.start());
  loser.stop();
}

TEST(SnapshotServer, SubscriberSeesFullThenDeltasAndLiveValues) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 2});
  shard::AnyCounter& rate =
      registry.create("rate", {ErrorModel::kMultiplicative, 2, 2});
  for (int i = 0; i < 42; ++i) hits.increment(0);
  for (int i = 0; i < 10; ++i) rate.increment(0);

  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  // First frame is always a full: complete self-describing name table.
  EXPECT_EQ(client.view().full_frames(), 1u);
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_EQ(client.view().samples()[0].name, "hits");
  EXPECT_EQ(client.view().samples()[0].value, 42u);
  EXPECT_EQ(client.view().samples()[0].model, ErrorModel::kExact);
  EXPECT_EQ(client.view().samples()[1].name, "rate");
  EXPECT_EQ(client.view().samples()[1].model, ErrorModel::kMultiplicative);
  EXPECT_EQ(client.view().samples()[1].error_bound, 2u);

  // Live increments flow through; steady-state frames arrive as deltas.
  for (int i = 0; i < 8; ++i) hits.increment(1);
  EXPECT_TRUE(await_value(client, "hits", 50));
  EXPECT_GE(client.view().delta_frames(), 1u);
  EXPECT_GT(client.view().sequence(), 1u);
  EXPECT_GT(client.last_latency_ns(), 0u);

  server.stop();
  // Server shutdown surfaces as a clean disconnect, not a hang.
  while (client.poll_frame(100ms)) {
  }
  EXPECT_FALSE(client.connected());
}

TEST(SnapshotServer, UnchangedFleetStreamsEmptyDeltaHeartbeats) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  c.increment(0);
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));  // the full
  const std::uint64_t entries_after_full = client.view().entries_updated();
  const std::uint64_t seq_after_full = client.view().sequence();
  // Nobody increments: further frames advance the sequence (the
  // liveness heartbeat) without carrying a single entry.
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  EXPECT_GT(client.view().sequence(), seq_after_full);
  EXPECT_GE(client.view().delta_frames(), 2u);
  EXPECT_EQ(client.view().entries_updated(), entries_after_full);
  server.stop();
}

TEST(SnapshotServer, RegistryGrowthForcesAFreshFullFrame) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("first", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_EQ(client.view().samples().size(), 1u);
  const std::uint64_t version_before = client.view().registry_version();

  registry.create("second", {ErrorModel::kAdditive, 8, 2});
  for (int i = 0; i < 200 && client.view().samples().size() < 2; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_NE(client.view().registry_version(), version_before);
  EXPECT_GE(client.view().full_frames(), 2u);  // table change ⇒ new full
  EXPECT_EQ(client.view().samples()[1].name, "second");
  EXPECT_EQ(client.view().samples()[1].error_bound, 16u);  // S·k composed
  server.stop();
}

TEST(SnapshotServer, SixtyFourConcurrentSubscribersAllProgress) {
  // The acceptance bar: ≥ 64 concurrent subscribers, nobody dropped.
  constexpr unsigned kSubscribers = 64;
  constexpr int kFramesEach = 3;
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& load =
      registry.create("load", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 10ms;
  options.io_threads = 4;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      load.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::vector<std::thread> subscribers;
  for (unsigned i = 0; i < kSubscribers; ++i) {
    subscribers.emplace_back([&] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      for (int f = 0; f < kFramesEach; ++f) {
        if (!client.poll_frame(kFrameTimeout)) return;
      }
      if (client.connected() && !client.view().samples().empty() &&
          client.view().sequence() > 0) {
        happy.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_EQ(happy.load(), kSubscribers) << "a subscriber stalled or dropped";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_accepted, kSubscribers);
  // Nobody was dropped by the server mid-test: every close so far was
  // client-initiated after its frames (≤ kSubscribers), never a forced
  // disconnect that would strand a reader before its 3 frames.
  EXPECT_GE(stats.full_frames_sent, static_cast<std::uint64_t>(kSubscribers));
  EXPECT_GT(stats.delta_frames_sent + stats.catchup_deltas_sent, 0u);
  server.stop();
}

TEST(SnapshotServer, SlowReaderIsCoalescedNotDisconnectedNotBuffered) {
  // Backpressure: a subscriber that stops reading while the fleet churns
  // must neither be disconnected nor have every missed frame queued —
  // when it finally drains, it jumps to the newest frame (coalescing).
  // A tiny SO_SNDBUF makes the kernel buffer fill within a few frames.
  shard::RegistryT<base::DirectBackend> registry(2);
  std::vector<shard::AnyCounter*> fleet;
  for (int i = 0; i < 256; ++i) {
    fleet.push_back(&registry.create("counter_" + std::to_string(1000 + i),
                                     {ErrorModel::kExact, 0, 1}));
  }
  ServerOptions options;
  options.period = 2ms;
  options.sndbuf = 4096;  // a frame is 2–5 KB: the pipe jams in a few
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  // Small receive buffer too: otherwise ~100 frames hide in the
  // client-side kernel buffer and the server never feels backpressure.
  ASSERT_TRUE(client.connect(server.port(), "127.0.0.1", 4096));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  const std::uint64_t seq_before = client.view().sequence();

  // Go quiet for ~100 ticks while every counter changes every tick.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : fleet) counter->increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::this_thread::sleep_for(200ms);

  // Drain: the client must catch up to a recent frame in far fewer
  // frames than elapsed ticks (missed ones were coalesced, not queued).
  std::uint64_t frames_to_catch_up = 0;
  std::uint64_t newest = seq_before;
  for (int i = 0; i < 50; ++i) {
    if (!client.poll_frame(kFrameTimeout)) break;
    ++frames_to_catch_up;
    newest = client.view().sequence();
    const std::uint64_t server_seq = server.stats().frames_collected;
    if (server_seq > 0 && newest + 3 >= server_seq) break;  // caught up
  }
  stop.store(true, std::memory_order_release);
  churner.join();

  EXPECT_TRUE(client.connected()) << "slow reader was disconnected";
  EXPECT_GT(newest, seq_before);
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.frames_coalesced, 0u)
      << "server queued every frame instead of coalescing";
  EXPECT_GT(newest - seq_before, frames_to_catch_up)
      << "catch-up replayed every missed frame";
  server.stop();
}

TEST(SnapshotServer, AcksFeedObservability) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  for (int i = 0; i < 5; ++i) {
    c.increment(0);
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  // Acks travel on their own schedule; wait for the server to see some.
  for (int i = 0; i < 200 && server.stats().acks_received == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.acks_received, 0u);
  EXPECT_GT(stats.min_acked_seq, 0u);
  EXPECT_LE(stats.min_acked_seq, client.view().sequence());
  server.stop();
}

TEST(SnapshotServer, FilteredSubscriberTracksSubsetLive) {
  // Wire v2: SUBSCRIBE re-bases the stream onto the filter's subset —
  // the view's table becomes exactly the matching counters and live
  // increments keep flowing; switching filters (including back to
  // pass-all) re-bases again.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  registry.create("hot_b", {ErrorModel::kExact, 0, 1});
  registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  registry.create("cold_y", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(client.subscribe(filter));
  EXPECT_TRUE(client.view().rebase_pending());
  // Pump until the re-basing filtered full lands: table = the subset.
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 2;
  }
  ASSERT_TRUE(rebased);
  EXPECT_EQ(client.view().samples()[0].name, "hot_a");
  EXPECT_EQ(client.view().samples()[1].name, "hot_b");

  // Live values keep flowing through subset deltas.
  const std::uint64_t seen = client.view().samples()[0].value;
  EXPECT_TRUE(await_value(client, "hot_a", seen + 5));
  EXPECT_GE(client.view().delta_frames(), 1u);

  // Back to pass-all: the next full restores the whole table.
  ASSERT_TRUE(client.subscribe(SubscriptionFilter{}));
  for (int i = 0; i < 400 && client.view().samples().size() != 4; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_EQ(client.view().samples().size(), 4u);
  stop.store(true, std::memory_order_release);
  incrementer.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscribes_received, 2u);
  server.stop();
}

TEST(SnapshotServer, IdenticallyFilteredSubscribersShareOneEncodePerTick) {
  // The per-filter-group encode cache: K subscribers with the same
  // filter cost at most ONE filtered delta encode per collector tick
  // (never one per subscriber), while each still receives its own copy.
  constexpr unsigned kSubscribers = 4;
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot =
      registry.create("grp_hot", {ErrorModel::kExact, 0, 1});
  for (int i = 0; i < 16; ++i) {
    registry.create("noise_" + std::to_string(10 + i),
                    {ErrorModel::kExact, 0, 1});
  }
  ServerOptions options;
  options.period = 10ms;
  options.io_threads = 2;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::vector<std::thread> subscribers;
  for (unsigned s = 0; s < kSubscribers; ++s) {
    subscribers.emplace_back([&] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      SubscriptionFilter filter;
      filter.prefixes = {"grp_"};
      if (!client.subscribe(filter)) return;
      // Pump until this subscriber has applied 10 subset deltas.
      for (int i = 0; i < 600 && client.view().delta_frames() < 10; ++i) {
        if (!client.poll_frame(kFrameTimeout)) return;
      }
      if (client.view().delta_frames() >= 10 &&
          client.view().samples().size() == 1 &&
          client.view().samples()[0].name == "grp_hot") {
        happy.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_EQ(happy.load(), kSubscribers);
  const ServerStats stats = server.stats();
  // The sharing pin: encodes are bounded by ticks (ONE per group per
  // tick), not by subscriber count — while the frames actually handed
  // out exceed the encodes (4 subscribers × ≥10 deltas each).
  EXPECT_LE(stats.filtered_delta_encodes, stats.frames_collected);
  EXPECT_GT(stats.delta_frames_sent, stats.filtered_delta_encodes)
      << "every subscriber paid its own encode: the group cache is dead";
  // Filtered fulls are cached per tick too: 4 identical subscribers
  // re-basing cost well under one encode each... unless they joined on
  // different ticks, which is why this bound is per-tick, not global.
  EXPECT_LE(stats.filtered_full_encodes, stats.frames_collected);
  server.stop();
}

TEST(SnapshotServer, ResyncProducesFreshFullWithinATick) {
  // Client-initiated recovery: after a stall (server coalescing away
  // missed ticks), request_resync() yields a fresh FULL frame promptly
  // — no registry table change required, no reconnect.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& churn =
      registry.create("churn", {ErrorModel::kExact, 0, 1});
  registry.create("steady", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      churn.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  const std::uint64_t version_before = client.view().registry_version();

  // Stall: ~40 ticks pass unread, then drain the buffered backlog so
  // the client is back in step (the resync latency bound below is
  // frames-after-resync, not backlog replay).
  std::this_thread::sleep_for(200ms);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t head = server.stats().frames_collected;
    if (head > 0 && client.view().sequence() + 2 >= head) break;
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  const std::uint64_t fulls_before = client.view().full_frames();

  ASSERT_TRUE(client.request_resync());
  EXPECT_TRUE(client.view().rebase_pending());
  // The fresh full must arrive within a few frames (deltas published
  // before the server processes the resync may land first), NOT after a
  // table change — the registry version never moved.
  bool resynced = false;
  int frames_until_full = 0;
  while (frames_until_full < 5 && !resynced) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    ++frames_until_full;
    resynced = client.view().full_frames() > fulls_before;
  }
  EXPECT_TRUE(resynced) << "no full within " << frames_until_full
                        << " frames of the resync";
  EXPECT_FALSE(client.view().rebase_pending());
  EXPECT_EQ(client.view().registry_version(), version_before)
      << "test bug: the full must not come from a table change";
  // And the full is FRESH: at the server's current head, not a replay.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.resyncs_received, 1u);
  EXPECT_GE(client.view().sequence() + 3, stats.frames_collected);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, OnePercentSubscriberGetsTenfoldFewerDeltaBytes) {
  // The fan-out acceptance bar: on a 48-counter fleet, a 1%-selectivity
  // subscriber (1 counter) must receive ≥ 10× fewer delta bytes than an
  // unfiltered one. The win compounds two effects: subset deltas carry
  // only the subscribed counter, and ticks on which the subset did not
  // move ship nothing (bounded by the heartbeat).
  constexpr int kBulkCounters = 47;  // + the target = the 48 fleet
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> bulk;
  for (int i = 0; i < kBulkCounters; ++i) {
    bulk.push_back(&registry.create("bulk_" + std::to_string(10 + i),
                                    {ErrorModel::kExact, 0, 1}));
  }
  shard::AnyCounter& target =
      registry.create("quiet_target", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.io_threads = 2;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  // Every bulk counter moves every tick; the target moves every ~25 ms
  // (~1 tick in 5).
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    unsigned iteration = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : bulk) counter->increment(0);
      if (++iteration % 25 == 0) target.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<bool> done{false};
  std::uint64_t unfiltered_bytes = 0;
  std::uint64_t filtered_bytes = 0;
  std::size_t filtered_table = 0;
  std::thread unfiltered([&] {
    TelemetryClient client;
    if (!client.connect(server.port())) return;
    while (!done.load(std::memory_order_acquire)) {
      client.poll_frame(50ms);
      if (!client.connected()) return;
    }
    unfiltered_bytes = client.delta_frame_bytes();
  });
  std::thread filtered([&] {
    TelemetryClient client;
    if (!client.connect(server.port())) return;
    SubscriptionFilter filter;
    filter.exact = {"quiet_target"};
    if (!client.subscribe(filter)) return;
    while (!done.load(std::memory_order_acquire)) {
      client.poll_frame(50ms);
      if (!client.connected()) return;
    }
    filtered_bytes = client.delta_frame_bytes();
    filtered_table = client.view().samples().size();
  });

  std::this_thread::sleep_for(1500ms);
  done.store(true, std::memory_order_release);
  unfiltered.join();
  filtered.join();
  stop.store(true, std::memory_order_release);
  churner.join();

  EXPECT_EQ(filtered_table, 1u);  // the subscription IS the table
  ASSERT_GT(unfiltered_bytes, 0u);
  ASSERT_GT(filtered_bytes, 0u);  // target moved: deltas did flow
  EXPECT_GE(unfiltered_bytes, 10 * filtered_bytes)
      << "unfiltered " << unfiltered_bytes << " B vs filtered "
      << filtered_bytes << " B";
  EXPECT_GT(server.stats().group_deltas_suppressed, 0u)
      << "quiet subset ticks should ship nothing";
  server.stop();
}

TEST(SnapshotServer, ReconnectWhileSubscribedStartsAFreshView) {
  // A reconnect resets the subscription server-side (new socket = new
  // unfiltered client); the client's view must restart too. If the old
  // subset table survived, the new stream's first full — possibly at
  // the same (registry_version, sequence) the old stream reached —
  // would be stale-skipped, and unfiltered delta indices would misapply
  // against the 2-entry subset table.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  registry.create("hot_b", {ErrorModel::kExact, 0, 1});
  registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(client.subscribe(filter));
  for (int i = 0; i < 400 && (client.view().rebase_pending() ||
                              client.view().samples().size() != 2);
       ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);

  // Reconnect immediately (same tick is the dangerous window).
  ASSERT_TRUE(client.connect(server.port()));
  EXPECT_EQ(client.view().sequence(), 0u);  // the view restarted
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  // First frame of the new stream is the unfiltered full fleet.
  EXPECT_EQ(client.view().samples().size(), 3u);
  // And the unfiltered delta stream keeps applying cleanly.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.view().samples().size(), 3u);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, MalformedControlRecordsCloseTheOffender) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient wellbehaved;
  ASSERT_TRUE(wellbehaved.connect(server.port()));
  ASSERT_TRUE(wellbehaved.poll_frame(kFrameTimeout));

  auto raw_connect = [&] {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  // A control record claiming an absurd payload length.
  int liar = raw_connect();
  ASSERT_GE(liar, 0);
  std::string huge;
  huge.push_back(static_cast<char>(kControlByte));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0x7F));
  ASSERT_GT(::send(liar, huge.data(), huge.size(), 0), 0);
  for (int i = 0; i < 200 && server.stats().clients_closed < 1; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 1u);

  // A correctly-framed control record with a garbage payload.
  int garbler = raw_connect();
  ASSERT_GE(garbler, 0);
  std::string garbage;
  garbage.push_back(static_cast<char>(kControlByte));
  garbage.push_back(4);
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.append("junk");
  ASSERT_GT(::send(garbler, garbage.data(), garbage.size(), 0), 0);
  for (int i = 0; i < 200 && server.stats().clients_closed < 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 2u);

  // The compliant subscriber lives on.
  EXPECT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  ::close(liar);
  ::close(garbler);
  server.stop();
}

TEST(SnapshotServer, GarbageInboundBytesCloseTheOffender) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient wellbehaved;
  ASSERT_TRUE(wellbehaved.connect(server.port()));
  ASSERT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  // A raw connection speaking the wrong protocol (an HTTP probe, say).
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(raw, garbage, sizeof(garbage) - 1, 0), 0);
  // The server closes the garbage speaker; the compliant ones live on.
  for (int i = 0; i < 200 && server.stats().clients_closed == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 1u);
  EXPECT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  ::close(raw);
  server.stop();
}

TEST(SnapshotServer, DisjointCreateLeavesFilterGroupStreamUntouched) {
  // Satellite regression: a registry create OUTSIDE a filter group's
  // subset must not interrupt the group — the append-only name-sorted
  // table means an unchanged selection size is an unchanged subset, so
  // the group keeps streaming deltas under its pinned wire version.
  // No re-basing filtered full, no full re-encode, no client rebase.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot =
      registry.create("grp_hot", {ErrorModel::kExact, 0, 1});
  registry.create("noise_0", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"grp_"};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  ASSERT_TRUE(await_value(client, "grp_hot",
                          client.view().samples()[0].value + 5));

  const std::uint64_t fulls_before = client.view().full_frames();
  const std::uint64_t ffe_before = server.stats().filtered_full_encodes;

  // Disjoint creates that sort BEFORE the subset: every flat index in
  // the selection shifts, the registry version bumps — the strongest
  // "nothing visible should happen" case.
  for (int i = 0; i < 3; ++i) {
    registry.create("aaa_disjoint_" + std::to_string(i),
                    {ErrorModel::kExact, 0, 1});
    ASSERT_TRUE(await_value(client, "grp_hot",
                            client.view().samples()[0].value + 3));
  }
  EXPECT_EQ(client.view().full_frames(), fulls_before)
      << "a disjoint create re-based the filter group";
  EXPECT_EQ(client.view().samples().size(), 1u);
  EXPECT_EQ(client.view().samples()[0].name, "grp_hot");
  EXPECT_EQ(server.stats().filtered_full_encodes, ffe_before)
      << "a disjoint create forced a filtered full re-encode";

  // A create INSIDE the subset is the real table change: the group
  // re-bases via a fresh filtered full carrying both names.
  registry.create("grp_new", {ErrorModel::kExact, 0, 1});
  for (int i = 0; i < 400 && client.view().samples().size() != 2; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_EQ(client.view().samples()[0].name, "grp_hot");
  EXPECT_EQ(client.view().samples()[1].name, "grp_new");
  EXPECT_GT(client.view().full_frames(), fulls_before);
  EXPECT_GT(server.stats().filtered_full_encodes, ffe_before);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, IdleSubsetHeartbeatsCarryClockAndStalenessSplit) {
  // Satellite regression: heartbeat deltas carry the server's clock
  // stamp (an idle-subset subscriber's latency stays measured), and the
  // view splits stream freshness (sequence/collect) from data freshness
  // (last_data_*): heartbeats advance the former, only payload frames
  // the latter.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& quiet =
      registry.create("quiet_q", {ErrorModel::kExact, 0, 1});
  shard::AnyCounter& busy =
      registry.create("busy_b", {ErrorModel::kExact, 0, 1});
  quiet.increment(0);
  ServerOptions options;
  options.period = 5ms;
  options.group_heartbeat_ticks = 2;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      busy.increment(0);  // fleet-wide churn the subset never sees
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"quiet_"};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  const std::uint64_t data_seq_after_full = client.view().last_data_sequence();
  EXPECT_EQ(data_seq_after_full, client.view().sequence());

  // The subset stays untouched: everything from here is heartbeats.
  const std::uint64_t heartbeats_before = client.view().heartbeat_frames();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    // The stamp satellite: a heartbeat is still a measured frame — the
    // subscriber's latency reflects the server's clock, not 0 (and not
    // a stale reading parked since the last payload frame).
    EXPECT_GT(client.last_latency_ns(), 0u);
    EXPECT_LT(client.last_latency_ns(), 2'000'000'000u);
  }
  EXPECT_GE(client.view().heartbeat_frames(), heartbeats_before + 3);
  // Stream freshness advanced; data freshness stayed at the full.
  EXPECT_GT(client.view().sequence(), data_seq_after_full);
  EXPECT_EQ(client.view().last_data_sequence(), data_seq_after_full);
  EXPECT_LE(client.view().last_data_collect_ns(),
            client.view().last_collect_ns());

  // One touch in the subset: the next payload delta moves data
  // freshness forward again.
  quiet.increment(1);
  ASSERT_TRUE(await_value(client, "quiet_q", 2));
  EXPECT_GT(client.view().last_data_sequence(), data_seq_after_full);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, FilteredSubscriberIsNeverOfferedTheShmRing) {
  // Satellite regression: the shm ring carries only UNFILTERED frames,
  // whose delta indices would misdecode against a filtered subscriber's
  // subset name table. A filtered subscriber must therefore never be
  // offered the ring — and never end up consuming it — no matter when
  // it asks (per-group rings are the documented upgrade path; see the
  // README transport section).
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  // An unfiltered control client proves the ring itself is healthy —
  // otherwise "no offer" below would be vacuous (e.g. no /dev/shm).
  TelemetryClient unfiltered;
  ASSERT_TRUE(unfiltered.connect(server.port()));
  ASSERT_TRUE(unfiltered.request_shm());
  bool ring_healthy = false;
  for (int i = 0; i < 200 && !ring_healthy; ++i) {
    if (!unfiltered.poll_frame(kFrameTimeout)) break;
    ring_healthy = unfiltered.shm_active() && unfiltered.shm_frames() >= 1;
  }
  if (!ring_healthy) {
    stop.store(true, std::memory_order_release);
    incrementer.join();
    server.stop();
    GTEST_SKIP() << "no healthy shm ring in this environment";
  }

  TelemetryClient filtered;
  ASSERT_TRUE(filtered.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(filtered.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(filtered.poll_frame(kFrameTimeout));
    rebased = !filtered.view().rebase_pending() &&
              filtered.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);

  const std::uint64_t offers_before = server.stats().shm_offers_sent;
  const std::uint64_t requests_before = server.stats().shm_requests_received;
  ASSERT_TRUE(filtered.request_shm());
  // The server must see the request and stay silent: the subscriber
  // keeps streaming filtered TCP frames, never a ring offer.
  for (int i = 0; i < 200 && server.stats().shm_requests_received ==
                                 requests_before;
       ++i) {
    ASSERT_TRUE(filtered.poll_frame(kFrameTimeout));
  }
  ASSERT_GT(server.stats().shm_requests_received, requests_before);
  const std::uint64_t value_seen = filtered.view().samples()[0].value;
  ASSERT_TRUE(await_value(filtered, "hot_a", value_seen + 10));
  EXPECT_EQ(server.stats().shm_offers_sent, offers_before)
      << "a filtered subscriber was offered the unfiltered shm ring";
  EXPECT_FALSE(filtered.shm_active());
  EXPECT_EQ(filtered.shm_frames(), 0u);
  // The filtered table stayed the subset throughout — no unfiltered
  // ring frame widened it behind the subscription's back.
  EXPECT_EQ(filtered.view().samples().size(), 1u);
  EXPECT_EQ(filtered.view().samples()[0].name, "hot_a");

  // The reverse order — riding the ring, THEN subscribing — must demote
  // the client back to per-subscriber TCP frames before the subset
  // stream starts (subscribe() detaches client-side; the server drops
  // shm_consuming when it processes the SUBSCRIBE).
  SubscriptionFilter narrow;
  narrow.prefixes = {"cold_"};
  ASSERT_TRUE(unfiltered.subscribe(narrow));
  rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(unfiltered.poll_frame(kFrameTimeout));
    rebased = !unfiltered.view().rebase_pending() &&
              unfiltered.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  EXPECT_FALSE(unfiltered.shm_active());
  EXPECT_EQ(unfiltered.view().samples()[0].name, "cold_x");
  // And a re-request AFTER subscribing is refused like any other.
  const std::uint64_t offers_after = server.stats().shm_offers_sent;
  ASSERT_TRUE(unfiltered.request_shm());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(unfiltered.poll_frame(kFrameTimeout));
  }
  EXPECT_EQ(server.stats().shm_offers_sent, offers_after);
  EXPECT_FALSE(unfiltered.shm_active());

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, AckStalledPeerIsEvictedWhileLiveReaderStreams) {
  // The satellite-1 regression: a peer that stops reading AND acking (a
  // SIGSTOP'd client, a half-open TCP session) used to hold its socket
  // — and whatever retired shared-encode frame it pinned — forever,
  // because acks fed only min_acked_seq observability. With
  // ack_deadline_ticks set it must be closed within the deadline, its
  // pinned in-flight frame must drain, and a live acking reader on the
  // same server must not be touched.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 2});
  c.increment(0);
  ServerOptions options;
  options.period = 2ms;
  options.ack_deadline_ticks = 25;  // ~50 ms of stall tolerated
  options.shm_enable = false;       // the live reader must ack over TCP
  options.sndbuf = 2048;  // small: the stalled peer jams and pins a frame
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  // The stalled peer: connects, never reads, never acks. A tiny
  // receive buffer makes its kernel pipe jam within a few frames, so
  // the server is left holding an undrained in-flight encode for it.
  const int stalled = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(stalled, 0);
  int tiny = 1024;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  TelemetryClient live;
  ASSERT_TRUE(live.connect(server.port()));
  ASSERT_TRUE(live.poll_frame(kFrameTimeout));

  // Keep the fleet changing so frames (and the tick clock) flow; the
  // real-time budget is generous for sanitizer builds, the TICK budget
  // the server enforces is the deadline.
  bool evicted = false;
  for (int i = 0; i < 500 && !evicted; ++i) {
    c.increment(0);
    live.poll_frame(20ms);
    evicted = server.stats().clients_evicted_idle >= 1;
  }
  EXPECT_TRUE(evicted) << "stalled peer was never evicted";

  // The eviction released the pinned encode: the fleet-wide in-flight
  // gauge drains to zero (the live reader drains its own instantly).
  bool drained = false;
  for (int i = 0; i < 200 && !drained; ++i) {
    live.poll_frame(20ms);
    drained = server.stats().frames_in_flight == 0;
  }
  EXPECT_TRUE(drained) << "in-flight encode stayed pinned after eviction";

  // The live, acking reader was untouched and still advances.
  const std::uint64_t seq_before = live.view().sequence();
  c.increment(0);
  ASSERT_TRUE(live.poll_frame(kFrameTimeout));
  EXPECT_GT(live.view().sequence(), seq_before);
  EXPECT_TRUE(live.connected());
  EXPECT_EQ(server.stats().clients_evicted_idle, 1u);
  ::close(stalled);
  server.stop();
}

TEST(SnapshotServer, EvictionDisabledKeepsStalledPeerOpen) {
  // ack_deadline_ticks = 0 restores the old contract: nobody is
  // disconnected for being slow (or even dead-quiet).
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 2ms;
  options.ack_deadline_ticks = 0;
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  const int stalled = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Stall for far longer than the other test's deadline.
  for (int i = 0; i < 100; ++i) {
    c.increment(0);
    std::this_thread::sleep_for(2ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_evicted_idle, 0u);
  EXPECT_EQ(stats.clients_closed, 0u);
  ::close(stalled);
  server.stop();
}

TEST(SnapshotServer, GroupChurnWithSixtyFourStreamersResolvesCleanly) {
  // The RCU group-table pin: 64 streaming clients re-subscribe across
  // four filter families mid-stream, so groups are created, shared,
  // and erased concurrently with every I/O worker resolving
  // client→group lock-free under an epoch guard. A torn resolution
  // (a worker reading a half-built group, a freed selection, or a
  // stale tick after rebase) would surface as an off-subset sample in
  // a settled view; the epoch domain must also let every retired
  // table and tick drain, which the in-flight gauge checks at the end.
  constexpr unsigned kSubscribers = 64;
  constexpr int kRounds = 3;
  constexpr int kFramesPerRound = 5;
  constexpr int kFamilies = 4;
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> hot;
  for (int g = 0; g < kFamilies; ++g) {
    for (int c = 0; c < 2; ++c) {
      shard::AnyCounter& counter =
          registry.create("grp" + std::to_string(g) + "_c" + std::to_string(c),
                          {ErrorModel::kExact, 0, 2});
      if (c == 0) hot.push_back(&counter);
    }
  }
  ServerOptions options;
  options.period = 5ms;
  options.io_threads = 4;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : hot) counter->increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> subscribers;
  for (unsigned i = 0; i < kSubscribers; ++i) {
    subscribers.emplace_back([&, i] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      for (int round = 0; round < kRounds; ++round) {
        const std::string prefix =
            "grp" + std::to_string((i + round) % kFamilies) + "_";
        SubscriptionFilter filter;
        filter.prefixes = {prefix};
        if (!client.subscribe(filter)) return;
        auto pure = [&] {
          for (const shard::Sample& sample : client.view().samples()) {
            if (!sample.name.starts_with(prefix)) return false;
          }
          return true;
        };
        // Phase 1: pump until the re-basing full for THIS filter lands
        // (a stale pre-subscribe full may clear the pending flag with
        // the old subset — that is ordering, not tearing).
        bool rebased = false;
        for (int p = 0; p < 600 && !rebased; ++p) {
          if (!client.poll_frame(kFrameTimeout)) return;
          rebased = !client.view().rebase_pending() &&
                    client.view().samples().size() == 2 && pure();
        }
        if (!rebased) return;
        // Phase 2: once settled on the subset, EVERY subsequent frame
        // must stay on it — an off-subset sample here is a torn
        // resolution in the lock-free worker path.
        for (int f = 0; f < kFramesPerRound; ++f) {
          if (!client.poll_frame(kFrameTimeout)) return;
          if (!pure() || client.view().samples().size() != 2) {
            torn.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
      if (client.connected()) happy.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_FALSE(torn.load()) << "a settled subscriber saw an off-subset frame";
  EXPECT_EQ(happy.load(), kSubscribers) << "a subscriber stalled or dropped";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscribes_received,
            static_cast<std::uint64_t>(kSubscribers) * kRounds);

  // Every client is gone; the one-in-flight refcounts they pinned must
  // drain to zero (the collector keeps ticking, which is what notices
  // the closed sockets and releases their frames).
  bool drained = false;
  for (int i = 0; i < 400 && !drained; ++i) {
    std::this_thread::sleep_for(5ms);
    drained = server.stats().frames_in_flight == 0;
  }
  EXPECT_TRUE(drained) << "in-flight frames leaked after group churn";
  server.stop();
}

TEST(SnapshotServer, FilteredViewConvergesWhenCreatesRaceTheChangedWalk) {
  // Regression for a lost-delta defect. A create landing between the
  // collector's collect and its changed walk makes the walk refuse (the
  // registry version moved), and filter groups keep their basis through
  // that tick. The collector's own basis must then stay put too: if it
  // advanced, the next group delta would carry only the changes since
  // the raced tick, and the raced tick's changes would never reach the
  // filtered subscriber unless the entry changed again. Here each subset
  // counter changes in exactly one burst, so a lost burst stays visible
  // as a stale value after the load stops. Creates inside the subset
  // (early) and outside it (every round) keep the version moving.
  constexpr int kBursts = 512;
  constexpr int kInsideCreates = 4;  // one per 32 bursts, all early
  const auto padded = [](const char* prefix, int i) {
    std::string digits = std::to_string(i);
    return prefix + std::string(4 - digits.size(), '0') + digits;
  };
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> bursty;
  for (int i = 0; i < kBursts; ++i) {
    const std::string name = padded("db/c", i);
    bursty.push_back(&registry.create(name, {ErrorModel::kExact, 0, 1}));
  }
  ServerOptions options;
  options.period = 1ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"db/"};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == kBursts;
  }
  ASSERT_TRUE(rebased);

  // Expected exact totals, written by the load thread before it stops.
  std::map<std::string, std::uint64_t> expected;
  std::atomic<bool> load_done{false};
  std::thread load([&] {
    for (int i = 0; i < kBursts; ++i) {
      const std::uint64_t count = 1 + i % 5;
      for (std::uint64_t c = 0; c < count; ++c) bursty[i]->increment(0);
      expected[padded("db/c", i)] = count;
      registry.create(padded("aa/out", i), {ErrorModel::kExact, 0, 1});
      if (i % 32 == 0 && i / 32 < kInsideCreates) {
        const std::string name = padded("db/in", i);
        registry.create(name, {ErrorModel::kExact, 0, 1}).increment(0);
        expected[name] = 1;
      }
      std::this_thread::sleep_for(100us);
    }
    load_done.store(true, std::memory_order_release);
  });
  // Keep the subscriber current while the load runs: a coalesced
  // subscriber re-bases through a full frame, which would mask the loss.
  while (!load_done.load(std::memory_order_acquire)) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  load.join();

  const auto stale_entries = [&] {
    std::vector<std::string> stale;
    std::size_t matched = 0;
    for (const shard::Sample& sample : client.view().samples()) {
      const auto it = expected.find(sample.name);
      if (it == expected.end()) continue;
      ++matched;
      if (sample.value != it->second) {
        stale.push_back(sample.name + "=" + std::to_string(sample.value) +
                        " (exact " + std::to_string(it->second) + ")");
      }
    }
    if (matched != expected.size()) stale.push_back("missing entries");
    return stale;
  };
  // The view must converge to the exact totals once the load stops; a
  // quiet group only heartbeats, so a lost change would stay lost.
  std::vector<std::string> stale = stale_entries();
  for (int i = 0; i < 200 && !stale.empty(); ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    stale = stale_entries();
  }
  std::string report;
  for (const std::string& entry : stale) report += "\n  " + entry;
  EXPECT_TRUE(stale.empty())
      << stale.size() << " filtered entries never converged:" << report;
  server.stop();
}

// --- Lazy unfiltered fulls ------------------------------------------------
// The collector encodes no unfiltered full per tick: one is encoded on
// demand, at most once per tick, and only when something takes it.

TEST(SnapshotServer, InStepSubscriberCostsNoFullEncodes) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;  // shm ring on (the default): it takes deltas too
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));  // the joining full
  ASSERT_EQ(client.view().full_frames(), 1u);
  const std::uint64_t seq_joined = client.view().sequence();
  const std::uint64_t encodes_joined = server.stats().unfiltered_full_encodes;
  EXPECT_GE(encodes_joined, 1u);
  for (int i = 0; i < 50; ++i) {
    hits.increment(0);
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_GE(client.view().sequence(), seq_joined + 50);
  EXPECT_EQ(client.view().full_frames(), 1u);
  EXPECT_EQ(server.stats().unfiltered_full_encodes, encodes_joined)
      << "a full was encoded on a tick nobody needed one";
  server.stop();
}

/// Options for a server that ticks exactly once during a test: every
/// subscriber is served from pass 1, and a frame that waited for a
/// second tick would not arrive within kFrameTimeout. No shm ring, so
/// nothing but subscribers takes a full.
ServerOptions one_tick_options() {
  ServerOptions options;
  options.period = 3600s;
  options.shm_enable = false;
  return options;
}

TEST(SnapshotServer, SubscribersJoiningInOneTickShareOneFullEncode) {
  constexpr int kSubscribers = 8;
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  SnapshotServer server(registry, 1, one_tick_options());
  ASSERT_TRUE(server.start());
  while (server.aggregator().frames_collected() == 0) {
    std::this_thread::sleep_for(1ms);
  }
  std::vector<std::unique_ptr<TelemetryClient>> clients;
  for (int i = 0; i < kSubscribers; ++i) {
    clients.push_back(std::make_unique<TelemetryClient>());
    ASSERT_TRUE(clients.back()->connect(server.port()));
  }
  for (auto& client : clients) {
    ASSERT_TRUE(client->poll_frame(kFrameTimeout));
    EXPECT_EQ(client->view().sequence(), 1u);
    EXPECT_EQ(client->view().full_frames(), 1u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_collected, 1u);
  EXPECT_EQ(stats.full_frames_sent, static_cast<std::uint64_t>(kSubscribers));
  EXPECT_EQ(stats.unfiltered_full_encodes, 1u);
  server.stop();
}

TEST(SnapshotServer, LateJoinerGetsTheTickPublishedWhenItJoined) {
  // Pass 1 is published with no subscriber and no ring, so no full
  // exists when the joiner arrives. It must still get its first frame
  // from pass 1, encoded on demand, not wait for pass 2.
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  c.increment(0);
  SnapshotServer server(registry, 1, one_tick_options());
  ASSERT_TRUE(server.start());
  while (server.aggregator().frames_collected() == 0) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(50ms);  // join well after the publication
  EXPECT_EQ(server.stats().unfiltered_full_encodes, 0u);

  TelemetryClient late;
  ASSERT_TRUE(late.connect(server.port()));
  ASSERT_TRUE(late.poll_frame(kFrameTimeout));
  EXPECT_EQ(late.view().sequence(), 1u);
  EXPECT_EQ(late.view().full_frames(), 1u);
  ASSERT_EQ(late.view().samples().size(), 1u);
  EXPECT_EQ(late.view().samples()[0].value, 1u);
  EXPECT_EQ(server.stats().frames_collected, 1u);
  EXPECT_EQ(server.stats().unfiltered_full_encodes, 1u);
  server.stop();
}

TEST(SnapshotServer, ResyncIsServedByAnOnDemandFullEncode) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  for (int i = 0; i < 3; ++i) {
    c.increment(0);
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  const std::uint64_t fulls_before = client.view().full_frames();
  const std::uint64_t encodes_before = server.stats().unfiltered_full_encodes;
  ASSERT_TRUE(client.request_resync());
  // Frames already buffered before the server read the RESYNC land
  // first; how many depends on scheduling, so the bound is generous.
  // (ResyncProducesFreshFullWithinATick pins the latency.)
  bool resynced = false;
  for (int i = 0; i < 400 && !resynced; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    resynced = client.view().full_frames() > fulls_before;
  }
  EXPECT_TRUE(resynced) << "RESYNC never returned a full";
  EXPECT_GT(server.stats().unfiltered_full_encodes, encodes_before);
  server.stop();
}

TEST(SnapshotServer, ShmRingGetsAFullOnACreateTick) {
  // A create leaves its tick without a shared delta, so the ring must
  // take the (lazily encoded) full, and a ring consumer re-bases from
  // it without any TCP full.
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("first", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.request_shm());
  bool riding = false;
  for (int i = 0; i < 200 && !riding; ++i) {
    if (!client.poll_frame(kFrameTimeout)) break;
    riding = client.shm_active() && client.shm_frames() >= 1;
  }
  if (!riding) {
    server.stop();
    GTEST_SKIP() << "no healthy shm ring in this environment";
  }
  // The client can ride a first-tick full off the ring before the
  // server reads its SHM_ACCEPT, and until then the server still sends
  // its joining full over TCP. Once the accept is read, no TCP full is
  // owed, so the counts below see only the create tick.
  for (int i = 0; i < 400 && server.stats().shm_accepts_received == 0; ++i) {
    client.poll_frame(5ms);
  }
  ASSERT_GE(server.stats().shm_accepts_received, 1u);
  const std::uint64_t view_fulls = client.view().full_frames();
  const ServerStats before = server.stats();

  registry.create("second", {ErrorModel::kExact, 0, 1});
  for (int i = 0; i < 200 && client.view().samples().size() < 2; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_TRUE(client.shm_active());
  EXPECT_GT(client.view().full_frames(), view_fulls);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.full_frames_sent, before.full_frames_sent)
      << "the re-basing full went over TCP, not the ring";
  EXPECT_GT(after.unfiltered_full_encodes, before.unfiltered_full_encodes);
  EXPECT_GT(after.shm_frames_published, before.shm_frames_published);
  server.stop();
}

/// One data frame exactly as a subscriber's socket received it, with
/// its header, a delta's base and either kind's row count parsed.
struct RawFrame {
  std::string wire;  // u32le prefix + payload, byte for byte
  FrameKind kind = FrameKind::kFull;
  std::uint64_t sequence = 0;
  std::uint64_t registry_version = 0;
  std::uint64_t collect_ns = 0;
  std::uint64_t base_seq = 0;  // deltas only
  std::uint64_t entries = 0;   // rows carried (a full's table size)
};

/// A bare TCP subscriber that keeps every frame's bytes (the client
/// library applies and drops them). Like TelemetryClient it acks each
/// frame it takes, so a reader that keeps up is never ack-evicted.
class RawSubscriber {
 public:
  RawSubscriber() = default;
  RawSubscriber(const RawSubscriber&) = delete;
  RawSubscriber& operator=(const RawSubscriber&) = delete;
  ~RawSubscriber() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// `rcvbuf` > 0 shrinks the receive buffer (a lagging reader then
  /// backs the server up within a few frames).
  bool connect(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send(const std::string& record) {
    return ::send(fd_, record.data(), record.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(record.size());
  }

  /// The next whole frame, or nullopt after `timeout` without one.
  std::optional<RawFrame> next(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (buf_.size() < kFramePrefixBytes ||
           buf_.size() < kFramePrefixBytes + read_u32le(buf_.data())) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    RawFrame frame;
    const std::size_t size = kFramePrefixBytes + read_u32le(buf_.data());
    frame.wire = buf_.substr(0, size);
    buf_.erase(0, size);
    const char* cursor = frame.wire.data() + kFramePrefixBytes + 4;
    const char* const end = frame.wire.data() + frame.wire.size();
    frame.kind = static_cast<FrameKind>(frame.wire[kFramePrefixBytes + 3]);
    read_uvarint(&cursor, end, frame.sequence);
    read_uvarint(&cursor, end, frame.registry_version);
    read_uvarint(&cursor, end, frame.collect_ns);
    if (frame.kind == FrameKind::kDelta) {
      read_uvarint(&cursor, end, frame.base_seq);
    }
    read_uvarint(&cursor, end, frame.entries);
    std::string ack(1, static_cast<char>(kAckByte));
    append_uvarint(ack, frame.sequence);
    ::send(fd_, ack.data(), ack.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    return frame;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST(SnapshotServer, TickDeltaBytesEqualTheEntryEncodeOfTheChangedWalk) {
  // The shared tick delta is encoded straight from the published frame.
  // Its bytes must be exactly what the DeltaEntry encoder makes of the
  // registry's changed walk for that tick: the same rows, values and
  // version byte, for scalar, histogram and top-k rows alike.
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 1});
  shard::AnyCounter& misses =
      registry.create("misses", {ErrorModel::kExact, 0, 1});
  registry.create("quiet", {ErrorModel::kExact, 0, 1});
  stats::HistogramSpec spec;
  spec.bounds = {10, 100};
  spec.k = 1;
  spec.shards = 1;
  shard::AnyHistogram* latency =
      stats::create_histogram<base::DirectBackend>(registry, "latency", spec);
  shard::AnyTopK* talkers =
      stats::create_topk<base::DirectBackend>(registry, "talkers", 4);
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(talkers, nullptr);
  ServerOptions options;
  options.period = 5ms;
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  RawSubscriber sub;
  ASSERT_TRUE(sub.connect(server.port()));

  bool checked = false;
  for (int round = 0; round < 20 && !checked; ++round) {
    // One burst, then quiet: the last delta that carries entries is
    // then the newest change the registry's walk knows about.
    hits.increment(0);
    misses.increment(0);
    latency->record(0, 50);
    latency->flush(0);
    talkers->update(0, "peer" + std::to_string(round % 3),
                    10 + static_cast<std::uint64_t>(round));
    std::optional<RawFrame> changed;
    for (int heartbeats = 0; heartbeats < 3;) {
      std::optional<RawFrame> frame = sub.next(kFrameTimeout);
      ASSERT_TRUE(frame.has_value());
      if (frame->kind != FrameKind::kDelta) continue;
      if (frame->entries > 0) {
        changed = std::move(frame);
        heartbeats = 0;
      } else {
        ++heartbeats;
      }
    }
    // A reader that fell a tick behind got a catch-up instead of the
    // shared delta: take another burst.
    if (!changed || changed->base_seq + 1 != changed->sequence) continue;
    std::vector<DeltaEntry> entries;
    ASSERT_TRUE(registry
                    .for_each_changed_since(
                        changed->base_seq, changed->registry_version,
                        [&](std::size_t index, const std::string& /*name*/,
                            std::uint64_t value, std::uint64_t /*seq*/,
                            const std::vector<std::uint64_t>* counts,
                            const std::vector<std::string>* labels) {
                          entries.emplace_back(
                              index, value,
                              counts != nullptr
                                  ? *counts
                                  : std::vector<std::uint64_t>{},
                              labels != nullptr ? *labels
                                                : std::vector<std::string>{});
                        })
                    .has_value());
    std::string expected;
    encode_delta_frame(changed->sequence, changed->registry_version,
                       changed->collect_ns, changed->base_seq, entries,
                       expected);
    EXPECT_EQ(changed->wire, expected);
    EXPECT_EQ(static_cast<std::uint8_t>(changed->wire[kFramePrefixBytes + 2]),
              kTopKVersion);
    checked = true;
  }
  EXPECT_TRUE(checked) << "never captured a shared tick delta";
  server.stop();
}

TEST(SnapshotServer, LaggedCatchUpDeltasCarryAPublishedFramesSeqAndStamp) {
  // A lagged subscriber's catch-up delta is encoded from a published
  // frame, so it carries that frame's sequence AND its collect stamp —
  // the same pair every in-step subscriber saw for that pass — whether
  // the subscriber is unfiltered or in a filter group.
  shard::RegistryT<base::DirectBackend> registry(2);
  std::vector<shard::AnyCounter*> fleet;
  for (int i = 0; i < 256; ++i) {
    fleet.push_back(&registry.create("counter_" + std::to_string(1000 + i),
                                     {ErrorModel::kExact, 0, 1}));
  }
  ServerOptions options;
  options.period = 2ms;
  options.sndbuf = 4096;  // a lagging reader jams within a few frames
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  // The observer keeps up and records each pass's (sequence, stamp).
  RawSubscriber observer;
  ASSERT_TRUE(observer.connect(server.port()));
  std::mutex stamps_mutex;
  std::map<std::uint64_t, std::uint64_t> stamps;
  std::atomic<bool> stop{false};
  std::thread observing;
  std::thread churner;
  // Stops and joins both threads on every way out, a failed ASSERT's
  // early return too: a joinable thread's destructor would terminate
  // the whole test binary.
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& a;
    std::thread& b;
    ~StopAndJoin() {
      stop.store(true, std::memory_order_release);
      if (a.joinable()) a.join();
      if (b.joinable()) b.join();
    }
  } stop_and_join{stop, observing, churner};
  observing = std::thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::optional<RawFrame> frame = observer.next(20ms);
      if (!frame) continue;
      std::lock_guard lock(stamps_mutex);
      stamps[frame->sequence] = frame->collect_ns;
    }
  });
  RawSubscriber unfiltered;
  ASSERT_TRUE(unfiltered.connect(server.port(), 4096));
  RawSubscriber filtered;
  ASSERT_TRUE(filtered.connect(server.port(), 4096));
  SubscriptionFilter filter;
  filter.prefixes = {"counter_10"};  // counter_1000..counter_1099
  std::string subscribe;
  ASSERT_TRUE(encode_subscribe_record(filter, subscribe));
  ASSERT_TRUE(filtered.send(subscribe));

  churner = std::thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : fleet) counter->increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });
  // Stalls are counted in passes, not milliseconds: a loaded host that
  // ticks slowly still piles up enough frames to jam a socket, and the
  // idle stretches stay comparable to ack_deadline_ticks (250 passes),
  // which counts passes too.
  const auto stall_passes = [&](std::uint64_t passes) {
    const std::uint64_t until = server.stats().frames_collected + passes;
    while (server.stats().frames_collected < until) {
      std::this_thread::sleep_for(1ms);
    }
  };
  // Stall both readers, then drain each until it takes a catch-up
  // delta (its base lags its label by more than one pass). The
  // filtered reader's count only once its subset full (100 rows) has
  // re-based it. A stall of 50 passes jams even the filtered socket
  // (~400 B deltas), so its catch-up follows its buffered frames, and
  // no reader sits idle anywhere near the eviction deadline.
  std::vector<RawFrame> catch_ups[2];
  RawSubscriber* readers[2] = {&unfiltered, &filtered};
  bool subset_based = false;
  for (int round = 0; round < 10; ++round) {
    stall_passes(50);
    for (int r = 0; r < 2; ++r) {
      for (int i = 0; i < 100; ++i) {
        std::optional<RawFrame> frame = readers[r]->next(kFrameTimeout);
        ASSERT_TRUE(frame.has_value())
            << "reader " << r << " saw no frame; clients evicted idle: "
            << server.stats().clients_evicted_idle;
        if (r == 1 && frame->kind == FrameKind::kFull) {
          subset_based = frame->entries == 100;
        }
        if (frame->kind == FrameKind::kDelta &&
            frame->base_seq + 1 < frame->sequence) {
          if (r == 0 || subset_based) catch_ups[r].push_back(*frame);
          break;
        }
      }
    }
  }
  // The filtered reader stalls once more, long enough to jam its socket.
  // The unfiltered reader is jammed too and takes nothing, so the skipped
  // frames counted while the filtered one drains are its own (the observer
  // keeps up). A frame labeled past the drain's start was handed after
  // the stall: the catch-up, or the full, over the group's skipped frames.
  stall_passes(100);
  const std::uint64_t coalesced_before = server.stats().frames_coalesced;
  const std::uint64_t drain_pass = server.stats().frames_collected + 1;
  for (int i = 0; i < 200; ++i) {
    const std::optional<RawFrame> frame = filtered.next(kFrameTimeout);
    ASSERT_TRUE(frame.has_value())
        << "clients evicted idle: " << server.stats().clients_evicted_idle;
    if (frame->sequence > drain_pass) break;
  }
  EXPECT_GT(server.stats().frames_coalesced, coalesced_before)
      << "a lagged filtered subscriber's skipped frames were not counted";
  std::this_thread::sleep_for(50ms);  // let the observer see the last pass
  stop.store(true, std::memory_order_release);
  churner.join();
  observing.join();

  EXPECT_GT(server.stats().catchup_deltas_sent, 0u);
  std::lock_guard lock(stamps_mutex);
  for (int r = 0; r < 2; ++r) {
    int matched = 0;
    for (const RawFrame& frame : catch_ups[r]) {
      const auto it = stamps.find(frame.sequence);
      if (it == stamps.end()) continue;  // the observer coalesced it
      EXPECT_EQ(frame.collect_ns, it->second)
          << (r == 0 ? "unfiltered" : "filtered") << " catch-up labeled "
          << frame.sequence << " carries another pass's stamp";
      ++matched;
    }
    EXPECT_GT(matched, 0) << (r == 0 ? "unfiltered" : "filtered")
                          << ": no catch-up delta to check";
  }
  server.stop();
}

TEST(SnapshotServer, PassAllStreamKeepsPerTickCadenceAndOneEncode) {
  // A client that never subscribed and one that SUBSCRIBEd with a
  // pass-all filter are both in the pass-all group. On an idle registry
  // that group still ships a frame every tick (v1 clients and the shm
  // ring's dead-writer probe rely on it), and both clients get the same
  // bytes for the same pass's shared delta: one encode, not one per
  // client. The heartbeat is set past the test's length, so a group
  // that suppressed its quiet ticks would leave both streams silent.
  constexpr int kFrames = 20;
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("a", {ErrorModel::kExact, 0, 1}).increment(0);
  registry.create("b", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.group_heartbeat_ticks = 100000;
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  RawSubscriber plain;
  ASSERT_TRUE(plain.connect(server.port()));
  RawSubscriber subscribed;
  ASSERT_TRUE(subscribed.connect(server.port()));
  std::string subscribe;
  ASSERT_TRUE(encode_subscribe_record(SubscriptionFilter{}, subscribe));
  ASSERT_TRUE(subscribed.send(subscribe));
  for (int i = 0; i < 400 && server.stats().subscribes_received == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server.stats().subscribes_received, 1u);

  std::map<std::uint64_t, std::string> deltas[2];
  RawSubscriber* readers[2] = {&plain, &subscribed};
  for (int r = 0; r < 2; ++r) {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    for (int i = 0; i < kFrames; ++i) {
      const std::optional<RawFrame> frame = readers[r]->next(kFrameTimeout);
      ASSERT_TRUE(frame.has_value())
          << "reader " << r << ": the idle pass-all stream went silent";
      if (first == 0) first = frame->sequence;
      last = frame->sequence;
      // In-step deltas only: a reader a worker served late takes a
      // catch-up from an older base instead, a different frame.
      if (frame->kind == FrameKind::kDelta &&
          frame->base_seq + 1 == frame->sequence) {
        deltas[r][frame->sequence] = frame->wire;
      }
    }
    // A frame per tick: the frames span about as many passes as there
    // are frames (a late worker may fold a pass or two into a catch-up).
    EXPECT_LT(last - first, 2u * kFrames)
        << "reader " << r << ": " << kFrames << " frames spanned "
        << last - first << " passes";
  }
  int shared = 0;
  for (const auto& [sequence, wire] : deltas[0]) {
    const auto it = deltas[1].find(sequence);
    if (it == deltas[1].end()) continue;
    EXPECT_EQ(wire, it->second) << "pass " << sequence << " differs";
    ++shared;
  }
  EXPECT_GT(shared, 0) << "the two readers never saw the same pass";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.group_deltas_suppressed, 0u);
  // The pass-all SUBSCRIBE found the pass-all group: no filtered group,
  // so no filtered encode.
  EXPECT_EQ(stats.filtered_delta_encodes, 0u);
  EXPECT_EQ(stats.filtered_full_encodes, 0u);
  server.stop();
}


/// The scalar `__sys/server.*` rows the registry serves (the histograms
/// and the top-k directory left out), by name.
std::map<std::string, shard::Sample> sys_server_rows(
    const shard::RegistryT<base::DirectBackend>& registry) {
  std::vector<shard::Sample> samples;
  (void)registry.snapshot_all_into(0, samples, 0);
  std::map<std::string, shard::Sample> rows;
  for (shard::Sample& sample : samples) {
    if (sample.name.starts_with("__sys/server.") &&
        sample.model != ErrorModel::kHistogram &&
        sample.model != ErrorModel::kTopK) {
      rows.emplace(sample.name, std::move(sample));
    }
  }
  return rows;
}

/// Every scalar `__sys/server.*` row reads exactly its ServerStats
/// field, as an exact entry: one row per counter, none left over.
void expect_rows_equal_stats(
    const shard::RegistryT<base::DirectBackend>& registry,
    const ServerStats& stats) {
  const std::pair<std::string, std::uint64_t> expected[] = {
      {"__sys/server.frames_collected", stats.frames_collected},
      {"__sys/server.clients_accepted", stats.clients_accepted},
      {"__sys/server.clients_closed", stats.clients_closed},
      {"__sys/server.clients_evicted", stats.clients_evicted_idle},
      {"__sys/server.frames_in_flight", stats.frames_in_flight},
      {"__sys/server.full_frames_sent", stats.full_frames_sent},
      {"__sys/server.delta_frames_sent", stats.delta_frames_sent},
      {"__sys/server.catchup_deltas_sent", stats.catchup_deltas_sent},
      {"__sys/server.frames_coalesced", stats.frames_coalesced},
      {"__sys/server.bytes_sent", stats.bytes_sent},
      {"__sys/server.acks_received", stats.acks_received},
      {"__sys/server.subscribes_received", stats.subscribes_received},
      {"__sys/server.resyncs_received", stats.resyncs_received},
      {"__sys/server.unfiltered_full_encodes", stats.unfiltered_full_encodes},
      {"__sys/server.filtered_full_encodes", stats.filtered_full_encodes},
      {"__sys/server.filtered_delta_encodes", stats.filtered_delta_encodes},
      {"__sys/server.group_deltas_suppressed", stats.group_deltas_suppressed},
      {"__sys/server.shm_requests_received", stats.shm_requests_received},
      {"__sys/server.shm_offers_sent", stats.shm_offers_sent},
      {"__sys/server.shm_accepts_received", stats.shm_accepts_received},
      {"__sys/server.shm_frames_published", stats.shm_frames_published},
      {"__sys/server.shm_publish_failures", stats.shm_publish_failures},
      {"__sys/server.collector_cpu_ns", stats.collector_cpu_ns},
      {"__sys/server.ticks_overrun", stats.ticks_overrun},
  };
  const std::map<std::string, shard::Sample> rows = sys_server_rows(registry);
  EXPECT_EQ(rows.size(), std::size(expected));
  for (const auto& [name, value] : expected) {
    const auto it = rows.find(name);
    if (it == rows.end()) {
      ADD_FAILURE() << "no row " << name;
      continue;
    }
    EXPECT_EQ(it->second.value, value) << name;
    EXPECT_EQ(it->second.model, ErrorModel::kExact) << name;
    EXPECT_EQ(it->second.error_bound, 0u) << name;
  }
}

TEST(SnapshotServer, SysRowsReadTheCountersBehindServerStats) {
  // Each server event is counted once: every scalar `__sys/server.*`
  // row is an exact view of the counter its ServerStats field copies,
  // so once stop() returned the two agree to the unit — no k-additive
  // undercount, no gauge a tick behind. The client subscribes to the
  // rows, RESYNCs and acks, so the control counters move too.
  shard::RegistryT<base::DirectBackend> registry(4);
  registry.create("app.hits", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.self_metrics = true;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"__sys/server."};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending();
  }
  ASSERT_TRUE(rebased);
  const std::uint64_t fulls = client.view().full_frames();
  ASSERT_TRUE(client.request_resync());
  for (int i = 0; i < 400 && client.view().full_frames() == fulls; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_GT(client.view().full_frames(), fulls);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  // The subscriber holds the subset, and the rows reach it as exact
  // entries too.
  std::size_t exact_rows = 0;
  for (const shard::Sample& sample : client.view().samples()) {
    EXPECT_TRUE(sample.name.starts_with("__sys/server.")) << sample.name;
    if (sample.model == ErrorModel::kHistogram ||
        sample.model == ErrorModel::kTopK) {
      continue;
    }
    EXPECT_EQ(sample.model, ErrorModel::kExact) << sample.name;
    EXPECT_EQ(sample.error_bound, 0u) << sample.name;
    ++exact_rows;
  }
  EXPECT_EQ(exact_rows, 24u);
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_accepted, 1u);
  EXPECT_EQ(stats.subscribes_received, 1u);
  EXPECT_EQ(stats.resyncs_received, 1u);
  EXPECT_GT(stats.acks_received, 0u);
  EXPECT_GE(stats.filtered_full_encodes, 2u);
  expect_rows_equal_stats(registry, stats);
}

TEST(SnapshotServer, SysRowsOutliveTheirServerAndTheNextServerCountsOn) {
  // The rows hold the counter block, not the server: once the server
  // is destroyed, the registry still serves its final counts (a row
  // left pointing into the dead server would be a use-after-free under
  // ASan). A second server over the same registry counts into the same
  // block, the registry's `__sys/` totals, and its stats are those
  // totals: they do not restart at zero.
  shard::RegistryT<base::DirectBackend> registry(4);
  registry.create("app.hits", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.self_metrics = true;
  const auto serve_one_client = [&](SnapshotServer& server) {
    ASSERT_TRUE(server.start());
    TelemetryClient client;
    ASSERT_TRUE(client.connect(server.port()));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    server.stop();
  };

  ServerStats first_stats;
  {
    SnapshotServer first(registry, 3, options);
    serve_one_client(first);
    first_stats = first.stats();
  }
  EXPECT_EQ(first_stats.clients_accepted, 1u);
  expect_rows_equal_stats(registry, first_stats);

  SnapshotServer second(registry, 3, options);
  serve_one_client(second);
  const ServerStats second_stats = second.stats();
  EXPECT_EQ(second_stats.clients_accepted, 2u);
  EXPECT_GT(second_stats.frames_collected, first_stats.frames_collected);
  EXPECT_GE(second_stats.collector_cpu_ns, first_stats.collector_cpu_ns);
  EXPECT_GT(second_stats.unfiltered_full_encodes,
            first_stats.unfiltered_full_encodes);
  expect_rows_equal_stats(registry, second_stats);
}

}  // namespace
}  // namespace approx::svc
