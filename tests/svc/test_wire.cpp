// Tests for the telemetry wire format (src/svc/wire.hpp): varint
// primitives, full/delta round trips over every error-model/bound
// combination, fuzz-ish truncation and corruption rejection, and the
// delta-on-top-of-full reconstruction contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"
#include "svc/wire.hpp"

namespace approx::svc {
namespace {

using shard::ErrorModel;
using shard::Sample;
using shard::TelemetryFrame;

/// Payload view of a stream-ready encode (skips the u32le prefix).
std::string_view payload_of(const std::string& wire) {
  return std::string_view(wire).substr(kFramePrefixBytes);
}

std::uint32_t prefix_of(const std::string& wire) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(wire[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[3]))
             << 24;
}

TEST(Varint, RoundTripBoundaries) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63) - 1,
                                 1ull << 63,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t value : cases) {
    std::string buf;
    append_uvarint(buf, value);
    ASSERT_LE(buf.size(), 10u);
    const char* cursor = buf.data();
    std::uint64_t decoded = 0;
    ASSERT_TRUE(read_uvarint(&cursor, buf.data() + buf.size(), decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(cursor, buf.data() + buf.size());
  }
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  std::string buf;
  append_uvarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const char* cursor = buf.data();
    std::uint64_t value = 0;
    EXPECT_FALSE(read_uvarint(&cursor, buf.data() + len, value))
        << "accepted a varint truncated to " << len << " bytes";
  }
  // 10 continuation bytes and beyond: overlong.
  const std::string overlong(11, static_cast<char>(0x80));
  const char* cursor = overlong.data();
  std::uint64_t value = 0;
  EXPECT_FALSE(
      read_uvarint(&cursor, overlong.data() + overlong.size(), value));
  // A 10th byte that would overflow 64 bits.
  std::string overflow(9, static_cast<char>(0x80));
  overflow.push_back(0x02);  // bit 64
  cursor = overflow.data();
  EXPECT_FALSE(
      read_uvarint(&cursor, overflow.data() + overflow.size(), value));
}

/// Hand-assembled frames covering every model × a spread of bounds and
/// values, incl. the u64 extremes the varint must carry.
TelemetryFrame synthetic_frame(std::uint64_t sequence,
                               std::uint64_t registry_version) {
  TelemetryFrame frame;
  frame.sequence = sequence;
  frame.registry_version = registry_version;
  const ErrorModel models[] = {ErrorModel::kExact, ErrorModel::kMultiplicative,
                               ErrorModel::kAdditive};
  const std::uint64_t bounds[] = {0, 1, 2, 64, 1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  const std::uint64_t values[] = {0, 1, 127, 128, 1ull << 40,
                                  std::numeric_limits<std::uint64_t>::max()};
  unsigned i = 0;
  for (const ErrorModel model : models) {
    for (const std::uint64_t bound : bounds) {
      Sample sample;
      sample.name = "stat_" + std::to_string(i);
      if (i % 5 == 0) sample.name += std::string(40, 'x');  // long names
      sample.model = model;
      sample.error_bound = bound;
      sample.value = values[i % (sizeof(values) / sizeof(values[0]))];
      frame.samples.push_back(sample);
      ++i;
    }
  }
  return frame;
}

void expect_view_matches(const MaterializedView& view,
                         const TelemetryFrame& frame) {
  ASSERT_EQ(view.samples().size(), frame.samples.size());
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    EXPECT_EQ(view.samples()[i].name, frame.samples[i].name) << i;
    EXPECT_EQ(view.samples()[i].model, frame.samples[i].model) << i;
    EXPECT_EQ(view.samples()[i].error_bound, frame.samples[i].error_bound)
        << i;
    EXPECT_EQ(view.samples()[i].value, frame.samples[i].value) << i;
  }
  EXPECT_EQ(view.sequence(), frame.sequence);
  EXPECT_EQ(view.registry_version(), frame.registry_version);
}

TEST(WireFull, RoundTripEveryModelAndBound) {
  const TelemetryFrame frame = synthetic_frame(7, 42);
  std::string wire;
  encode_full_frame(frame, 123456789, wire);
  EXPECT_EQ(prefix_of(wire), wire.size() - kFramePrefixBytes);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  expect_view_matches(view, frame);
  EXPECT_EQ(view.last_collect_ns(), 123456789u);
  EXPECT_EQ(view.full_frames(), 1u);
  EXPECT_EQ(view.entry_update_seq().size(), frame.samples.size());
  for (const std::uint64_t seq : view.entry_update_seq()) {
    EXPECT_EQ(seq, frame.sequence);
  }
}

TEST(WireFull, RoundTripRandomFleetsProperty) {
  sim::Rng rng(2027);
  for (int iteration = 0; iteration < 50; ++iteration) {
    TelemetryFrame frame;
    frame.sequence = 1 + rng.below(1u << 30);
    frame.registry_version = 1 + rng.below(1u << 30);
    const unsigned count = rng.below(40);
    for (unsigned i = 0; i < count; ++i) {
      Sample sample;
      const unsigned name_len = rng.below(24);
      for (unsigned c = 0; c < name_len; ++c) {
        sample.name.push_back(static_cast<char>('a' + rng.below(26)));
      }
      sample.model = static_cast<ErrorModel>(rng.below(3));
      sample.error_bound = rng.below(1u << 31);
      sample.value =
          static_cast<std::uint64_t>(rng.below(1u << 31)) << rng.below(33);
      frame.samples.push_back(std::move(sample));
    }
    std::string wire;
    encode_full_frame(frame, 0, wire);
    MaterializedView view;
    ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
    expect_view_matches(view, frame);
  }
}

TEST(WireFull, TruncationRejectedAtEveryLength) {
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 55, wire);
  const std::string_view payload = payload_of(wire);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    MaterializedView view;
    EXPECT_EQ(view.apply(payload.substr(0, len)), ApplyResult::kCorrupt)
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_EQ(view.sequence(), 0u) << "truncated frame mutated the view";
    EXPECT_TRUE(view.samples().empty());
  }
}

TEST(WireFull, CorruptHeaderAndModelRejected) {
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string payload(payload_of(wire));

  auto corrupted = [&](std::size_t index, char value) {
    std::string copy = payload;
    copy[index] = value;
    return copy;
  };
  MaterializedView view;
  EXPECT_EQ(view.apply(corrupted(0, 0x00)), ApplyResult::kCorrupt);  // magic0
  EXPECT_EQ(view.apply(corrupted(1, 0x00)), ApplyResult::kCorrupt);  // magic1
  EXPECT_EQ(view.apply(corrupted(2, 0x7F)), ApplyResult::kCorrupt);  // version
  EXPECT_EQ(view.apply(corrupted(3, 0x07)), ApplyResult::kCorrupt);  // kind
  EXPECT_EQ(view.apply(std::string_view{}), ApplyResult::kCorrupt);  // empty
  // Model byte of the first entry: header(4) + seq/regver/ns varints +
  // count varint + name_len varint + name bytes. Locate it by decoding.
  const char* cursor = payload.data() + 4;
  const char* const end = payload.data() + payload.size();
  std::uint64_t skip = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(read_uvarint(&cursor, end, skip));
  std::uint64_t name_len = 0;
  ASSERT_TRUE(read_uvarint(&cursor, end, name_len));
  const std::size_t model_at =
      static_cast<std::size_t>(cursor - payload.data()) +
      static_cast<std::size_t>(name_len);
  EXPECT_EQ(view.apply(corrupted(model_at, 0x09)), ApplyResult::kCorrupt);
  EXPECT_EQ(view.sequence(), 0u);
  // And the pristine payload still applies.
  EXPECT_EQ(view.apply(payload), ApplyResult::kApplied);
}

TEST(WireFull, ByteFlipFuzzNeverCorruptsSilently) {
  // Flip every byte of a valid payload in turn: each mutation must
  // either decode to kCorrupt/kNeedFull or apply cleanly — never crash
  // or leave a half-applied view (ASan/UBSan guard the memory side).
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 77, wire);
  const std::string payload(payload_of(wire));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      MaterializedView view;
      const ApplyResult result = view.apply(mutated);
      if (result != ApplyResult::kApplied) {
        EXPECT_TRUE(view.samples().empty())
            << "rejected frame mutated the view (byte " << i << ")";
      }
    }
  }
}

TEST(WireDelta, AppliesOnTopOfFull) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);

  const std::vector<DeltaEntry> entries = {
      {0, 999}, {3, std::numeric_limits<std::uint64_t>::max()}, {17, 0}};
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, entries, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.sequence(), 6u);
  EXPECT_EQ(view.delta_frames(), 1u);
  EXPECT_EQ(view.samples()[0].value, 999u);
  EXPECT_EQ(view.samples()[3].value,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(view.samples()[17].value, 0u);
  // Untouched entries keep their full-frame values and update seqs.
  EXPECT_EQ(view.samples()[1].value, frame.samples[1].value);
  EXPECT_EQ(view.entry_update_seq()[0], 6u);
  EXPECT_EQ(view.entry_update_seq()[1], 5u);
  // Names/models/bounds never move via deltas.
  EXPECT_EQ(view.samples()[0].name, frame.samples[0].name);
  EXPECT_EQ(view.samples()[0].model, frame.samples[0].model);
}

TEST(WireDelta, EmptyDeltaIsAHeartbeat) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {}, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.sequence(), 6u);
  EXPECT_EQ(view.entries_updated(), frame.samples.size());  // no new ones
}

TEST(WireDelta, RejectedWithoutAgreedBase) {
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {{0, 1}}, delta);
  MaterializedView fresh;  // no full frame yet
  EXPECT_EQ(fresh.apply(payload_of(delta)), ApplyResult::kNeedFull);

  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  // Wrong registry version: the name table moved underneath the delta.
  std::string wrong_version;
  encode_delta_frame(6, 12, 0, 5, {{0, 1}}, wrong_version);
  EXPECT_EQ(view.apply(payload_of(wrong_version)), ApplyResult::kNeedFull);
  // Sequence gap: delta's base is newer than the view.
  std::string gapped;
  encode_delta_frame(9, 11, 0, 8, {{0, 1}}, gapped);
  EXPECT_EQ(view.apply(payload_of(gapped)), ApplyResult::kNeedFull);
  // Out-of-range index against the agreed table: corrupt.
  std::string out_of_range;
  encode_delta_frame(6, 11, 0, 5, {{frame.samples.size(), 1}}, out_of_range);
  EXPECT_EQ(view.apply(payload_of(out_of_range)), ApplyResult::kCorrupt);
  // The view survived all three rejections untouched.
  expect_view_matches(view, frame);
}

TEST(WireDelta, StaleAndDuplicateFramesAreSkipped) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);  // dup
  EXPECT_EQ(view.stale_frames_skipped(), 1u);
  EXPECT_EQ(view.full_frames(), 1u);
  std::string delta;
  encode_delta_frame(4, 11, 0, 2, {{0, 123}}, delta);  // older than view
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.stale_frames_skipped(), 2u);
  EXPECT_EQ(view.samples()[0].value, frame.samples[0].value);  // untouched
}

// --- wire v2: subscription filters + control frames -------------------

/// Payload view of a control record (skips the 0xC5 + u32le framing).
std::string_view control_payload_of(const std::string& record) {
  return std::string_view(record).substr(kControlPrefixBytes);
}

TEST(Filter, MatchSemanticsNormalizationAndCanonicalKey) {
  SubscriptionFilter filter;
  filter.exact = {"errors", "requests", "errors"};  // dup
  filter.prefixes = {"svc_", "db_"};
  filter.normalize();
  EXPECT_EQ(filter.exact.size(), 2u);  // deduped
  EXPECT_TRUE(filter.matches("requests"));
  EXPECT_TRUE(filter.matches("errors"));
  EXPECT_TRUE(filter.matches("svc_anything"));
  EXPECT_TRUE(filter.matches("db_"));  // prefix matches itself
  EXPECT_FALSE(filter.matches("request"));  // exact is not a prefix
  EXPECT_FALSE(filter.matches("sv"));
  EXPECT_FALSE(filter.matches(""));

  SubscriptionFilter everything;
  EXPECT_TRUE(everything.pass_all());
  EXPECT_FALSE(filter.pass_all());

  // Reordered lists normalize to the same canonical key (one server
  // filter group), and different filters never collide.
  SubscriptionFilter reordered;
  reordered.exact = {"requests", "errors"};
  reordered.prefixes = {"db_", "svc_"};
  reordered.normalize();
  EXPECT_EQ(filter.canonical_key(), reordered.canonical_key());
  SubscriptionFilter other;
  other.exact = {"requests"};
  other.normalize();
  EXPECT_NE(filter.canonical_key(), other.canonical_key());
  // Exact names vs prefixes are distinct subscriptions.
  SubscriptionFilter as_prefix;
  as_prefix.prefixes = {"requests"};
  EXPECT_NE(other.canonical_key(), as_prefix.canonical_key());
}

TEST(ControlFrame, SubscribeRoundTrip) {
  SubscriptionFilter filter;
  filter.exact = {"zeta", "alpha"};
  filter.prefixes = {"svc_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  ASSERT_GT(record.size(), kControlPrefixBytes);
  EXPECT_EQ(static_cast<unsigned char>(record[0]), kControlByte);

  ControlFrame decoded;
  ASSERT_TRUE(decode_control_payload(control_payload_of(record), decoded));
  EXPECT_EQ(decoded.kind, FrameKind::kSubscribe);
  ASSERT_EQ(decoded.filter.exact.size(), 2u);
  EXPECT_EQ(decoded.filter.exact[0], "alpha");  // normalized on decode
  EXPECT_EQ(decoded.filter.exact[1], "zeta");
  ASSERT_EQ(decoded.filter.prefixes.size(), 1u);
  EXPECT_EQ(decoded.filter.prefixes[0], "svc_");

  // An empty filter (pass-all, "v1 mode again") round-trips too.
  std::string empty_record;
  ASSERT_TRUE(encode_subscribe_record(SubscriptionFilter{}, empty_record));
  ControlFrame empty_decoded;
  ASSERT_TRUE(
      decode_control_payload(control_payload_of(empty_record), empty_decoded));
  EXPECT_TRUE(empty_decoded.filter.pass_all());
}

TEST(ControlFrame, ResyncRoundTrip) {
  std::string record;
  encode_resync_record(record);
  ControlFrame decoded;
  ASSERT_TRUE(decode_control_payload(control_payload_of(record), decoded));
  EXPECT_EQ(decoded.kind, FrameKind::kResync);
  // A resync smuggling a body is malformed.
  std::string padded(control_payload_of(record));
  padded.push_back('\0');
  EXPECT_FALSE(decode_control_payload(padded, decoded));
}

TEST(ControlFrame, TruncationRejectedAtEveryLength) {
  SubscriptionFilter filter;
  filter.exact = {"alpha", "beta"};
  filter.prefixes = {"svc_", "db_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  const std::string payload(control_payload_of(record));
  ControlFrame decoded;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_control_payload(payload.substr(0, len), decoded))
        << "accepted a control payload truncated to " << len << " bytes";
  }
  // And the pristine payload still decodes.
  EXPECT_TRUE(decode_control_payload(payload, decoded));
}

TEST(ControlFrame, ByteFlipFuzzNeverAcceptsOverLimitFilters) {
  SubscriptionFilter filter;
  filter.exact = {"alpha", "a_rather_longer_counter_name"};
  filter.prefixes = {"svc_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  const std::string payload(control_payload_of(record));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      ControlFrame decoded;
      // Any outcome but a crash/overflow is fine; whatever decodes must
      // be a filter the limits admit (ASan/UBSan guard the memory side).
      if (decode_control_payload(mutated, decoded)) {
        EXPECT_TRUE(decoded.filter.within_limits());
      }
    }
  }
}

TEST(ControlFrame, MalformedFilterListsRejected) {
  // Hand-assembled SUBSCRIBE payloads around the hardening limits.
  auto subscribe_header = [] {
    std::string payload;
    payload.push_back(static_cast<char>(kWireMagic0));
    payload.push_back(static_cast<char>(kWireMagic1));
    payload.push_back(static_cast<char>(kControlVersion));
    payload.push_back(static_cast<char>(FrameKind::kSubscribe));
    return payload;
  };
  ControlFrame decoded;

  // Entry count beyond the limit: rejected before any allocation.
  std::string too_many = subscribe_header();
  append_uvarint(too_many, kMaxFilterEntries + 1);
  EXPECT_FALSE(decode_control_payload(too_many, decoded));

  // Oversized prefix length: rejected.
  std::string oversized = subscribe_header();
  append_uvarint(oversized, 0);  // no exact names
  append_uvarint(oversized, 1);  // one prefix...
  append_uvarint(oversized, kMaxFilterNameBytes + 1);  // ...too long
  oversized.append(kMaxFilterNameBytes + 1, 'x');
  EXPECT_FALSE(decode_control_payload(oversized, decoded));

  // A name length claiming more bytes than the payload holds.
  std::string lying = subscribe_header();
  append_uvarint(lying, 1);
  append_uvarint(lying, 200);
  lying.append(3, 'x');  // only 3 bytes present
  EXPECT_FALSE(decode_control_payload(lying, decoded));

  // Trailing garbage after a well-formed filter.
  SubscriptionFilter filter;
  filter.exact = {"ok"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  std::string trailing(control_payload_of(record));
  trailing.push_back('\0');
  EXPECT_FALSE(decode_control_payload(trailing, decoded));

  // Wrong header version (control frames are v2) and a data kind in a
  // control payload.
  std::string v1_header = subscribe_header();
  v1_header[2] = 0x01;
  append_uvarint(v1_header, 0);
  append_uvarint(v1_header, 0);
  EXPECT_FALSE(decode_control_payload(v1_header, decoded));
  std::string data_kind = subscribe_header();
  data_kind[3] = static_cast<char>(FrameKind::kFull);
  EXPECT_FALSE(decode_control_payload(data_kind, decoded));

  // Encoding refuses an over-limit filter outright.
  SubscriptionFilter huge;
  huge.exact.assign(kMaxFilterEntries + 1, "name");
  std::string refused;
  EXPECT_FALSE(encode_subscribe_record(huge, refused));
  SubscriptionFilter long_name;
  long_name.prefixes = {std::string(kMaxFilterNameBytes + 1, 'p')};
  EXPECT_FALSE(encode_subscribe_record(long_name, refused));
}

TEST(ControlFrame, DataStreamRejectsControlKinds) {
  // A SUBSCRIBE/RESYNC payload arriving where data frames live (the
  // server→client direction) must be kCorrupt, not misapplied — and a
  // v2 version byte on a DATA frame is equally corrupt (the v1 data
  // layout is frozen; see wire.hpp).
  std::string record;
  encode_resync_record(record);
  MaterializedView view;
  EXPECT_EQ(view.apply(control_payload_of(record)), ApplyResult::kCorrupt);

  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  std::string v2_data(payload_of(wire));
  v2_data[2] = 0x02;  // version byte
  EXPECT_EQ(view.apply(v2_data), ApplyResult::kCorrupt);
}

TEST(WireFiltered, FilteredFullDefinesSubsetTableAndSubsetDeltasApply) {
  // A filtered full carries only the selection, in table order — the
  // subscriber's whole name table. Deltas for the subset then index
  // into it positionally.
  const TelemetryFrame frame = synthetic_frame(5, 11);
  const std::vector<std::uint64_t> selection = {1, 4, 7};
  std::string wire;
  encode_full_frame_filtered(frame, selection, 777, frame.registry_version,
                             wire);
  EXPECT_EQ(prefix_of(wire), wire.size() - kFramePrefixBytes);

  MaterializedView view;
  view.expect_rebase();
  EXPECT_TRUE(view.rebase_pending());
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  EXPECT_FALSE(view.rebase_pending());  // the re-basing full arrived
  ASSERT_EQ(view.samples().size(), selection.size());
  for (std::size_t j = 0; j < selection.size(); ++j) {
    const Sample& expected = frame.samples[selection[j]];
    EXPECT_EQ(view.samples()[j].name, expected.name) << j;
    EXPECT_EQ(view.samples()[j].model, expected.model) << j;
    EXPECT_EQ(view.samples()[j].error_bound, expected.error_bound) << j;
    EXPECT_EQ(view.samples()[j].value, expected.value) << j;
  }
  EXPECT_EQ(view.last_collect_ns(), 777u);

  // Subset delta: position 0 = flat 1, position 2 = flat 7.
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {{0, 1234}, {2, 4321}}, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[0].value, 1234u);
  EXPECT_EQ(view.samples()[1].value, frame.samples[4].value);  // untouched
  EXPECT_EQ(view.samples()[2].value, 4321u);
  // An index beyond the subset table is corrupt, exactly as unfiltered.
  std::string beyond;
  encode_delta_frame(7, 11, 0, 6, {{selection.size(), 1}}, beyond);
  EXPECT_EQ(view.apply(payload_of(beyond)), ApplyResult::kCorrupt);
}

TEST(WireIntegration, DeltaOnTopOfFullEqualsSnapshotAll) {
  // The satellite contract: a view reconstructed from full + registry
  // for_each_changed_since deltas equals a direct snapshot_all of the
  // quiesced fleet.
  shard::RegistryT<base::DirectBackend> registry(2);
  auto& mult = registry.create(
      "mult", {ErrorModel::kMultiplicative, 2, 2, shard::ShardPolicy::kHashPinned});
  auto& add = registry.create(
      "add", {ErrorModel::kAdditive, 8, 2, shard::ShardPolicy::kHashPinned});
  auto& exact = registry.create(
      "exact", {ErrorModel::kExact, 0, 1, shard::ShardPolicy::kHashPinned});
  for (int i = 0; i < 300; ++i) mult.increment(0);
  for (int i = 0; i < 200; ++i) add.increment(0);
  for (int i = 0; i < 100; ++i) exact.increment(0);

  shard::AggregatorT<base::DirectBackend> aggregator(registry, 1,
                                                     /*sequenced=*/true);
  const TelemetryFrame full = aggregator.collect();
  std::string wire;
  encode_full_frame(full, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);

  for (int i = 0; i < 50; ++i) exact.increment(0);
  for (int i = 0; i < 500; ++i) mult.increment(0);
  const TelemetryFrame next = aggregator.collect();

  std::vector<DeltaEntry> entries;
  const auto upto = registry.for_each_changed_since(
      full.sequence, next.registry_version,
      [&](std::size_t index, const std::string& /*name*/,
          std::uint64_t value, std::uint64_t changed_seq,
          const std::vector<std::uint64_t>* /*counts*/) {
        ASSERT_LE(changed_seq, next.sequence);
        entries.push_back({index, value});
      });
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, next.sequence);
  std::string delta;
  encode_delta_frame(*upto, next.registry_version, 0, full.sequence,
                     entries, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);

  // The reconstructed view IS the registry's snapshot_all (fleet is
  // quiescent, so fresh reads reproduce the collected values).
  const std::vector<Sample> direct = registry.snapshot_all(1);
  ASSERT_EQ(view.samples().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(view.samples()[i].name, direct[i].name) << i;
    EXPECT_EQ(view.samples()[i].value, direct[i].value) << i;
    EXPECT_EQ(view.samples()[i].model, direct[i].model) << i;
    EXPECT_EQ(view.samples()[i].error_bound, direct[i].error_bound) << i;
  }
}

}  // namespace
}  // namespace approx::svc
