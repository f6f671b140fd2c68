// Decode-hardening and round-trip tests for the v4 vector (histogram)
// wire entries (src/svc/wire.hpp): version-byte stamping, truncation
// at every length, byte-flip fuzz, oversized bucket counts, bad edge
// encodings, delta/row shape mismatches, and version skew — an
// untrusted frame may be rejected, never misdecoded, and a rejected
// frame leaves the view untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "svc/wire.hpp"

namespace approx::svc {
namespace {

using shard::ErrorModel;
using shard::Sample;
using shard::TelemetryFrame;

std::string_view payload_of(const std::string& wire) {
  return std::string_view(wire).substr(kFramePrefixBytes);
}

Sample histogram_sample(const std::string& name) {
  Sample sample;
  sample.name = name;
  sample.model = ErrorModel::kHistogram;
  sample.error_bound = 16;
  sample.bucket_bounds = {10, 100, 500, 1000};
  sample.bucket_counts = {10, 90, 400, 500, 0};
  sample.value = 1000;
  return sample;
}

/// A mixed fleet: scalar, histogram, scalar — vector entries must
/// interleave cleanly with the frozen scalar layout.
TelemetryFrame mixed_frame(std::uint64_t sequence,
                           std::uint64_t registry_version) {
  TelemetryFrame frame;
  frame.sequence = sequence;
  frame.registry_version = registry_version;
  Sample a;
  a.name = "aa_scalar";
  a.model = ErrorModel::kExact;
  a.value = 7;
  frame.samples.push_back(a);
  frame.samples.push_back(histogram_sample("mm_hist"));
  Sample z;
  z.name = "zz_scalar";
  z.model = ErrorModel::kAdditive;
  z.error_bound = 64;
  z.value = 123456;
  frame.samples.push_back(z);
  return frame;
}

/// Hand-assembled payload header (no stream prefix).
std::string raw_header(std::uint8_t version, FrameKind kind,
                       std::uint64_t sequence, std::uint64_t registry_version) {
  std::string out;
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(kind));
  append_uvarint(out, sequence);
  append_uvarint(out, registry_version);
  append_uvarint(out, 0);  // collect_ns
  return out;
}

TEST(WireStats, VersionByteIsV4IffVectorsRide) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  EXPECT_EQ(static_cast<unsigned char>(payload_of(wire)[2]), kVectorVersion);

  // Scalars only: the frozen v1 bytes, exactly.
  TelemetryFrame scalars = mixed_frame(1, 1);
  scalars.samples.erase(scalars.samples.begin() + 1);
  encode_full_frame(scalars, 0, wire);
  EXPECT_EQ(static_cast<unsigned char>(payload_of(wire)[2]), kWireVersion);

  // Same for deltas: vector entry ⇒ v4, scalar-only ⇒ v1.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(0, 9);
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(static_cast<unsigned char>(payload_of(wire)[2]), kWireVersion);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(static_cast<unsigned char>(payload_of(wire)[2]), kVectorVersion);
}

TEST(WireStats, MixedFullRoundTripIncludingExtremes) {
  TelemetryFrame frame = mixed_frame(3, 2);
  // Saturation paths: huge counts must decode with a saturated sum,
  // and a max-edge bound must survive the diff encoding.
  Sample extreme = histogram_sample("xx_extreme");
  extreme.bucket_bounds = {1, std::numeric_limits<std::uint64_t>::max()};
  extreme.bucket_counts = {std::numeric_limits<std::uint64_t>::max(),
                           std::numeric_limits<std::uint64_t>::max(), 3};
  frame.samples.push_back(extreme);
  std::string wire;
  encode_full_frame(frame, 77, wire);

  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  ASSERT_EQ(view.samples().size(), 4u);
  const Sample& hist = view.samples()[1];
  EXPECT_EQ(hist.name, "mm_hist");
  EXPECT_EQ(hist.model, ErrorModel::kHistogram);
  EXPECT_EQ(hist.error_bound, 16u);
  EXPECT_EQ(hist.bucket_bounds, (std::vector<std::uint64_t>{10, 100, 500,
                                                            1000}));
  EXPECT_EQ(hist.bucket_counts,
            (std::vector<std::uint64_t>{10, 90, 400, 500, 0}));
  EXPECT_EQ(hist.value, 1000u);
  const Sample& xx = view.samples()[3];
  EXPECT_EQ(xx.bucket_bounds[1], std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(xx.value, std::numeric_limits<std::uint64_t>::max());  // saturated
  // Scalar neighbors are untouched by the vector entries between them.
  EXPECT_EQ(view.samples()[0].value, 7u);
  EXPECT_EQ(view.samples()[2].value, 123456u);
}

TEST(WireStats, TruncationAtEveryLengthRejectsAndLeavesViewUntouched) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string_view payload = payload_of(wire);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    MaterializedView view;
    EXPECT_EQ(view.apply(payload.substr(0, len)), ApplyResult::kCorrupt)
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_TRUE(view.samples().empty());
    EXPECT_EQ(view.sequence(), 0u);
  }
}

TEST(WireStats, ByteFlipFuzzNeverMisdecodes) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string payload(payload_of(wire));
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ flip);
      MaterializedView view;
      const ApplyResult result = view.apply(mutated);
      if (result != ApplyResult::kApplied) {
        // Rejected: the view must be untouched.
        EXPECT_TRUE(view.samples().empty()) << "pos " << pos;
        continue;
      }
      // A flip that survives (e.g. inside a count varint) must still
      // decode into a structurally consistent view: every histogram
      // entry keeps B counts to B−1 finite ascending edges.
      for (const Sample& sample : view.samples()) {
        if (sample.model != ErrorModel::kHistogram) {
          EXPECT_TRUE(sample.bucket_counts.empty());
          continue;
        }
        ASSERT_GE(sample.bucket_counts.size(), 2u) << "pos " << pos;
        ASSERT_EQ(sample.bucket_counts.size(),
                  sample.bucket_bounds.size() + 1)
            << "pos " << pos;
        for (std::size_t e = 1; e < sample.bucket_bounds.size(); ++e) {
          ASSERT_LT(sample.bucket_bounds[e - 1], sample.bucket_bounds[e])
              << "pos " << pos;
        }
      }
    }
  }
}

TEST(WireStats, OversizedBucketCountsRejectedBeforeAllocation) {
  for (const std::uint64_t nbuckets :
       {std::uint64_t{513}, std::uint64_t{1} << 20, std::uint64_t{1} << 60}) {
    std::string payload = raw_header(kVectorVersion, FrameKind::kFull, 1, 1);
    append_uvarint(payload, 1);  // count
    append_uvarint(payload, 1);  // name_len
    payload.push_back('h');
    payload.push_back(static_cast<char>(ErrorModel::kHistogram));
    append_uvarint(payload, 16);        // bound
    append_uvarint(payload, nbuckets);  // absurd claim
    // No body: the claim alone must be rejected (no allocation happens
    // first — a lying length cannot command memory).
    MaterializedView view;
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt)
        << "nbuckets " << nbuckets;
  }
  // nbuckets < 2 is equally meaningless (a histogram has an overflow
  // bucket and at least one finite edge).
  for (const std::uint64_t nbuckets : {std::uint64_t{0}, std::uint64_t{1}}) {
    std::string payload = raw_header(kVectorVersion, FrameKind::kFull, 1, 1);
    append_uvarint(payload, 1);
    append_uvarint(payload, 1);
    payload.push_back('h');
    payload.push_back(static_cast<char>(ErrorModel::kHistogram));
    append_uvarint(payload, 16);
    append_uvarint(payload, nbuckets);
    append_uvarint(payload, 5);  // would-be edge0
    MaterializedView view;
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt)
        << "nbuckets " << nbuckets;
  }
}

TEST(WireStats, BadEdgeEncodingsRejected) {
  // A zero edge diff (edges must strictly ascend)...
  std::string payload = raw_header(kVectorVersion, FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);
  append_uvarint(payload, 1);
  payload.push_back('h');
  payload.push_back(static_cast<char>(ErrorModel::kHistogram));
  append_uvarint(payload, 16);
  append_uvarint(payload, 3);   // nbuckets: 2 finite edges + overflow
  append_uvarint(payload, 10);  // edge0
  append_uvarint(payload, 0);   // zero diff: edges would not ascend
  for (int i = 0; i < 3; ++i) append_uvarint(payload, 1);  // counts
  MaterializedView view;
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);

  // ...and an overflowing diff (edge past 2^64) are both corrupt.
  payload = raw_header(kVectorVersion, FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);
  append_uvarint(payload, 1);
  payload.push_back('h');
  payload.push_back(static_cast<char>(ErrorModel::kHistogram));
  append_uvarint(payload, 16);
  append_uvarint(payload, 3);
  append_uvarint(payload, std::numeric_limits<std::uint64_t>::max());
  append_uvarint(payload, 5);  // wraps past 2^64
  for (int i = 0; i < 3; ++i) append_uvarint(payload, 1);
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
}

TEST(WireStats, VersionSkewRejectedCleanly) {
  // A v1 frame has no vector grammar: a histogram model byte inside it
  // must be rejected, not guessed at.
  std::string payload = raw_header(kWireVersion, FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);
  append_uvarint(payload, 1);
  payload.push_back('h');
  payload.push_back(static_cast<char>(ErrorModel::kHistogram));
  append_uvarint(payload, 16);
  append_uvarint(payload, 42);  // a v1 decoder would read this as value
  MaterializedView view;
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
  EXPECT_TRUE(view.samples().empty());

  // An unknown future version is corrupt for THIS decoder — the exact
  // behavior a v1-era client shows a v4 frame (reject, never misread).
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  std::string future(payload_of(wire));
  future[2] = 6;  // one past kTopKVersion, the newest known revision
  EXPECT_EQ(view.apply(future), ApplyResult::kCorrupt);

  // And a v4 delta against a fresh view is kNeedFull, exactly like v1.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(0, 0, std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  MaterializedView fresh;
  EXPECT_EQ(fresh.apply(payload_of(wire)), ApplyResult::kNeedFull);
}

TEST(WireStats, DeltaShapeMismatchesAreCorruptAndAtomic) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  const std::vector<Sample> before = view.samples();

  // Scalar delta entry aimed at the histogram row.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(1, 4242);
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Vector delta entry aimed at a scalar row.
  entries.clear();
  entries.emplace_back(0, 0, std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Bucket-count mismatch against the row's layout (4 ≠ 5).
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3, 4});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // A single-count vector is never a histogram (nbuckets 1 < 2).
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{7});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // A mixed delta where a LATER entry is malformed: nothing from the
  // earlier (valid) entries may stick — corrupt applies atomically.
  entries.clear();
  entries.emplace_back(0, 999);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  ASSERT_EQ(view.samples().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(view.samples()[i].value, before[i].value) << i;
    EXPECT_EQ(view.samples()[i].bucket_counts, before[i].bucket_counts) << i;
  }
  EXPECT_EQ(view.sequence(), 1u);  // no corrupt frame advanced the view

  // The happy path still works after all those rejections.
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{11, 90, 400, 500, 2});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[1].bucket_counts,
            (std::vector<std::uint64_t>{11, 90, 400, 500, 2}));
  EXPECT_EQ(view.samples()[1].value, 1003u);
  EXPECT_EQ(view.sequence(), 2u);
}

// --- frame-based delta encode ------------------------------------------
//
// The server encodes every delta straight from a published frame
// (encode_delta_frame over DeltaRefs). Its bytes must equal the
// DeltaEntry encoder's over the same rows' copied payloads — one entry
// grammar, one version rule — with each frame's version byte pinned.

/// Five rows in name order: scalar, histogram, multi-byte scalar, top-k,
/// scalar — every delta entry shape, interleaved.
TelemetryFrame every_shape_frame() {
  TelemetryFrame frame;
  frame.sequence = 9;
  frame.registry_version = 31;
  Sample a;
  a.name = "a_scalar";
  a.value = 7;
  frame.samples.push_back(a);
  frame.samples.push_back(histogram_sample("h_hist"));
  Sample m;
  m.name = "m_scalar";
  m.model = ErrorModel::kAdditive;
  m.error_bound = 64;
  m.value = 300;  // a two-byte varint
  frame.samples.push_back(m);
  Sample t;
  t.name = "t_top";
  t.model = ErrorModel::kTopK;
  t.top_labels = {"alpha", "beta"};
  t.bucket_counts = {40, 3};
  t.value = 40;
  frame.samples.push_back(t);
  Sample z;
  z.name = "z_scalar";
  z.value = std::numeric_limits<std::uint64_t>::max();
  frame.samples.push_back(z);
  return frame;
}

/// Encodes `refs` from `frame` both ways and checks the bytes agree and
/// carry `version`. Returns the frame-based encode.
std::string expect_identical_delta(const TelemetryFrame& frame,
                                   std::uint64_t wire_regver,
                                   const std::vector<DeltaRef>& refs,
                                   std::uint8_t version) {
  std::vector<DeltaEntry> entries;
  for (const DeltaRef& ref : refs) {
    const Sample& sample = frame.samples[ref.flat];
    entries.emplace_back(ref.wire, sample.value, sample.bucket_counts,
                         sample.top_labels);
  }
  std::string from_entries;
  encode_delta_frame(frame.sequence, wire_regver, 1234, 8, entries,
                     from_entries);
  std::string from_frame;
  encode_delta_frame(frame, wire_regver, 1234, 8, refs, from_frame);
  EXPECT_EQ(from_frame, from_entries);
  EXPECT_EQ(static_cast<std::uint8_t>(payload_of(from_frame)[2]), version);
  return from_frame;
}

TEST(WireFrameDelta, ScalarRowsMatchTheEntryEncodeAsFrozenV1) {
  const TelemetryFrame frame = every_shape_frame();
  expect_identical_delta(frame, frame.registry_version,
                         {{0, 0}, {2, 2}, {4, 4}}, kWireVersion);
}

TEST(WireFrameDelta, HistogramRowMatchesTheEntryEncodeAsV4) {
  const TelemetryFrame frame = every_shape_frame();
  expect_identical_delta(frame, frame.registry_version,
                         {{0, 0}, {1, 1}, {2, 2}}, kVectorVersion);
}

TEST(WireFrameDelta, TopKRowMatchesTheEntryEncodeAsV5AndApplies) {
  TelemetryFrame frame = every_shape_frame();
  const std::string delta = expect_identical_delta(
      frame, frame.registry_version, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}},
      kTopKVersion);
  // The view at the base sequence takes it and ends up at the frame.
  TelemetryFrame base = frame;
  base.sequence = 8;
  base.samples[0].value = 1;
  base.samples[3].top_labels = {"alpha"};
  base.samples[3].bucket_counts = {2};
  base.samples[3].value = 2;
  std::string full;
  encode_full_frame(base, 0, full);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(full)), ApplyResult::kApplied);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.sequence(), frame.sequence);
  EXPECT_EQ(view.last_collect_ns(), 1234u);
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    EXPECT_EQ(view.samples()[i].value, frame.samples[i].value) << i;
    EXPECT_EQ(view.samples()[i].bucket_counts, frame.samples[i].bucket_counts)
        << i;
    EXPECT_EQ(view.samples()[i].top_labels, frame.samples[i].top_labels) << i;
  }
}

TEST(WireFrameDelta, SubsetRowsShipWireIndicesNotFlatOnes) {
  // A filter group selecting rows {1, 3, 4}: its subscribers' table is
  // that subset, so the delta names rows by subset position (0, 1, 2)
  // and carries the group's pinned wire version, not the frame's.
  TelemetryFrame frame = every_shape_frame();
  const std::vector<std::uint64_t> selection = {1, 3, 4};
  constexpr std::uint64_t kPinned = 30;
  const std::string delta = expect_identical_delta(
      frame, kPinned, {{0, 1}, {1, 3}, {2, 4}}, kTopKVersion);
  TelemetryFrame base = frame;
  base.sequence = 8;
  base.samples[4].value = 5;
  std::string full;
  encode_full_frame_filtered(base, selection, 0, kPinned, full);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(full)), ApplyResult::kApplied);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  ASSERT_EQ(view.samples().size(), selection.size());
  for (std::size_t j = 0; j < selection.size(); ++j) {
    const Sample& want = frame.samples[selection[j]];
    EXPECT_EQ(view.samples()[j].name, want.name) << j;
    EXPECT_EQ(view.samples()[j].value, want.value) << j;
    EXPECT_EQ(view.samples()[j].bucket_counts, want.bucket_counts) << j;
  }
}

TEST(WireFrameDelta, EmptyHeartbeatMatchesTheEntryEncode) {
  const TelemetryFrame frame = every_shape_frame();
  expect_identical_delta(frame, frame.registry_version, {}, kWireVersion);
}

}  // namespace
}  // namespace approx::svc
