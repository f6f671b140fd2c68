// wire.cpp — telemetry wire format encode/decode (see wire.hpp).
#include "svc/wire.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

namespace approx::svc {
namespace {

/// Longest legal LEB128 encoding of a uint64 (10 × 7 bits ≥ 64).
constexpr int kMaxVarintBytes = 10;

/// Upper bound on the entries reserved up front from an (untrusted)
/// frame count; larger lists grow geometrically as entries actually
/// parse, so a lying count cannot command a huge allocation.
constexpr std::uint64_t kReserveClamp = 4096;

/// Writes `value` as an unsigned LEB128 varint at `p` (room for
/// kMaxVarintBytes); returns one past its last byte.
char* put_uvarint(char* p, std::uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  *p++ = static_cast<char>(value);
  return p;
}

void append_u32le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

/// Patches a u32le length at out[at..at+3] with the byte count
/// assembled after it.
void patch_length_at(std::string& out, std::size_t at) {
  const std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - at - 4);
  out[at] = static_cast<char>(payload & 0xFF);
  out[at + 1] = static_cast<char>((payload >> 8) & 0xFF);
  out[at + 2] = static_cast<char>((payload >> 16) & 0xFF);
  out[at + 3] = static_cast<char>((payload >> 24) & 0xFF);
}

/// Patches the u32le length prefix at out[0..3] once the payload is
/// assembled behind it.
void patch_length_prefix(std::string& out) { patch_length_at(out, 0); }

void sort_dedup(std::vector<std::string>& list) {
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

/// Reads one length-prefixed name list of a SUBSCRIBE body, enforcing
/// the filter limits.
bool read_name_list(const char** cursor, const char* end,
                    std::vector<std::string>& out) {
  std::uint64_t count = 0;
  if (!read_uvarint(cursor, end, count)) return false;
  if (count > kMaxFilterEntries) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!read_uvarint(cursor, end, len)) return false;
    if (len > kMaxFilterNameBytes) return false;
    if (len > static_cast<std::uint64_t>(end - *cursor)) return false;
    out.emplace_back(*cursor, static_cast<std::size_t>(len));
    *cursor += len;
  }
  return true;
}

void append_header(std::string& out, FrameKind kind, std::uint64_t sequence,
                   std::uint64_t registry_version, std::uint64_t collect_ns,
                   std::uint8_t version = kWireVersion) {
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(kind));
  append_uvarint(out, sequence);
  append_uvarint(out, registry_version);
  append_uvarint(out, collect_ns);
}

bool read_u8(const char** cursor, const char* end, std::uint8_t& value) {
  if (*cursor == end) return false;
  value = static_cast<std::uint8_t>(**cursor);
  ++*cursor;
  return true;
}

}  // namespace

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_uvarint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::uint32_t read_u32le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

bool read_uvarint(const char** cursor, const char* end, std::uint64_t& value) {
  std::uint64_t result = 0;
  int shift = 0;
  const char* p = *cursor;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (p == end) return false;  // truncated
    const std::uint8_t byte = static_cast<std::uint8_t>(*p++);
    if (shift == 63 && (byte & 0x7E) != 0) return false;  // overflows u64
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // overlong encoding
}

namespace {

void append_sample(std::string& out, const shard::Sample& sample) {
  append_uvarint(out, sample.name.size());
  out.append(sample.name);
  out.push_back(static_cast<char>(sample.model));
  append_uvarint(out, sample.error_bound);
  if (sample.model == shard::ErrorModel::kTopK) {
    // Labeled entry (v5 grammar): row count, then ranked
    // (label_len, label, value) rows. The top value is NOT shipped
    // separately — decoders derive it from row 0.
    append_uvarint(out, sample.top_labels.size());
    for (std::size_t i = 0; i < sample.top_labels.size(); ++i) {
      append_uvarint(out, sample.top_labels[i].size());
      out.append(sample.top_labels[i]);
      append_uvarint(out, sample.bucket_counts[i]);
    }
    return;
  }
  if (sample.model != shard::ErrorModel::kHistogram) {
    append_uvarint(out, sample.value);
    return;
  }
  // Vector entry (v4 grammar): bucket count, edge0 + ascending diffs,
  // then the counts. The sum is NOT shipped — decoders derive it.
  const std::size_t nbuckets = sample.bucket_counts.size();
  append_uvarint(out, nbuckets);
  for (std::size_t i = 0; i < sample.bucket_bounds.size(); ++i) {
    append_uvarint(out, i == 0 ? sample.bucket_bounds[0]
                               : sample.bucket_bounds[i] -
                                     sample.bucket_bounds[i - 1]);
  }
  for (const std::uint64_t count : sample.bucket_counts) {
    append_uvarint(out, count);
  }
}

/// The version byte one entry requires: 5 for labeled top-k entries, 4
/// for histogram vectors, the frozen v1 for scalars.
std::uint8_t sample_version(const shard::Sample& sample) {
  if (sample.model == shard::ErrorModel::kTopK) return kTopKVersion;
  if (sample.model == shard::ErrorModel::kHistogram) return kVectorVersion;
  return kWireVersion;
}

/// Both full-frame forms: the rows of `selection` (every row when null),
/// labeled `registry_version`. The version byte is the maximum any
/// riding entry requires, so scalar-only frames stay byte-identical to a
/// v1 server's (the compatibility contract).
void encode_full(const shard::TelemetryFrame& frame,
                 const std::vector<std::uint64_t>* selection,
                 std::uint64_t registry_version, std::uint64_t collect_ns,
                 std::string& out) {
  const std::size_t count =
      selection != nullptr ? selection->size() : frame.samples.size();
  const auto row = [&](std::size_t i) -> const shard::Sample& {
    return frame.samples[selection != nullptr
                             ? static_cast<std::size_t>((*selection)[i])
                             : i];
  };
  std::uint8_t version = kWireVersion;
  for (std::size_t i = 0; i < count; ++i) {
    version = std::max(version, sample_version(row(i)));
  }
  out.clear();
  append_u32le(out, 0);  // length prefix, patched below
  append_header(out, FrameKind::kFull, frame.sequence, registry_version,
                collect_ns, version);
  append_uvarint(out, count);
  for (std::size_t i = 0; i < count; ++i) append_sample(out, row(i));
  patch_length_prefix(out);
}

/// One delta entry as both encoders see it: its wire index, scalar value
/// and vector payloads (empty for a scalar; labels only for top-k).
struct DeltaEntryView {
  std::uint64_t index;
  std::uint64_t value;
  const std::vector<std::uint64_t>& buckets;
  const std::vector<std::string>& labels;
};

/// The version rule every delta entry obeys: 5 when it carries labeled
/// top-k rows, 4 when it carries buckets, the frozen v1 for a scalar. A
/// frame is stamped with the maximum over its entries.
std::uint8_t delta_entry_version(const DeltaEntryView& entry) {
  if (!entry.labels.empty()) return kTopKVersion;
  if (!entry.buckets.empty()) return kVectorVersion;
  return kWireVersion;
}

/// Most bytes put_delta_entry can write for `entry`.
std::size_t delta_entry_bound(const DeltaEntryView& entry) {
  std::size_t bytes = 3 * kMaxVarintBytes;  // index, tag, value / nrows
  bytes += entry.buckets.size() * kMaxVarintBytes;
  for (const std::string& label : entry.labels) {
    bytes += kMaxVarintBytes + label.size();
  }
  return bytes;
}

/// The one delta-entry grammar (wire.hpp's delta/delta4/delta5), written
/// at `p`; returns one past the entry's last byte.
char* put_delta_entry(char* p, std::uint8_t version,
                      const DeltaEntryView& entry) {
  p = put_uvarint(p, entry.index);
  if (version == kWireVersion) return put_uvarint(p, entry.value);
  if (!entry.labels.empty()) {
    // v5 top-k entry: tag 1, then ranked (label_len, label, value) rows
    // (labels/buckets are parallel — see DeltaEntry).
    p = put_uvarint(p, 1);
    p = put_uvarint(p, entry.labels.size());
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      p = put_uvarint(p, entry.labels[i].size());
      p = std::copy(entry.labels[i].begin(), entry.labels[i].end(), p);
      p = put_uvarint(p, entry.buckets[i]);
    }
    return p;
  }
  // v4 delta entries are self-describing: nbuckets = 0 marks a scalar.
  p = put_uvarint(p, entry.buckets.size());
  if (entry.buckets.empty()) return put_uvarint(p, entry.value);
  for (const std::uint64_t count : entry.buckets) p = put_uvarint(p, count);
  return p;
}

/// Both encode_delta_frame forms; `view(item)` maps each of `items` to
/// its DeltaEntryView. Most deltas are scalar-only, so the entries are
/// first written as v1 in one pass, into a buffer grown once to the v1
/// bound. The first entry that needs a newer version ends that pass:
/// the version and exact bound are then settled over every entry, and
/// the entries are rewritten at that version.
template <typename Item, typename View>
void encode_delta(std::uint64_t sequence, std::uint64_t registry_version,
                  std::uint64_t collect_ns, std::uint64_t base_seq,
                  const std::vector<Item>& items, const View& view,
                  std::string& out) {
  out.clear();
  append_u32le(out, 0);  // length prefix, patched below
  append_header(out, FrameKind::kDelta, sequence, registry_version,
                collect_ns, kWireVersion);
  const std::size_t body_at = out.size();
  out.resize(body_at + (2 + 2 * items.size()) * kMaxVarintBytes);
  char* p = out.data() + body_at;
  p = put_uvarint(p, base_seq);
  p = put_uvarint(p, items.size());
  const std::size_t entries_at = static_cast<std::size_t>(p - out.data());
  std::size_t scalars = 0;
  for (; scalars < items.size(); ++scalars) {
    const DeltaEntryView entry = view(items[scalars]);
    if (delta_entry_version(entry) != kWireVersion) break;
    p = put_delta_entry(p, kWireVersion, entry);
  }
  if (scalars < items.size()) {
    std::uint8_t version = kWireVersion;
    std::size_t bound = 0;
    for (const Item& item : items) {
      const DeltaEntryView entry = view(item);
      version = std::max(version, delta_entry_version(entry));
      bound += delta_entry_bound(entry);
    }
    out[kFramePrefixBytes + 2] = static_cast<char>(version);  // after magic
    out.resize(entries_at + bound);
    p = out.data() + entries_at;
    for (const Item& item : items) p = put_delta_entry(p, version, view(item));
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  patch_length_prefix(out);
}

}  // namespace

void encode_full_frame(const shard::TelemetryFrame& frame,
                       std::uint64_t collect_ns, std::string& out) {
  encode_full(frame, nullptr, frame.registry_version, collect_ns, out);
}

void encode_full_frame_filtered(const shard::TelemetryFrame& frame,
                                const std::vector<std::uint64_t>& selection,
                                std::uint64_t collect_ns,
                                std::uint64_t registry_version,
                                std::string& out) {
  encode_full(frame, &selection, registry_version, collect_ns, out);
}

void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const std::vector<DeltaEntry>& entries,
                        std::string& out) {
  encode_delta(sequence, registry_version, collect_ns, base_seq, entries,
               [](const DeltaEntry& entry) {
                 return DeltaEntryView{entry.index, entry.value,
                                       entry.buckets, entry.labels};
               },
               out);
}

void encode_delta_frame(const shard::TelemetryFrame& frame,
                        std::uint64_t wire_regver, std::uint64_t collect_ns,
                        std::uint64_t base_seq,
                        const std::vector<DeltaRef>& refs, std::string& out) {
  encode_delta(frame.sequence, wire_regver, collect_ns, base_seq, refs,
               [&frame](const DeltaRef& ref) {
                 const shard::Sample& sample =
                     frame.samples[static_cast<std::size_t>(ref.flat)];
                 return DeltaEntryView{ref.wire, sample.value,
                                       sample.bucket_counts,
                                       sample.top_labels};
               },
               out);
}

bool SubscriptionFilter::matches(std::string_view name) const {
  if (pass_all()) return true;
  for (const std::string& candidate : exact) {
    if (name == candidate) return true;
  }
  for (const std::string& prefix : prefixes) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

void SubscriptionFilter::normalize() {
  sort_dedup(exact);
  sort_dedup(prefixes);
}

std::string SubscriptionFilter::canonical_key() const {
  // Length-prefixed concatenation: injective over arbitrary name bytes.
  // This IS the SUBSCRIBE cbody layout (see the header grammar) —
  // encode_subscribe_record appends it verbatim, so group identity and
  // wire encoding cannot drift apart.
  std::string key;
  append_uvarint(key, exact.size());
  for (const std::string& name : exact) {
    append_uvarint(key, name.size());
    key.append(name);
  }
  append_uvarint(key, prefixes.size());
  for (const std::string& prefix : prefixes) {
    append_uvarint(key, prefix.size());
    key.append(prefix);
  }
  return key;
}

bool SubscriptionFilter::within_limits() const noexcept {
  if (exact.size() > kMaxFilterEntries ||
      prefixes.size() > kMaxFilterEntries) {
    return false;
  }
  for (const std::string& name : exact) {
    if (name.size() > kMaxFilterNameBytes) return false;
  }
  for (const std::string& prefix : prefixes) {
    if (prefix.size() > kMaxFilterNameBytes) return false;
  }
  return true;
}

namespace {

void append_control_header(std::string& out, FrameKind kind,
                           std::uint8_t version = kControlVersion) {
  out.push_back(static_cast<char>(kControlByte));
  append_u32le(out, 0);  // payload length, patched by the caller
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(kind));
}

}  // namespace

bool encode_subscribe_record(const SubscriptionFilter& filter,
                             std::string& out) {
  out.clear();
  if (!filter.within_limits()) return false;
  append_control_header(out, FrameKind::kSubscribe);
  out.append(filter.canonical_key());  // == the cbody grammar, verbatim
  patch_length_at(out, 1);
  return true;
}

void encode_resync_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kResync);
  patch_length_at(out, 1);
}

void encode_shm_request_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kShmRequest, kShmVersion);
  patch_length_at(out, 1);
}

void encode_shm_accept_record(std::uint64_t generation, std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kShmAccept, kShmVersion);
  append_uvarint(out, generation);
  patch_length_at(out, 1);
}

void encode_metricsz_request_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kMetricszRequest, kTopKVersion);
  patch_length_at(out, 1);
}

void encode_metricsz_frame(std::uint64_t sequence,
                           std::uint64_t registry_version,
                           std::uint64_t collect_ns, std::string_view text,
                           std::string& out) {
  out.clear();
  append_u32le(out, 0);  // stream length prefix, patched below
  append_header(out, FrameKind::kMetricsz, sequence, registry_version,
                collect_ns, kTopKVersion);
  out.append(text);
  patch_length_prefix(out);
}

bool decode_metricsz(std::string_view payload, std::string& text) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  std::uint8_t magic0 = 0;
  std::uint8_t magic1 = 0;
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  if (!read_u8(&cursor, end, magic0) || !read_u8(&cursor, end, magic1) ||
      !read_u8(&cursor, end, version) || !read_u8(&cursor, end, kind)) {
    return false;
  }
  if (magic0 != kWireMagic0 || magic1 != kWireMagic1 ||
      version != kTopKVersion ||
      static_cast<FrameKind>(kind) != FrameKind::kMetricsz) {
    return false;
  }
  std::uint64_t sequence = 0;
  std::uint64_t registry_version = 0;
  std::uint64_t collect_ns = 0;
  if (!read_uvarint(&cursor, end, sequence) ||
      !read_uvarint(&cursor, end, registry_version) ||
      !read_uvarint(&cursor, end, collect_ns)) {
    return false;
  }
  text.assign(cursor, static_cast<std::size_t>(end - cursor));
  return true;
}

bool encode_shm_offer_frame(const ShmOffer& offer, std::string& out) {
  out.clear();
  if (offer.name.empty() || offer.name.size() > kMaxShmNameBytes) return false;
  append_u32le(out, 0);  // stream length prefix, patched below
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(kShmVersion));
  out.push_back(static_cast<char>(FrameKind::kShmOffer));
  append_uvarint(out, offer.name.size());
  out.append(offer.name);
  append_uvarint(out, offer.generation);
  append_uvarint(out, offer.slot_count);
  append_uvarint(out, offer.slot_payload_bytes);
  patch_length_prefix(out);
  return true;
}

bool decode_shm_offer(std::string_view payload, ShmOffer& out) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  std::uint8_t magic0 = 0;
  std::uint8_t magic1 = 0;
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  if (!read_u8(&cursor, end, magic0) || !read_u8(&cursor, end, magic1) ||
      !read_u8(&cursor, end, version) || !read_u8(&cursor, end, kind)) {
    return false;
  }
  if (magic0 != kWireMagic0 || magic1 != kWireMagic1 ||
      version != kShmVersion ||
      static_cast<FrameKind>(kind) != FrameKind::kShmOffer) {
    return false;
  }
  std::uint64_t name_len = 0;
  if (!read_uvarint(&cursor, end, name_len) ||
      name_len == 0 || name_len > kMaxShmNameBytes ||
      name_len > static_cast<std::uint64_t>(end - cursor)) {
    return false;
  }
  out.name.assign(cursor, static_cast<std::size_t>(name_len));
  cursor += name_len;
  std::uint64_t slot_count = 0;
  if (!read_uvarint(&cursor, end, out.generation) ||
      !read_uvarint(&cursor, end, slot_count) ||
      !read_uvarint(&cursor, end, out.slot_payload_bytes)) {
    return false;
  }
  if (out.generation == 0 || slot_count == 0 ||
      slot_count > std::numeric_limits<std::uint32_t>::max() ||
      out.slot_payload_bytes == 0) {
    return false;
  }
  out.slot_count = static_cast<std::uint32_t>(slot_count);
  return cursor == end;  // trailing garbage = not our frame
}

bool decode_control_payload(std::string_view payload, ControlFrame& out) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  std::uint8_t magic0 = 0;
  std::uint8_t magic1 = 0;
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  if (!read_u8(&cursor, end, magic0) || !read_u8(&cursor, end, magic1) ||
      !read_u8(&cursor, end, version) || !read_u8(&cursor, end, kind)) {
    return false;
  }
  if (magic0 != kWireMagic0 || magic1 != kWireMagic1) return false;
  out.filter = SubscriptionFilter{};
  out.shm_generation = 0;
  // Each control kind is checked against the version that introduced
  // it: SUBSCRIBE/RESYNC are v2, SHM_REQUEST/SHM_ACCEPT are v3,
  // METRICSZ_REQUEST is v5.
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kSubscribe:
      if (version != kControlVersion) return false;
      out.kind = FrameKind::kSubscribe;
      if (!read_name_list(&cursor, end, out.filter.exact) ||
          !read_name_list(&cursor, end, out.filter.prefixes)) {
        return false;
      }
      if (cursor != end) return false;  // trailing garbage
      out.filter.normalize();
      return true;
    case FrameKind::kResync:
      if (version != kControlVersion) return false;
      out.kind = FrameKind::kResync;
      return cursor == end;  // resync carries no body
    case FrameKind::kShmRequest:
      if (version != kShmVersion) return false;
      out.kind = FrameKind::kShmRequest;
      return cursor == end;  // request carries no body
    case FrameKind::kShmAccept:
      if (version != kShmVersion) return false;
      out.kind = FrameKind::kShmAccept;
      if (!read_uvarint(&cursor, end, out.shm_generation) ||
          out.shm_generation == 0) {
        return false;
      }
      return cursor == end;
    case FrameKind::kMetricszRequest:
      if (version != kTopKVersion) return false;
      out.kind = FrameKind::kMetricszRequest;
      return cursor == end;  // request carries no body
    default:
      return false;
  }
}

ApplyResult MaterializedView::apply(std::string_view payload) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  std::uint8_t magic0 = 0;
  std::uint8_t magic1 = 0;
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  if (!read_u8(&cursor, end, magic0) || !read_u8(&cursor, end, magic1) ||
      !read_u8(&cursor, end, version) || !read_u8(&cursor, end, kind)) {
    return ApplyResult::kCorrupt;
  }
  if (magic0 != kWireMagic0 || magic1 != kWireMagic1 ||
      (version != kWireVersion && version != kVectorVersion &&
       version != kTopKVersion)) {
    return ApplyResult::kCorrupt;
  }
  std::uint64_t sequence = 0;
  std::uint64_t registry_version = 0;
  std::uint64_t collect_ns = 0;
  if (!read_uvarint(&cursor, end, sequence) ||
      !read_uvarint(&cursor, end, registry_version) ||
      !read_uvarint(&cursor, end, collect_ns)) {
    return ApplyResult::kCorrupt;
  }
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kFull:
      return apply_full(cursor, end, sequence, registry_version, collect_ns,
                        version);
    case FrameKind::kDelta:
      return apply_delta(cursor, end, sequence, registry_version, collect_ns,
                         version);
    default:
      return ApplyResult::kCorrupt;
  }
}

namespace {

/// Parses a v4 vector body (nbuckets already read) into the sample's
/// bucket vectors and derives the scalar value as the saturated count
/// sum. False on any malformed byte: a bucket count beyond the limit or
/// the remaining bytes, a zero/overflowing edge diff, truncation.
bool read_vector_body(const char** cursor, const char* end,
                      std::uint64_t nbuckets, shard::Sample& sample) {
  if (nbuckets < 2 || nbuckets > kMaxWireBuckets) return false;
  // Plausibility before any allocation: nbuckets−1 edges + nbuckets
  // counts, each at least one byte.
  if (2 * nbuckets - 1 > static_cast<std::uint64_t>(end - *cursor)) {
    return false;
  }
  sample.bucket_bounds.resize(static_cast<std::size_t>(nbuckets) - 1);
  std::uint64_t edge = 0;
  for (std::size_t i = 0; i + 1 < nbuckets; ++i) {
    std::uint64_t piece = 0;
    if (!read_uvarint(cursor, end, piece)) return false;
    if (i == 0) {
      edge = piece;
    } else {
      // Diffs are strictly positive and must not wrap: edges ascend.
      if (piece == 0 || piece > ~std::uint64_t{0} - edge) return false;
      edge += piece;
    }
    sample.bucket_bounds[i] = edge;
  }
  sample.bucket_counts.resize(static_cast<std::size_t>(nbuckets));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nbuckets; ++i) {
    if (!read_uvarint(cursor, end, sample.bucket_counts[i])) return false;
    total = base::sat_add(total, sample.bucket_counts[i]);
  }
  sample.value = total;
  return true;
}

/// Parses a v5 top-k row list (nrows already read) into parallel
/// label/value vectors. False on any malformed byte: a row count or
/// label length beyond the limits or the remaining bytes, truncation,
/// or values not descending (rows ride ranked — see wire.hpp).
bool read_topk_rows(const char** cursor, const char* end, std::uint64_t nrows,
                    std::vector<std::string>& labels,
                    std::vector<std::uint64_t>& values) {
  if (nrows > kMaxWireTopKRows) return false;
  // Plausibility before any allocation: each row is at least a
  // label_len byte + a value byte.
  if (2 * nrows > static_cast<std::uint64_t>(end - *cursor)) return false;
  labels.clear();
  values.clear();
  labels.reserve(static_cast<std::size_t>(nrows));
  values.reserve(static_cast<std::size_t>(nrows));
  for (std::uint64_t i = 0; i < nrows; ++i) {
    std::uint64_t label_len = 0;
    if (!read_uvarint(cursor, end, label_len) ||
        label_len > kMaxTopKLabelBytes ||
        label_len > static_cast<std::uint64_t>(end - *cursor)) {
      return false;
    }
    labels.emplace_back(*cursor, static_cast<std::size_t>(label_len));
    *cursor += label_len;
    std::uint64_t value = 0;
    if (!read_uvarint(cursor, end, value)) return false;
    if (!values.empty() && value > values.back()) return false;  // not ranked
    values.push_back(value);
  }
  return true;
}

}  // namespace

ApplyResult MaterializedView::apply_full(const char* cursor, const char* end,
                                         std::uint64_t sequence,
                                         std::uint64_t registry_version,
                                         std::uint64_t collect_ns,
                                         std::uint8_t version) {
  std::uint64_t count = 0;
  if (!read_uvarint(&cursor, end, count)) return ApplyResult::kCorrupt;
  // Each entry costs ≥ 4 payload bytes (empty name: len + model + bound
  // + value); reject counts the remaining bytes cannot possibly hold
  // before reserving anything, and clamp the reserve regardless — a
  // corrupt-but-length-valid frame must cost O(bytes actually parsed),
  // not a count-sized allocation up front.
  if (count > static_cast<std::uint64_t>(end - cursor) / 4) {
    return ApplyResult::kCorrupt;
  }
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kReserveClamp)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t name_len = 0;
    if (!read_uvarint(&cursor, end, name_len)) return ApplyResult::kCorrupt;
    if (name_len > static_cast<std::uint64_t>(end - cursor)) {
      return ApplyResult::kCorrupt;
    }
    shard::Sample sample;
    sample.name.assign(cursor, static_cast<std::size_t>(name_len));
    cursor += name_len;
    std::uint8_t model = 0;
    if (!read_u8(&cursor, end, model)) return ApplyResult::kCorrupt;
    // The v1 grammar tops out at kAdditive, v4 adds kHistogram, v5 adds
    // kTopK; a frame may only carry model bytes its version byte admits
    // (old decoders already rejected the version byte, so no revision
    // can misread another's entries).
    const std::uint8_t max_model = static_cast<std::uint8_t>(
        version >= kTopKVersion
            ? shard::ErrorModel::kTopK
            : (version == kVectorVersion ? shard::ErrorModel::kHistogram
                                         : shard::ErrorModel::kAdditive));
    if (model > max_model) return ApplyResult::kCorrupt;
    sample.model = static_cast<shard::ErrorModel>(model);
    if (!read_uvarint(&cursor, end, sample.error_bound)) {
      return ApplyResult::kCorrupt;
    }
    if (sample.model == shard::ErrorModel::kTopK) {
      std::uint64_t nrows = 0;
      if (!read_uvarint(&cursor, end, nrows) ||
          !read_topk_rows(&cursor, end, nrows, sample.top_labels,
                          sample.bucket_counts)) {
        return ApplyResult::kCorrupt;
      }
      sample.value =
          sample.bucket_counts.empty() ? 0 : sample.bucket_counts.front();
    } else if (sample.model == shard::ErrorModel::kHistogram) {
      std::uint64_t nbuckets = 0;
      if (!read_uvarint(&cursor, end, nbuckets) ||
          !read_vector_body(&cursor, end, nbuckets, sample)) {
        return ApplyResult::kCorrupt;
      }
    } else if (!read_uvarint(&cursor, end, sample.value)) {
      return ApplyResult::kCorrupt;
    }
    scratch_.push_back(std::move(sample));
  }
  if (cursor != end) return ApplyResult::kCorrupt;  // trailing garbage
  // A replayed/reordered full frame from the past must not roll the view
  // back. Same sequence domain only (same registry version); a version
  // change restarts the table, so its full frame always applies.
  if (registry_version == registry_version_ && sequence <= sequence_) {
    ++stale_frames_skipped_;
    return ApplyResult::kApplied;
  }
  samples_.swap(scratch_);
  entry_update_seq_.assign(samples_.size(), sequence);
  sequence_ = sequence;
  registry_version_ = registry_version;
  collect_ns_ = collect_ns;
  last_data_sequence_ = sequence;  // a (re)based table is fresh data
  last_data_collect_ns_ = collect_ns;
  rebase_pending_ = false;  // the awaited re-basing full, if one was due
  ++frames_applied_;
  ++full_frames_;
  entries_updated_ += samples_.size();
  return ApplyResult::kApplied;
}

ApplyResult MaterializedView::apply_delta(const char* cursor, const char* end,
                                          std::uint64_t sequence,
                                          std::uint64_t registry_version,
                                          std::uint64_t collect_ns,
                                          std::uint8_t version) {
  const bool vectors = version >= kVectorVersion;
  std::uint64_t base_seq = 0;
  std::uint64_t count = 0;
  if (!read_uvarint(&cursor, end, base_seq) ||
      !read_uvarint(&cursor, end, count)) {
    return ApplyResult::kCorrupt;
  }
  if (count > static_cast<std::uint64_t>(end - cursor) / 2) {
    return ApplyResult::kCorrupt;  // ≥ 2 bytes per entry; count is a lie
  }
  // Parse the whole entry list into scratch before touching the view:
  // a corrupt tail must not leave a half-applied frame. Clamped reserve
  // as in apply_full: allocation follows what actually parses.
  delta_scratch_.clear();
  delta_scratch_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kReserveClamp)));
  for (std::uint64_t i = 0; i < count; ++i) {
    DeltaEntry entry;
    if (!read_uvarint(&cursor, end, entry.index)) {
      return ApplyResult::kCorrupt;
    }
    if (!vectors) {
      if (!read_uvarint(&cursor, end, entry.value)) {
        return ApplyResult::kCorrupt;
      }
    } else {
      // v4/v5 entries are self-describing: the tag in the nbuckets
      // position marks a scalar (0), a v5 top-k row list (1 — never a
      // legal bucket count), or a histogram's bucket count (≥ 2).
      std::uint64_t tag = 0;
      if (!read_uvarint(&cursor, end, tag)) {
        return ApplyResult::kCorrupt;
      }
      if (tag == 0) {
        if (!read_uvarint(&cursor, end, entry.value)) {
          return ApplyResult::kCorrupt;
        }
      } else if (tag == 1) {
        std::uint64_t nrows = 0;
        if (version < kTopKVersion ||
            !read_uvarint(&cursor, end, nrows) ||
            !read_topk_rows(&cursor, end, nrows, entry.labels,
                            entry.buckets)) {
          return ApplyResult::kCorrupt;
        }
        // A changed top-k directory always has rows; an empty list can
        // only be a malformed frame (and would alias a scalar's shape
        // downstream).
        if (entry.labels.empty()) return ApplyResult::kCorrupt;
        entry.value = entry.buckets.front();
      } else {
        const std::uint64_t nbuckets = tag;
        if (nbuckets > kMaxWireBuckets ||
            nbuckets > static_cast<std::uint64_t>(end - cursor)) {
          return ApplyResult::kCorrupt;  // ≥ 1 byte per count
        }
        entry.buckets.resize(static_cast<std::size_t>(nbuckets));
        std::uint64_t total = 0;
        for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
          if (!read_uvarint(&cursor, end, entry.buckets[b])) {
            return ApplyResult::kCorrupt;
          }
          total = base::sat_add(total, entry.buckets[b]);
        }
        entry.value = total;
      }
    }
    if (entry.index >= samples_.size() && full_frames_ > 0 &&
        registry_version == registry_version_) {
      return ApplyResult::kCorrupt;  // index beyond the agreed name table
    }
    delta_scratch_.push_back(std::move(entry));
  }
  if (cursor != end) return ApplyResult::kCorrupt;
  // Deltas need an agreed base: same name table and no sequence gap.
  if (full_frames_ == 0 || registry_version != registry_version_ ||
      base_seq > sequence_) {
    return ApplyResult::kNeedFull;
  }
  if (sequence <= sequence_) {
    ++stale_frames_skipped_;  // duplicate/older delta; view already newer
    return ApplyResult::kApplied;
  }
  // Validate every entry against the agreed table BEFORE mutating: each
  // entry's shape (scalar / histogram counts / top-k rows) must match
  // its row's model — a histogram entry must match its row's bucket
  // count exactly, a top-k entry may only land on a top-k row (row
  // counts may grow as labels are admitted) — and a failed check must
  // leave the view untouched.
  for (const DeltaEntry& entry : delta_scratch_) {
    if (entry.index >= samples_.size()) return ApplyResult::kCorrupt;
    const shard::Sample& target = samples_[entry.index];
    if (!entry.labels.empty()) {
      if (target.model != shard::ErrorModel::kTopK) {
        return ApplyResult::kCorrupt;
      }
    } else if (!entry.buckets.empty()) {
      if (target.model != shard::ErrorModel::kHistogram ||
          entry.buckets.size() != target.bucket_counts.size()) {
        return ApplyResult::kCorrupt;
      }
    } else if (target.model == shard::ErrorModel::kHistogram ||
               target.model == shard::ErrorModel::kTopK) {
      return ApplyResult::kCorrupt;
    }
  }
  for (const DeltaEntry& entry : delta_scratch_) {
    shard::Sample& target = samples_[entry.index];
    if (!entry.labels.empty()) target.top_labels = entry.labels;
    if (!entry.buckets.empty()) target.bucket_counts = entry.buckets;
    target.value = entry.value;
    entry_update_seq_[entry.index] = sequence;
  }
  entries_updated_ += delta_scratch_.size();
  sequence_ = sequence;
  collect_ns_ = collect_ns;
  if (delta_scratch_.empty()) {
    ++heartbeat_frames_;  // stream freshness only; the data did not move
  } else {
    last_data_sequence_ = sequence;
    last_data_collect_ns_ = collect_ns;
  }
  ++frames_applied_;
  ++delta_frames_;
  return ApplyResult::kApplied;
}

}  // namespace approx::svc
