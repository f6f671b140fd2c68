// spans.hpp — in-memory span recording for the traced fleetbench run.
//
// Each benchmark thread owns one SpanLog: a preallocated vector of
// (name, start, end, parent, items) records written only by that
// thread and read by the main thread after the thread is joined, so no
// span write is ever shared. A span is opened before a call into one
// of the repository's layers and closed after it; `items` counts the
// work units inside (increments, entries, frames) so per-unit costs
// come out of the same record. Names are string literals.
//
// Self time of a span = its duration minus the durations of its direct
// children. SpanTotals folds every log into per-name totals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same log, -1 = root
  std::uint64_t items = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span under the innermost open one; -1 when the log is full
  /// (the span is dropped and counted, never reallocated mid-run).
  std::int32_t open(const char* name) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  void close(std::int32_t id, std::uint64_t items) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    span.items = items;
    open_ = span.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t dropped_ = 0;
};

/// RAII span over an optional log (nullptr = tracing off: no clock read).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }

 private:
  SpanLog* log_;
  std::int32_t id_;
  std::uint64_t items_ = 0;
};

struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t items = 0;
};

/// Per-name totals over any number of logs.
class SpanTotals {
 public:
  void add(const SpanLog& log) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0 && span.end_ns >= span.start_ns) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns < span.start_ns) continue;  // never closed
      const std::uint64_t dur = span.end_ns - span.start_ns;
      SpanTotal& total = totals_[span.name];
      ++total.count;
      total.total_ns += dur;
      total.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
      total.items += span.items;
    }
    dropped_ += log.dropped();
  }

  /// Totals for `name` (all zero when no such span was recorded).
  [[nodiscard]] SpanTotal get(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? SpanTotal{} : it->second;
  }

  /// Nanoseconds per item of `name`'s spans (0 without items).
  [[nodiscard]] double ns_per_item(const std::string& name) const {
    const SpanTotal total = get(name);
    return total.items == 0 ? 0.0
                            : static_cast<double>(total.total_ns) /
                                  static_cast<double>(total.items);
  }

  /// Mean span duration of `name` in nanoseconds (0 without spans).
  [[nodiscard]] double mean_ns(const std::string& name) const {
    const SpanTotal total = get(name);
    return total.count == 0 ? 0.0
                            : static_cast<double>(total.total_ns) /
                                  static_cast<double>(total.count);
  }

  [[nodiscard]] const std::map<std::string, SpanTotal>& all() const {
    return totals_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, SpanTotal> totals_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
