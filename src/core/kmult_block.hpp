// kmult_block.hpp — the one allocation behind a k-multiplicative counter.
//
// Both k-multiplicative counters keep four kinds of state: the switch
// array (kmult_switch_capacity(k) bits, core/help_pack.hpp), the helping
// array H[n], each process's persistent locals, and each process's
// helping baseline (n sequence numbers). KMultBlock places all of it in
// one 64-byte-aligned heap block at offsets fixed at construction, so a
// read reaches every object it touches from one base pointer instead of
// chasing one pointer per array:
//
//   [ switch 0 .. switch capacity−1 ]       padded to whole lines
//   [ Local 0 ] ... [ Local n−1 ]            whole lines each
//   [ H[0] | baseline 0 ] ... [ H[n−1] | baseline n−1 ]
//                                            rows of whole lines
//
// Who writes which line:
//
//   * Local i is written by process i alone, on every increment
//     (lcounter) and by its reads (cursor, diagnostics). It shares no
//     line with another Local, a switch or an H register, so the
//     per-increment writes never invalidate a line another process loads.
//   * Row i holds H[i], written by process i's announces, and process
//     i's helping baseline, written by its reads: lines only process i
//     writes. Other processes load H[i] in their helping scans.
//   * A switch line is written only by test&set winners and losers.
//
// Objects are constructed and destroyed one by one (placement new), so
// InstrumentedBackend switches and registers still draw their ObjectIds
// at construction. switch_at() is the one access path to the switches
// and asserts its index is below the capacity: an overrun would land
// inside this block, where a heap redzone cannot see it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "base/register.hpp"
#include "base/test_and_set.hpp"

namespace approx::core {

template <typename Backend, typename Local>
class KMultBlock {
 public:
  using Switch = base::TasBitT<Backend>;
  using HRegister = base::Register<std::uint64_t, Backend>;

  static constexpr std::size_t kLine = 64;
  static_assert(alignof(Local) == kLine && sizeof(Local) % kLine == 0,
                "each process's Local must fill whole cache lines");

  KMultBlock(unsigned num_processes, std::uint64_t capacity)
      : n_(num_processes),
        capacity_(capacity),
        locals_offset_(whole_lines(capacity * sizeof(Switch))),
        rows_offset_(locals_offset_ + num_processes * sizeof(Local)),
        row_stride_(whole_lines(kBaselineOffset +
                                num_processes * sizeof(std::uint64_t))),
        bytes_(static_cast<std::byte*>(
            ::operator new(rows_offset_ + num_processes * row_stride_,
                           std::align_val_t{kLine}))) {
    for (std::uint64_t i = 0; i < capacity_; ++i) {
      new (bytes_ + i * sizeof(Switch)) Switch();
    }
    for (unsigned pid = 0; pid < n_; ++pid) {
      new (bytes_ + local_offset(pid)) Local();
      new (bytes_ + row_offset(pid)) HRegister();
      std::fill_n(baseline(pid), n_, std::uint64_t{0});
    }
  }

  ~KMultBlock() {
    for (unsigned pid = n_; pid-- > 0;) {
      h(pid).~HRegister();
      local(pid).~Local();
    }
    for (std::uint64_t i = capacity_; i-- > 0;) switch_at(i).~Switch();
    ::operator delete(bytes_, std::align_val_t{kLine});
  }

  KMultBlock(const KMultBlock&) = delete;
  KMultBlock& operator=(const KMultBlock&) = delete;

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// The one access path to the switches.
  Switch& switch_at(std::uint64_t index) const {
    assert(index < capacity_ && "switch index beyond the saturation bound");
    return *at<Switch>(index * sizeof(Switch));
  }

  /// Process `pid`'s persistent locals.
  Local& local(unsigned pid) const { return *at<Local>(local_offset(pid)); }

  /// H[pid], the helping register process `pid` announces on.
  HRegister& h(unsigned pid) const { return *at<HRegister>(row_offset(pid)); }

  /// Process `pid`'s helping baseline: n sequence numbers.
  std::uint64_t* baseline(unsigned pid) const {
    return at<std::uint64_t>(row_offset(pid) + kBaselineOffset);
  }

 private:
  template <typename T>
  T* at(std::size_t offset) const {
    return std::launder(reinterpret_cast<T*>(bytes_ + offset));
  }

  std::size_t local_offset(unsigned pid) const {
    assert(pid < n_);
    return locals_offset_ + pid * sizeof(Local);
  }

  std::size_t row_offset(unsigned pid) const {
    assert(pid < n_);
    return rows_offset_ + pid * row_stride_;
  }

  // The baseline follows H[pid] in its row, 8-byte aligned.
  static constexpr std::size_t kBaselineOffset =
      (sizeof(HRegister) + alignof(std::uint64_t) - 1) /
      alignof(std::uint64_t) * alignof(std::uint64_t);

  static constexpr std::size_t whole_lines(std::size_t bytes) noexcept {
    return (bytes + kLine - 1) / kLine * kLine;
  }

  unsigned n_;
  std::uint64_t capacity_;
  std::size_t locals_offset_;
  std::size_t rows_offset_;
  std::size_t row_stride_;
  std::byte* bytes_;
};

}  // namespace approx::core
