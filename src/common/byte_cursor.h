// Bounds-checked cursor over a read-only byte buffer: the one reader for
// untrusted bytes, shared by the capture datapath (src/datapath, DESIGN.md
// §12.1) and the wire decoder (src/agg, DESIGN.md §11). tools/fcm_lint.py's
// "datapath-bounds" rule bans raw pointer arithmetic, memcpy/reinterpret_cast
// and fixed-extent span construction in src/datapath, so capture bytes are
// indexed only through this header.
//
// Hostile-input posture: every read is preceded by an explicit capacity
// check, multi-byte integers are assembled byte by byte in the requested
// endianness (no type punning, no alignment assumptions), and overrunning
// reads throw ContractViolation without advancing. Parsers that must not
// throw on malformed input (the per-packet paths) call can_read() first and
// turn shortfalls into typed outcomes.
//
// A fixed-layout header is read through one checked take<N>()/peek<N>(),
// which yields a FixedBytes<N> view: its fields sit at compile-time offsets
// that static_assert against N, so the header costs one bounds check rather
// than one per byte. The cursor's own multi-byte reads (u16le, u32le, u64le,
// ...) are take<N>() of their width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/contracts.h"

namespace fcm::common {

// N bytes that a ByteCursor has already checked. Only ByteCursor::take and
// ByteCursor::peek construct one, so holding a view proves the check ran.
template <std::size_t N>
class FixedBytes {
 public:
  template <std::size_t At>
  std::uint8_t u8() const noexcept {
    static_assert(At + 1 <= N, "FixedBytes: u8 past the end of the view");
    return static_cast<std::uint8_t>(bytes_[At]);
  }

  template <std::size_t At>
  std::uint16_t u16le() const noexcept {
    static_assert(At + 2 <= N, "FixedBytes: u16 past the end of the view");
    return static_cast<std::uint16_t>(u8<At>() | (u8<At + 1>() << 8));
  }
  template <std::size_t At>
  std::uint16_t u16be() const noexcept {
    static_assert(At + 2 <= N, "FixedBytes: u16 past the end of the view");
    return static_cast<std::uint16_t>((u8<At>() << 8) | u8<At + 1>());
  }
  template <std::size_t At>
  std::uint16_t u16(bool big_endian) const noexcept {
    return big_endian ? u16be<At>() : u16le<At>();
  }

  template <std::size_t At>
  std::uint32_t u32le() const noexcept {
    static_assert(At + 4 <= N, "FixedBytes: u32 past the end of the view");
    return std::uint32_t{u16le<At>()} |
           (std::uint32_t{u16le<At + 2>()} << 16);
  }
  template <std::size_t At>
  std::uint32_t u32be() const noexcept {
    static_assert(At + 4 <= N, "FixedBytes: u32 past the end of the view");
    return (std::uint32_t{u16be<At>()} << 16) | u16be<At + 2>();
  }
  template <std::size_t At>
  std::uint32_t u32(bool big_endian) const noexcept {
    return big_endian ? u32be<At>() : u32le<At>();
  }

  template <std::size_t At>
  std::uint64_t u64le() const noexcept {
    static_assert(At + 8 <= N, "FixedBytes: u64 past the end of the view");
    return std::uint64_t{u32le<At>()} | (std::uint64_t{u32le<At + 4>()} << 32);
  }

 private:
  friend class ByteCursor;
  explicit constexpr FixedBytes(std::span<const std::byte, N> bytes) noexcept
      : bytes_(bytes) {}

  std::span<const std::byte, N> bytes_;
};

class ByteCursor {
 public:
  constexpr ByteCursor() = default;
  explicit constexpr ByteCursor(std::span<const std::byte> data) : data_(data) {}

  constexpr std::size_t offset() const noexcept { return pos_; }
  constexpr std::size_t size() const noexcept { return data_.size(); }
  constexpr std::size_t remaining() const noexcept { return data_.size() - pos_; }
  constexpr bool can_read(std::size_t bytes) const noexcept {
    return bytes <= remaining();
  }

  void skip(std::size_t bytes) {
    FCM_REQUIRE(can_read(bytes), "ByteCursor: skip past end of buffer");
    pos_ += bytes;
  }

  // Carves the next `bytes` as an independent cursor (e.g. one capture block)
  // and advances past them — downstream reads cannot escape the carved range.
  ByteCursor sub(std::size_t bytes) {
    FCM_REQUIRE(can_read(bytes), "ByteCursor: sub-range past end of buffer");
    ByteCursor sub_cursor(data_.subspan(pos_, bytes));
    pos_ += bytes;
    return sub_cursor;
  }

  std::span<const std::byte> bytes(std::size_t count) {
    FCM_REQUIRE(can_read(count), "ByteCursor: read past end of buffer");
    std::span<const std::byte> view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
  }

  // The next N bytes as one checked fixed-layout view, consumed.
  template <std::size_t N>
  FixedBytes<N> take() {
    FCM_REQUIRE(can_read(N), "ByteCursor: take past end of buffer");
    const FixedBytes<N> view(data_.subspan(pos_).first<N>());
    pos_ += N;
    return view;
  }

  // The next N bytes as one checked fixed-layout view, not consumed.
  template <std::size_t N>
  FixedBytes<N> peek() const {
    FCM_REQUIRE(can_read(N), "ByteCursor: peek past end of buffer");
    return FixedBytes<N>(data_.subspan(pos_).first<N>());
  }

  std::uint8_t u8() {
    FCM_REQUIRE(can_read(1), "ByteCursor: u8 past end of buffer");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16le() { return take<2>().u16le<0>(); }
  std::uint16_t u16be() { return take<2>().u16be<0>(); }
  std::uint16_t u16(bool big_endian) { return big_endian ? u16be() : u16le(); }
  std::uint32_t u32le() { return take<4>().u32le<0>(); }
  std::uint64_t u64le() { return take<8>().u64le<0>(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace fcm::common
