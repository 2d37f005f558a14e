// fcm-lint-path: src/datapath/broken_parse.cpp
//
// Corpus: datapath-bounds — the raw-byte-access spellings banned in the
// capture datapath, where every length field is attacker-controlled, and the
// fixed-extent span spellings that would cut a fixed-width view without
// ByteCursor's bounds check. The clean block at the bottom shows the
// sanctioned ByteCursor idiom plus spellings that must NOT fire (std::memcpy
// outside datapath is someone else's rule; `cursor.data_offset()` is not
// `.data()`; a dynamic-extent span and a `.first <` comparison are fine).
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/byte_cursor.h"

namespace corpus {

struct FakeHeader {
  std::uint32_t magic;
  std::uint32_t caplen;
};

std::uint32_t read_magic_punned(const std::vector<std::byte>& buffer) {
  const auto* header =
      reinterpret_cast<const FakeHeader*>(buffer.data());  // fcm-lint-expect: datapath-bounds
  return header->magic;
}

std::uint32_t read_caplen_copied(const std::vector<std::byte>& buffer) {
  std::uint32_t caplen = 0;
  std::memcpy(&caplen, buffer.data() + 4, sizeof(caplen));  // fcm-lint-expect: datapath-bounds
  return caplen;
}

const std::byte* record_payload(const std::vector<std::byte>& buffer,
                                std::uint32_t caplen) {
  // Unchecked caplen indexing: nothing verified caplen against size().
  return &buffer.data()[caplen];  // fcm-lint-expect: datapath-bounds
}

void scrub(std::vector<std::byte>& buffer) {
  memset(buffer.data(), 0, buffer.size());  // fcm-lint-expect: datapath-bounds
}

// Fixed-extent spans: unchecked windows whose width the type asserts.
std::uint16_t read_ports_fixed(std::span<const std::byte> packet) {
  const auto ports = packet.first<4>();  // fcm-lint-expect: datapath-bounds
  const auto tail = packet.last<2>();  // fcm-lint-expect: datapath-bounds
  const auto middle = packet.template subspan<2, 2>();  // fcm-lint-expect: datapath-bounds
  std::span<const std::byte, 4> header(packet.data(), 4);  // fcm-lint-expect: datapath-bounds
  return static_cast<std::uint16_t>(ports[0]) + static_cast<std::uint16_t>(tail[0]) +
         static_cast<std::uint16_t>(middle[0]) + static_cast<std::uint16_t>(header[0]);
}

std::byte first_byte_deduced(const std::array<std::byte, 4>& raw) {
  std::span deduced(raw);  // fcm-lint-expect-ast: datapath-bounds
  return deduced.front();
}

// --- clean: the sanctioned idiom ----------------------------------------

std::uint32_t read_magic_checked(const std::vector<std::byte>& buffer) {
  fcm::common::ByteCursor cursor(buffer);
  return cursor.take<4>().u32le<0>();  // throws ContractViolation past the end
}

std::uint16_t read_total_length(fcm::common::ByteCursor& cursor) {
  return cursor.take<20>().u16be<2>();  // one bounds check for the header
}

std::size_t dynamic_view_and_pair(std::span<const std::byte> packet,
                                  std::pair<std::size_t, std::size_t> range) {
  const std::span<const std::byte> rest = packet.subspan(range.first);
  return range.first < range.second ? rest.size() : 0;
}

std::uint64_t plain_member_named_like_data(std::uint64_t data_offset) {
  return data_offset + 4;  // identifier contains "data": must not fire
}

}  // namespace corpus
