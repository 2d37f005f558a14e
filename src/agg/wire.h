// Versioned snapshot wire format (DESIGN.md §11).
//
// One frame type crosses the wire: the FcmFramework snapshot a vantage
// point ships to the AggregationService at an epoch boundary. It carries
// only the state the receiver can neither supply nor derive: the counters
// of the framework's one FCM sketch, its heavy-hitter candidates and its
// cardinality-saturation count. Every option comes from the receiver, who
// configured the fleet; the header's merge fingerprint proves the sender
// ran the same merge-relevant options. Tree hash seeds follow from the
// config and promotion tallies from the counters, so neither travels. The
// framework is reconstructed bit-exactly: every data-plane query (flow
// size, cardinality, heavy hitters) returns the same answer on the
// deserialized framework as on the original, and merge() on deserialized
// replicas is bit-exact with merge() on the in-memory ones
// (tests/test_wire.cpp pins both properties).
//
// Frame layout (all integers little-endian, fixed width, byte-at-a-time —
// no struct dumps, no reinterpret_cast; tools/fcm_lint.py's wire-encoding
// rule bans both in src/agg):
//
//   offset size  field
//   0      4     magic "FCMW"
//   4      2     u16 wire version (kWireVersion)
//   6      1     u8  payload type tag, always 9 (FcmFramework)
//   7      1     u8  reserved, must be zero
//   8      8     u64 merge fingerprint (see below)
//   16     8     u64 payload length; must equal exactly the bytes that follow
//   24     ...   payload: each tree's stage arrays at their stage widths,
//                u64 heavy-hitter count + sorted u32 keys, u64
//                cardinality-saturation count
//
// The merge fingerprint hashes the *merge-relevant* configuration
// (geometry + hash seeds + count mode + heavy-hitter threshold — exactly
// the preconditions FcmFramework::merge() checks, not local policy like EM
// iteration caps). Two frames with equal fingerprints are mergeable; the
// AggregationService rejects mismatches from the header alone, without
// deserializing the payload, and the decoder refuses them too.
//
// Hostile-input posture: the decoder reads through the bounds-checked
// common::ByteCursor (the capture datapath's reader too) and sizes nothing
// from the frame except the heavy-hitter count, which is checked against
// the bytes present before it reserves. Truncated buffers, wrong magic,
// unsupported versions, foreign type tags, non-zero reserved bytes,
// payload-length mismatches, fingerprint mismatches, oversized declared
// counts and out-of-range node values all raise
// fcm::common::ContractViolation (tests/test_wire.cpp, hostile suite). A
// final check_invariants() sweep on the rebuilt framework catches bit flips
// that survive the field-level checks. A forged fingerprint only makes the
// counters decode under the receiver's own geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_cursor.h"
#include "common/contracts.h"
#include "framework/fcm_framework.h"

namespace fcm::agg {

// Bump when the byte layout changes incompatibly. Policy (DESIGN.md §11):
// readers accept exactly their own version; the version byte exists so a
// mixed-fleet rollout fails loudly at the header, not by misparsing state.
inline constexpr std::uint16_t kWireVersion = 4;

// Append-only little-endian encoder. Integers are emitted byte by byte so
// the layout is identical on every host.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xff));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xffff));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xffffffffu));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::byte> bytes() const noexcept { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// Parsed and validated frame header.
struct WireHeader {
  std::uint16_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t payload_bytes = 0;
};

// The (de)serializer for the FcmFramework snapshot. A single class so the
// sketch headers grant exactly one friend; all functions are stateless.
class WireCodec {
 public:
  static std::vector<std::byte> serialize(const framework::FcmFramework& fw);

  // Rebuilds the framework a frame carries; throws ContractViolation on any
  // malformed input (see header comment). Every option is `local`'s: the
  // frame's fingerprint must equal merge_fingerprint(local), and the
  // counters decode into one FcmFramework(local), which analyzes under
  // `local.em` and reports into `local.metrics`.
  static framework::FcmFramework deserialize_framework(
      std::span<const std::byte> buffer,
      const framework::FcmFramework::Options& local);

  // Validates magic, version, type tag, reserved byte, and that
  // payload_bytes matches the buffer exactly; throws ContractViolation.
  static WireHeader peek(std::span<const std::byte> buffer);

  // Merge-compatibility fingerprint of a framework configuration: equal
  // fingerprints guarantee FcmFramework::merge() preconditions hold between
  // snapshots encoded with these options. The AggregationService compares
  // this against WireHeader::fingerprint before deserializing anything.
  static std::uint64_t merge_fingerprint(
      const framework::FcmFramework::Options& options);

 private:
  // One tree's stage arrays (DESIGN.md §11.1), decoded in place into a
  // tree of the receiver's geometry.
  static void encode_tree_state(WireWriter& out, const core::FcmTree& tree);
  static void decode_tree_state(common::ByteCursor& in, core::FcmTree& tree);
};

}  // namespace fcm::agg
