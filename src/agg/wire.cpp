#include "agg/wire.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/hash.h"

namespace fcm::agg {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'F', 'C', 'M', 'W'};
constexpr std::size_t kFrameHeaderBytes = 24;
constexpr std::uint64_t kFingerprintSalt = 0xfc3a'9617'57a9'e001ull;
// The one payload type tag; peek() rejects every other value.
constexpr std::uint8_t kFrameworkTag = 9;

// Smallest fixed width that holds a b-bit stage's overflow marker 2^b - 1.
std::uint64_t stage_elem_bytes(unsigned bits) {
  return bits <= 8 ? 1 : bits <= 16 ? 2 : 4;
}

// Contract guard for array decodes: `count` elements of `element_bytes`
// each must still be present. Called BEFORE any reserve/resize so a hostile
// declared count cannot amplify into a giant allocation.
void require_payload(const common::ByteCursor& in, std::uint64_t count,
                     std::uint64_t element_bytes) {
  FCM_REQUIRE(element_bytes == 0 || count <= in.remaining() / element_bytes,
              "wire: declared element count exceeds the bytes present "
              "(truncated or hostile buffer)");
}

// The geometry and hash-family seed, as the merge fingerprint hashes them.
void encode_config(WireWriter& out, const core::FcmConfig& config) {
  out.u32(static_cast<std::uint32_t>(config.tree_count));
  out.u32(static_cast<std::uint32_t>(config.k));
  out.u64(config.leaf_count);
  out.u64(config.seed);
  out.u8(static_cast<std::uint8_t>(config.stage_count()));
  for (const unsigned bits : config.stage_bits) {
    out.u8(static_cast<std::uint8_t>(bits));
  }
}

std::uint64_t fingerprint_bytes(std::span<const std::byte> bytes) {
  std::uint64_t h = kFingerprintSalt;
  for (const std::byte b : bytes) {
    h = common::mix64(h ^ std::to_integer<std::uint64_t>(b));
  }
  // One more round so trailing zero bytes still perturb the result.
  return common::mix64(h ^ bytes.size());
}

}  // namespace

// --- fingerprint ------------------------------------------------------------

std::uint64_t WireCodec::merge_fingerprint(
    const framework::FcmFramework::Options& options) {
  WireWriter w;
  w.u8(kFrameworkTag);
  encode_config(w, options.fcm);
  w.u64(options.heavy_hitter_threshold);
  w.u8(static_cast<std::uint8_t>(options.count_mode));
  return fingerprint_bytes(w.bytes());
}

// --- frame header ---------------------------------------------------------

WireHeader WireCodec::peek(std::span<const std::byte> buffer) {
  FCM_REQUIRE(buffer.size() >= kFrameHeaderBytes,
              "wire: buffer shorter than the frame header");
  common::ByteCursor in(buffer);
  for (const std::uint8_t expected : kMagic) {
    FCM_REQUIRE(in.u8() == expected, "wire: bad magic (not an FCMW buffer)");
  }
  WireHeader header;
  header.version = in.u16le();
  FCM_REQUIRE(header.version == kWireVersion,
              "wire: unsupported wire version " +
                  std::to_string(header.version) + " (this build reads " +
                  std::to_string(kWireVersion) + ")");
  const std::uint8_t tag = in.u8();
  FCM_REQUIRE(tag == kFrameworkTag,
              "wire: unknown payload type tag " + std::to_string(tag));
  FCM_REQUIRE(in.u8() == 0, "wire: reserved header byte is non-zero");
  header.fingerprint = in.u64le();
  header.payload_bytes = in.u64le();
  FCM_REQUIRE(header.payload_bytes == buffer.size() - kFrameHeaderBytes,
              "wire: declared payload length does not match the buffer "
              "(truncated or padded)");
  return header;
}

// --- FcmTree ----------------------------------------------------------------

void WireCodec::encode_tree_state(WireWriter& out, const core::FcmTree& tree) {
  const core::FcmConfig& config = tree.config();
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    const std::uint64_t elem = stage_elem_bytes(config.stage_bits[l - 1]);
    for (const std::uint32_t value : tree.stages_[l - 1]) {
      if (elem == 1) {
        out.u8(static_cast<std::uint8_t>(value));
      } else if (elem == 2) {
        out.u16(static_cast<std::uint16_t>(value));
      } else {
        out.u32(value);
      }
    }
  }
}

void WireCodec::decode_tree_state(common::ByteCursor& in, core::FcmTree& tree) {
  const core::FcmConfig& config = tree.config();
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    const std::uint64_t elem = stage_elem_bytes(config.stage_bits[l - 1]);
    const std::size_t width = config.width(l);
    require_payload(in, width, elem);
    // The overflow marker 2^b - 1 is the largest storable value.
    const std::uint64_t marker = config.counting_max(l) + 1;
    std::vector<std::uint32_t>& stage = tree.stages_[l - 1];
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint32_t value =
          elem == 1 ? in.u8() : elem == 2 ? in.u16le() : in.u32le();
      FCM_REQUIRE(value <= marker,
                  "wire: tree node value exceeds its stage bit width "
                  "(corrupt or hostile buffer)");
      stage[i] = value;
    }
  }
}

// --- FcmFramework -----------------------------------------------------------

std::vector<std::byte> WireCodec::serialize(const framework::FcmFramework& fw) {
  const core::FcmSketch& sketch = fw.sketch_;
  WireWriter payload;
  for (const core::FcmTree& tree : sketch.trees_) {
    encode_tree_state(payload, tree);
  }
  // Sorted for a canonical encoding (the in-memory set iterates in hash
  // order, which must not leak into the bytes).
  std::vector<std::uint32_t> hh;
  hh.reserve(sketch.heavy_hitters_.size());
  for (const flow::FlowKey key : sketch.heavy_hitters_) hh.push_back(key.value);
  std::sort(hh.begin(), hh.end());
  payload.u64(hh.size());
  for (const std::uint32_t key : hh) payload.u32(key);
  payload.u64(sketch.cardinality_saturations_);

  WireWriter out;
  for (const std::uint8_t m : kMagic) out.u8(m);
  out.u16(kWireVersion);
  out.u8(kFrameworkTag);
  out.u8(0);  // reserved
  out.u64(merge_fingerprint(fw.options_));
  out.u64(payload.size());
  std::vector<std::byte> frame = out.take();
  const std::span<const std::byte> body = payload.bytes();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

framework::FcmFramework WireCodec::deserialize_framework(
    std::span<const std::byte> buffer,
    const framework::FcmFramework::Options& local) {
  const WireHeader header = peek(buffer);
  // The frame carries no options: it must have been serialized under
  // merge options equal to the receiver's, checked before anything is built.
  FCM_REQUIRE(header.fingerprint == merge_fingerprint(local),
              "wire: framework merge fingerprint mismatch (frame was not "
              "serialized under the receiver's options)");
  common::ByteCursor in(buffer.subspan(kFrameHeaderBytes));
  framework::FcmFramework fw(local);
  core::FcmSketch& sketch = fw.sketch_;
  for (core::FcmTree& tree : sketch.trees_) decode_tree_state(in, tree);
  const std::uint64_t hh_count = in.u64le();
  require_payload(in, hh_count, 4);
  FCM_REQUIRE(hh_count == 0 || sketch.hh_threshold_.has_value(),
              "wire: heavy hitters recorded without a threshold");
  sketch.heavy_hitters_.reserve(hh_count);
  for (std::uint64_t i = 0; i < hh_count; ++i) {
    sketch.heavy_hitters_.insert(flow::FlowKey{in.u32le()});
  }
  FCM_REQUIRE(sketch.heavy_hitters_.size() == hh_count,
              "wire: duplicate heavy-hitter keys in buffer");
  sketch.cardinality_saturations_ = in.u64le();
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after FcmFramework state");
  fw.check_invariants();
  return fw;
}

}  // namespace fcm::agg
