#include "agg/wire.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

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

// Bytes one tree's state section occupies: promotions + per-stage arrays.
std::uint64_t tree_state_bytes(const core::FcmConfig& config) {
  std::uint64_t total = 8;  // promotions
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    total += static_cast<std::uint64_t>(config.width(l)) *
             stage_elem_bytes(config.stage_bits[l - 1]);
  }
  return total;
}

void require_valid_config(const core::FcmConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& err) {
    // Re-raise through the contract machinery so hostile wire input always
    // surfaces as ContractViolation (never a bare invalid_argument whose
    // origin the caller cannot distinguish from a programming error).
    const std::string why = err.what();
    FCM_REQUIRE(false, "wire: invalid FcmConfig in buffer: " + why);
  }
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

// --- FcmConfig --------------------------------------------------------------

void WireCodec::encode_config(WireWriter& out, const core::FcmConfig& config) {
  out.u32(static_cast<std::uint32_t>(config.tree_count));
  out.u32(static_cast<std::uint32_t>(config.k));
  out.u64(config.leaf_count);
  out.u64(config.seed);
  out.u8(static_cast<std::uint8_t>(config.stage_count()));
  for (const unsigned bits : config.stage_bits) {
    out.u8(static_cast<std::uint8_t>(bits));
  }
}

core::FcmConfig WireCodec::decode_config(common::ByteCursor& in) {
  core::FcmConfig config;
  config.tree_count = in.u32le();
  config.k = in.u32le();
  config.leaf_count = in.u64le();
  config.seed = in.u64le();
  const std::uint8_t stage_count = in.u8();
  FCM_REQUIRE(stage_count >= 1 && stage_count <= 32,
              "wire: FcmConfig stage count out of range");
  config.stage_bits.clear();
  config.stage_bits.reserve(stage_count);
  for (std::uint8_t i = 0; i < stage_count; ++i) {
    const std::uint8_t bits = in.u8();
    FCM_REQUIRE(bits >= 1 && bits <= 32,
                "wire: FcmConfig stage bit width out of range");
    config.stage_bits.push_back(bits);
  }
  // The ceiling validate() enforces too; checked first so a hostile count is
  // reported as a wire error before any per-tree state is sized from it.
  FCM_REQUIRE(config.tree_count >= 1 &&
                  config.tree_count <= core::FcmConfig::kMaxTrees,
              "wire: FcmConfig tree count out of range");
  // Stage 1 alone needs >= leaf_count bytes of state, so any leaf_count
  // larger than the remaining payload is hostile; rejecting it here keeps
  // the per-stage byte arithmetic below overflow-free AND stops the tree
  // constructor from allocating gigabytes off a 30-byte buffer.
  FCM_REQUIRE(config.leaf_count <= in.remaining(),
              "wire: FcmConfig leaf count exceeds the bytes present");
  require_valid_config(config);
  return config;
}

// --- FcmTree ----------------------------------------------------------------

void WireCodec::encode_tree_state(WireWriter& out, const core::FcmTree& tree) {
  out.u64(tree.promotions_);
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
  tree.promotions_ = in.u64le();
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    const unsigned bits = config.stage_bits[l - 1];
    const std::uint64_t elem = stage_elem_bytes(bits);
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
  tree.check_invariants();
}

// --- FcmSketch --------------------------------------------------------------

void WireCodec::encode_sketch_body(WireWriter& out, const core::FcmSketch& s) {
  encode_config(out, s.config_);
  for (const core::FcmTree& tree : s.trees_) {
    out.u32(tree.hash().seed());
    encode_tree_state(out, tree);
  }
  out.u8(s.hh_threshold_.has_value() ? 1 : 0);
  if (s.hh_threshold_.has_value()) out.u64(*s.hh_threshold_);
  // Sorted for a canonical encoding (the in-memory set iterates in hash
  // order, which must not leak into the bytes).
  std::vector<std::uint32_t> hh;
  hh.reserve(s.heavy_hitters_.size());
  for (const flow::FlowKey key : s.heavy_hitters_) hh.push_back(key.value);
  std::sort(hh.begin(), hh.end());
  out.u64(hh.size());
  for (const std::uint32_t key : hh) out.u32(key);
  out.u64(s.cardinality_saturations_);
}

core::FcmSketch WireCodec::decode_sketch_body(common::ByteCursor& in) {
  const core::FcmConfig config = decode_config(in);
  // Everything the trees will occupy must already be present; checked
  // before FcmSketch's constructor allocates the tree arrays.
  require_payload(in, config.tree_count,
                  4 + tree_state_bytes(config));  // per tree: seed + state
  core::FcmSketch sketch(config);
  for (core::FcmTree& tree : sketch.trees_) {
    const std::uint32_t seed = in.u32le();
    FCM_REQUIRE(seed == tree.hash().seed(),
                "wire: tree hash seed does not match the config-derived "
                "family (corrupt or hostile buffer)");
    decode_tree_state(in, tree);
  }
  const std::uint8_t has_threshold = in.u8();
  FCM_REQUIRE(has_threshold <= 1, "wire: boolean field out of range");
  if (has_threshold == 1) {
    const std::uint64_t threshold = in.u64le();
    FCM_REQUIRE(threshold > 0, "wire: zero heavy-hitter threshold recorded");
    sketch.hh_threshold_ = threshold;
  }
  const std::uint64_t hh_count = in.u64le();
  require_payload(in, hh_count, 4);
  FCM_REQUIRE(hh_count == 0 || has_threshold == 1,
              "wire: heavy hitters recorded without a threshold");
  sketch.heavy_hitters_.reserve(hh_count);
  for (std::uint64_t i = 0; i < hh_count; ++i) {
    sketch.heavy_hitters_.insert(flow::FlowKey{in.u32le()});
  }
  FCM_REQUIRE(sketch.heavy_hitters_.size() == hh_count,
              "wire: duplicate heavy-hitter keys in buffer");
  sketch.cardinality_saturations_ = in.u64le();
  sketch.check_invariants();
  return sketch;
}

// --- FcmFramework -----------------------------------------------------------

std::vector<std::byte> WireCodec::serialize(const framework::FcmFramework& fw) {
  const framework::FcmFramework::Options& options = fw.options_;
  WireWriter payload;
  encode_config(payload, options.fcm);
  payload.u64(options.heavy_hitter_threshold);
  payload.u8(static_cast<std::uint8_t>(options.count_mode));
  encode_sketch_body(payload, fw.sketch_);
  WireWriter out;
  for (const std::uint8_t m : kMagic) out.u8(m);
  out.u16(kWireVersion);
  out.u8(kFrameworkTag);
  out.u8(0);  // reserved
  out.u64(merge_fingerprint(options));
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
  common::ByteCursor in(buffer.subspan(kFrameHeaderBytes));

  framework::FcmFramework::Options options;
  options.fcm = decode_config(in);
  options.heavy_hitter_threshold = in.u64le();
  const std::uint8_t count_mode = in.u8();
  FCM_REQUIRE(count_mode <= 1, "wire: count mode out of range");
  options.count_mode =
      static_cast<framework::FcmFramework::CountMode>(count_mode);
  // Analysis policy and telemetry are the receiver's, never the sender's.
  options.em = local.em;
  options.metrics = local.metrics;

  core::FcmSketch sketch = decode_sketch_body(in);
  FCM_REQUIRE(sketch.config() == options.fcm,
              "wire: framework body config contradicts its options");
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after FcmFramework state");
  framework::FcmFramework fw(options);
  fw.sketch_ = std::move(sketch);
  const core::FcmSketch& restored = fw.sketch_;
  FCM_REQUIRE(
      (restored.hh_threshold_.has_value() ? *restored.hh_threshold_ : 0) ==
          options.heavy_hitter_threshold,
      "wire: restored heavy-hitter threshold contradicts the options");
  FCM_REQUIRE(merge_fingerprint(options) == header.fingerprint,
              "wire: framework merge fingerprint mismatch");
  fw.check_invariants();
  return fw;
}

}  // namespace fcm::agg
