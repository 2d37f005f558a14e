// Stage bit widths that put FcmTree stages on every storage type
// (FcmConfig::stage_storage_bytes: uint8_t, uint16_t, uint32_t), including
// stages narrower than the type that holds them (2 and 4 bits in a
// uint8_t, 12 in a uint16_t). The last row is the paper's default. The
// tree, merge, batch-kernel and wire suites run their width checks over it.
#pragma once

#include <string>
#include <vector>

namespace fcm::testing {

inline const std::vector<std::vector<unsigned>> kStorageWidthMatrix = {
    {2, 12, 32},
    {4, 8, 16},
    {16, 32},
    {8, 16, 32},
};

// "{2,12,32}", for SCOPED_TRACE.
inline std::string describe_bits(const std::vector<unsigned>& bits) {
  std::string out = "{";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(bits[i]);
  }
  return out + "}";
}

}  // namespace fcm::testing
