// fcm-lint-path: src/agg/bad_codec.cpp
//
// Corpus: wire-encoding — struct dumps in the wire codec. The frames must
// be explicit little-endian byte-at-a-time (WireWriter/ByteCursor); a
// memcpy of counter memory or a reinterpret_cast of the buffer bakes host
// endianness and struct padding into the format. The sanctioned spellings
// (per-byte shifts) stay clean.
#include <cstdint>
#include <cstring>
#include <vector>

namespace corpus {

struct Header {
  std::uint32_t magic;
  std::uint64_t fingerprint;
};

inline void dump_header(std::vector<unsigned char>& out, const Header& h) {
  out.resize(sizeof(h));
  std::memcpy(out.data(), &h, sizeof(h));  // fcm-lint-expect: wire-encoding
}

inline Header load_header(const std::vector<unsigned char>& in) {
  return *reinterpret_cast<const Header*>(in.data());  // fcm-lint-expect: wire-encoding
}

inline void append_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  // Clean: explicit little-endian byte-at-a-time encoding.
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<unsigned char>((v >> shift) & 0xff));
  }
}

}  // namespace corpus
