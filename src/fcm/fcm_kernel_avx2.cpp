// Hand-written AVX2 index kernel (DESIGN.md §14). The ONLY translation unit
// in the tree built with -mavx2 and the only one (with simd_dispatch.h's
// declarations) allowed to touch <immintrin.h> — fcm_lint.py rule
// `simd-confinement` keeps it that way, so every other TU stays baseline-ISA
// and a non-AVX2 host never decodes a VEX instruction (dispatch guarantees
// these symbols are not called there).
//
// The kernel is bit-identical to its scalar counterpart in hash.h;
// tests/test_batch_equivalence.cpp pins the equivalence across all kernel
// tiers.

#include "common/simd_dispatch.h"

#if FCM_SIMD_X86

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/hash.h"

namespace fcm::common::simd {

namespace {

inline __m256i rot32x8(__m256i x, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi32(x, k), _mm256_srli_epi32(x, 32 - k));
}

// 8-lane transcription of detail::final_mix32 — must stay line-for-line in
// step with hash.h (test_batch_equivalence pins it, lane by lane).
inline void final_mix32x8(__m256i& a, __m256i& b, __m256i& c) noexcept {
  c = _mm256_xor_si256(c, b); c = _mm256_sub_epi32(c, rot32x8(b, 14));
  a = _mm256_xor_si256(a, c); a = _mm256_sub_epi32(a, rot32x8(c, 11));
  b = _mm256_xor_si256(b, a); b = _mm256_sub_epi32(b, rot32x8(a, 25));
  c = _mm256_xor_si256(c, b); c = _mm256_sub_epi32(c, rot32x8(b, 16));
  a = _mm256_xor_si256(a, c); a = _mm256_sub_epi32(a, rot32x8(c, 4));
  b = _mm256_xor_si256(b, a); b = _mm256_sub_epi32(b, rot32x8(a, 14));
  c = _mm256_xor_si256(c, b); c = _mm256_sub_epi32(c, rot32x8(b, 24));
}

// bob_hash_u32 on 8 keys at once.
inline __m256i bob_hash_u32x8(__m256i value, std::uint32_t seed) noexcept {
  const __m256i init =
      _mm256_set1_epi32(static_cast<int>(0xdeadbeefu + 4u + seed));
  __m256i a = _mm256_add_epi32(init, value);
  __m256i b = init;
  __m256i c = init;
  final_mix32x8(a, b, c);
  return c;
}

// Lemire fast-range on 8 lanes: (u64(h) * width) >> 32 per lane.
// vpmuludq multiplies the even dwords of each 64-bit lane, so the odd keys
// are shifted down, multiplied separately, and blended back: after the
// even product is shifted right 32 its result sits in dwords 0/2/4/6, and
// the odd product's result already sits in dwords 1/3/5/7.
inline __m256i fast_range32x8(__m256i h, __m256i width) noexcept {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(h, width), 32);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), width);
  return _mm256_blend_epi32(even, odd, 0b10101010);
}

inline std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void avx2_index_batch_u32(const void* keys, std::size_t n, std::uint32_t seed,
                          std::uint32_t width, std::uint32_t* idx) noexcept {
  const __m256i w = _mm256_set1_epi32(static_cast<int>(width));
  const auto* in = static_cast<const unsigned char*>(keys);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, in += 32) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i),
                        fast_range32x8(bob_hash_u32x8(k, seed), w));
  }
  for (; i < n; ++i, in += sizeof(std::uint32_t)) {
    const std::uint32_t h = bob_hash_u32(load_u32(in), seed);
    // Implicit u64 -> u32 narrowing; a fast-range result is < width < 2^32.
    idx[i] = (static_cast<std::uint64_t>(h) * width) >> 32;
  }
}

}  // namespace fcm::common::simd

#endif  // FCM_SIMD_X86
