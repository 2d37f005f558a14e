// Hash functions used throughout the FCM framework.
//
// The paper (§7.1) recommends BobHash [Henke et al., CCR 2008] for sketching;
// we implement Bob Jenkins' lookup3 from scratch plus a cheap 64-bit mixer
// used for seeding and for splitting one hash into independent sub-hashes.
//
// Table-index reduction uses Lemire's multiply-shift fast range
// ("Fast random integer generation in an interval", 2019): for a uniform
// 32-bit hash h and a width w < 2^32, (h * w) >> 32 is uniform over [0, w)
// up to the same floor rounding a modulo has, but costs one multiply instead
// of a division. See DESIGN.md §9 for the unbiasedness argument.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/simd_dispatch.h"

namespace fcm::common {

// Block size of the batched ingest kernel (DESIGN.md §9): index_batch
// consumers stage hashes/indices in stack arrays of this many entries, and
// the prefetch distance of the batched sketch updates is exactly one block.
inline constexpr std::size_t kBatchBlock = 64;

namespace detail {

inline constexpr std::uint32_t rot32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

// lookup3's final mix, shared by the out-of-line general hash (hash.cpp) and
// the inline 4-byte specialization below — they must stay bit-identical.
inline constexpr void final_mix32(std::uint32_t& a, std::uint32_t& b,
                                  std::uint32_t& c) noexcept {
  c ^= b; c -= rot32(b, 14);
  a ^= c; a -= rot32(c, 11);
  b ^= a; b -= rot32(a, 25);
  c ^= b; c -= rot32(b, 16);
  a ^= c; a -= rot32(c, 4);
  b ^= a; b -= rot32(a, 14);
  c ^= b; c -= rot32(b, 24);
}

}  // namespace detail

// Bob Jenkins' lookup3 hash (public-domain algorithm, reimplemented).
// Deterministic for a given (data, seed) pair across platforms.
std::uint32_t bob_hash(std::span<const std::byte> data, std::uint32_t seed) noexcept;

// Inline specialization of bob_hash for exactly-4-byte values, bit-identical
// to the general routine (lookup3 with length 4 takes the single-block tail
// path: a += word, final mix). The batched ingest kernel hashes flow keys
// through this so the whole hash block inlines into one tight loop the
// compiler can pipeline; test_hash pins the equivalence.
inline constexpr std::uint32_t bob_hash_u32(std::uint32_t value,
                                            std::uint32_t seed) noexcept {
  std::uint32_t a = 0xdeadbeef + 4u + seed;
  std::uint32_t b = a;
  std::uint32_t c = a;
  a += value;
  detail::final_mix32(a, b, c);
  return c;
}

// Convenience overload for trivially-copyable values (flow keys, integers).
template <typename T>
std::uint32_t bob_hash_value(const T& value, std::uint32_t seed) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (sizeof(T) == sizeof(std::uint32_t)) {
    // Same bytes, same native-endian load the general tail path performs.
    return bob_hash_u32(std::bit_cast<std::uint32_t>(value), seed);
  } else {
    return bob_hash(std::as_bytes(std::span<const T, 1>{&value, 1}), seed);
  }
}

// SplitMix64 finalizer: a strong 64-bit mixer. Used to derive independent
// seeds and to fold 64-bit keys.
std::uint64_t mix64(std::uint64_t x) noexcept;

// Lemire multiply-shift reduction of a 32-bit hash onto [0, width).
// Precondition: width <= 2^32 (every table in this tree is far smaller).
inline constexpr std::size_t fast_range32(std::uint32_t hash,
                                          std::size_t width) noexcept {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(hash) * static_cast<std::uint64_t>(width)) >>
      32);
}

// A seeded hash function object: one member of a pairwise-independent family.
// Instances with different `seed` values behave as independent hash functions
// (the property CM/FCM analyses require).
class SeededHash {
 public:
  constexpr SeededHash() noexcept : seed_(0) {}
  explicit constexpr SeededHash(std::uint32_t seed) noexcept : seed_(seed) {}

  std::uint32_t seed() const noexcept { return seed_; }

  template <typename T>
  std::uint32_t operator()(const T& value) const noexcept {
    return bob_hash_value(value, seed_);
  }

  // Hash reduced to a table index in [0, width) via fast-range (see above).
  template <typename T>
  std::size_t index(const T& value, std::size_t width) const noexcept {
    return fast_range32((*this)(value), width);
  }

  // Bulk interface of index(): hashes `keys` and writes the reduced indices
  // into `out` (out.size() >= keys.size()). Bit-identical to calling index()
  // per key (tests/test_batch_equivalence.cpp); exists so the batched ingest
  // kernels can hash a whole block in one tight loop, where independent
  // hashes pipeline across iterations instead of each serializing against
  // its table load. A fast-range index is always < width < 2^32, so the
  // 32-bit output loses nothing, and 32-bit indices are what the AVX2 kernel
  // stores.
  //
  // Routed through the kernel tier dispatch (simd_dispatch.h) for 4-byte
  // keys. Every kernel tier is bit-identical — the tier only changes how the
  // same arithmetic is scheduled (tests/test_batch_equivalence.cpp pins this).
  template <typename T>
  void index_batch(std::span<const T> keys, std::size_t width,
                   std::span<std::uint32_t> out) const noexcept {
    const std::size_t n = keys.size();
    // Fast-range with a u32 width: the u32 x u32 -> u64 multiply the AVX2
    // kernel performs. Identical results: width < 2^32 is already
    // fast_range32's precondition.
    const auto w = static_cast<std::uint32_t>(width);
#if FCM_SIMD_X86
    if constexpr (sizeof(T) == sizeof(std::uint32_t)) {
      if (simd::active_kernel_tier() == simd::KernelTier::kAvx2) {
        simd::avx2_index_batch_u32(keys.data(), n, seed_, w, out.data());
        return;
      }
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t h = bob_hash_value(keys[i], seed_);
      out[i] = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(h) * w) >> 32);
    }
  }

 private:
  std::uint32_t seed_;
};

// Derives the i-th hash function of a family rooted at `master_seed`.
SeededHash make_hash(std::uint64_t master_seed, std::uint32_t function_index) noexcept;

}  // namespace fcm::common
