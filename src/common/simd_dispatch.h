// Runtime CPU dispatch for the batched ingest kernels (DESIGN.md §14).
//
// Two tiers share one contract — bit-identical output to the scalar
// per-key path:
//
//   kScalar   one bob_hash_value + fast_range32 per key. Ground truth for the
//             dispatch-matrix tests, the denominator of the bench speedup
//             columns, and the kernel on every CPU without AVX2.
//   kAvx2     hand-written 8-lane AVX2 (fcm_kernel_avx2.cpp): vectorized
//             BobHash + Lemire fast-range for SeededHash::index_batch.
//
// The tier decides only how index_batch runs. FcmTree::apply_block's
// level-1 increment stays scalar on every tier: it waits on a random
// counter access, and an AVX2 gather/compare/store version lost end to end
// (DESIGN.md §14.3).
//
// The tier is resolved once per process: FCM_FORCE_KERNEL=scalar|avx2 wins if
// set (an avx2 request on a CPU without AVX2 falls back to scalar), otherwise
// the cpuid probe picks kAvx2 when available and kScalar when not. Tests and
// the bench force tiers in-process via force_kernel_tier().
//
// This header deliberately contains no intrinsics and never includes
// <immintrin.h>: the AVX2 entry point below is declared on plain pointers
// so only fcm_kernel_avx2.cpp (the sole TU built with -mavx2) touches vector
// types. tools/fcm_lint.py rule `simd-confinement` enforces that split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

// x86-64 is the only ISA we hand-vectorize for; everything else resolves to
// kScalar. (MSVC would need a cpuid path; this tree is gcc/clang.)
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define FCM_SIMD_X86 1
#else
#define FCM_SIMD_X86 0
#endif

namespace fcm::common::simd {

enum class KernelTier : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Stable lowercase names, matching the FCM_FORCE_KERNEL spellings.
std::string_view kernel_tier_name(KernelTier tier) noexcept;

// Parses a FCM_FORCE_KERNEL value; nullopt for anything unrecognized.
std::optional<KernelTier> parse_kernel_tier(std::string_view name) noexcept;

// True when the running CPU supports AVX2 (false off x86).
bool cpu_supports_avx2() noexcept;

// Resolves the tier from scratch: FCM_FORCE_KERNEL if set and valid (with
// the avx2-on-unsupported-CPU fallback to scalar), else the cpuid probe.
// Ignores force_kernel_tier(); exists so tests can pin the env contract.
KernelTier resolve_kernel_tier() noexcept;

// The tier every batched kernel dispatches on. First call resolves and
// caches; later calls are a single relaxed atomic load. Out-of-line on
// purpose — callers amortize it once per kBatchBlock, not per key.
KernelTier active_kernel_tier() noexcept;

// Test/bench hook: overrides active_kernel_tier() process-wide until called
// with nullopt (which restores the cached resolve_kernel_tier() result).
// Not for concurrent use with live ingest: switching tiers mid-batch is
// benign for correctness (every tier is bit-exact) but makes timings lie.
void force_kernel_tier(std::optional<KernelTier> tier) noexcept;

#if FCM_SIMD_X86
// --- AVX2 kernel entry point (defined in src/fcm/fcm_kernel_avx2.cpp) ---
// Callers must check active_kernel_tier() == kAvx2 first; the symbol exists
// whenever FCM_SIMD_X86 but executes AVX2 instructions unconditionally.

// Fused 8-lane bob_hash_u32 + Lemire fast-range over `n` contiguous 4-byte
// keys: idx[i] = (u64(bob(keys[i])) * width) >> 32. `keys` must point to
// n * 4 readable bytes (FlowKey or uint32_t — same bytes either way).
void avx2_index_batch_u32(const void* keys, std::size_t n, std::uint32_t seed,
                          std::uint32_t width, std::uint32_t* idx) noexcept;
#endif  // FCM_SIMD_X86

}  // namespace fcm::common::simd
