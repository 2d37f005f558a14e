#include "common/simd_dispatch.h"

#include <atomic>
#include <cstdlib>

namespace fcm::common::simd {

namespace {

// -1 = no override; otherwise the int value of the forced KernelTier.
// Relaxed everywhere: the value is a pure dispatch hint — every tier
// produces bit-identical results, so no ordering with other memory is
// needed, only atomicity of the int itself.
std::atomic<int> g_forced_tier{-1};

KernelTier probe_kernel_tier() noexcept {
  return cpu_supports_avx2() ? KernelTier::kAvx2 : KernelTier::kScalar;
}

}  // namespace

std::string_view kernel_tier_name(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<KernelTier> parse_kernel_tier(std::string_view name) noexcept {
  if (name == "scalar") return KernelTier::kScalar;
  if (name == "avx2") return KernelTier::kAvx2;
  return std::nullopt;
}

bool cpu_supports_avx2() noexcept {
#if FCM_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelTier resolve_kernel_tier() noexcept {
  if (const char* env = std::getenv("FCM_FORCE_KERNEL")) {
    if (const auto forced = parse_kernel_tier(env)) {
      if (*forced == KernelTier::kAvx2 && !cpu_supports_avx2()) {
        return KernelTier::kScalar;
      }
      return *forced;
    }
    // Unrecognized value: fall through to the probe rather than abort —
    // the bench records the raw env string so the mistake is visible.
  }
  return probe_kernel_tier();
}

KernelTier active_kernel_tier() noexcept {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelTier>(forced);
  // Magic-static: resolved once (env + cpuid), then immutable. The guard's
  // acquire check is the only cost after the first call, and callers hit
  // this once per kBatchBlock-sized block, not per key.
  static const KernelTier resolved = resolve_kernel_tier();
  return resolved;
}

void force_kernel_tier(std::optional<KernelTier> tier) noexcept {
  g_forced_tier.store(tier ? static_cast<int>(*tier) : -1,
                      std::memory_order_relaxed);
}

}  // namespace fcm::common::simd
