#include "table/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace recpriv::table::simd {

namespace {

/// The override set via SetDispatchLevel; kAuto means "resolve from host".
std::atomic<DispatchLevel> g_requested{DispatchLevel::kAuto};
/// One-time warning latch for an unparseable RECPRIV_SIMD value.
std::atomic<bool> g_env_warned{false};

/// kAuto -> the best level the host supports; RECPRIV_SIMD, when set,
/// replaces kAuto as the request (so a programmatic SetDispatchLevel still
/// wins over the environment).
DispatchLevel ResolveAuto() {
  if (const char* env = std::getenv("RECPRIV_SIMD")) {
    const Result<DispatchLevel> parsed = ParseDispatchLevel(env);
    if (parsed.ok()) {
      if (*parsed != DispatchLevel::kAuto) return *parsed;
    } else if (!g_env_warned.exchange(true)) {
      RECPRIV_LOG(Warning) << "ignoring RECPRIV_SIMD='" << env
                           << "': " << parsed.status().message();
    }
  }
  return HostSupportsAvx2() ? DispatchLevel::kAvx2 : DispatchLevel::kScalar;
}

/// Degrades a requested level to one the host can actually execute.
DispatchLevel Executable(DispatchLevel level) {
  return level == DispatchLevel::kAvx2 && HostSupportsAvx2()
             ? DispatchLevel::kAvx2
             : DispatchLevel::kScalar;
}

}  // namespace

const char* LevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kAuto: return "auto";
    case DispatchLevel::kScalar: return "scalar";
    case DispatchLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

Result<DispatchLevel> ParseDispatchLevel(std::string_view name) {
  if (name == "auto") return DispatchLevel::kAuto;
  if (name == "scalar") return DispatchLevel::kScalar;
  if (name == "avx2") return DispatchLevel::kAvx2;
  return Status::InvalidArgument(
      "unknown SIMD dispatch level '" + std::string(name) +
      "' (expected auto, scalar, or avx2)");
}

bool HostSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

DispatchLevel ActiveLevel() {
  const DispatchLevel requested = g_requested.load(std::memory_order_relaxed);
  return Executable(requested == DispatchLevel::kAuto ? ResolveAuto()
                                                      : requested);
}

void SetDispatchLevel(DispatchLevel level) {
  g_requested.store(level, std::memory_order_relaxed);
}

void FusedCountSums(const FusedCountArgs& args, uint64_t* observed,
                    uint64_t* matched_size) {
  if (ActiveLevel() == DispatchLevel::kAvx2) {
    FusedCountSumsAvx2(args, observed, matched_size);
  } else {
    FusedCountSumsScalar(args, observed, matched_size);
  }
}

}  // namespace recpriv::table::simd
