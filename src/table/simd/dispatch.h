// Runtime SIMD dispatch for the fused count kernel (paper §5's dominant
// serving cost: predicate-match + SA-histogram-column sum over the flat
// group index's columns).
//
// Levels:
//   kScalar  portable reference implementation — always available, and the
//            semantics every other level must reproduce bit-identically
//   kAvx2    x86-64 AVX2: 8 groups per iteration, gathered NA-code
//            compares, masked 64-bit gathers for the histogram column
//
// Bit-identity across levels is by construction: every kernel computes the
// same two uint64 sums with integer arithmetic only, and unsigned addition
// is associative/commutative mod 2^64 — no float rounding, no
// order-dependence. tests/simd_kernel_test.cc enforces this differentially.
//
// Selection: the first call resolves kAuto from the host CPU, overridable
// by the RECPRIV_SIMD environment variable ("auto", "scalar", "avx2") or
// programmatically via SetDispatchLevel (tests, benches). A
// requested level the host cannot run falls back to scalar rather than
// faulting.

#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace recpriv::table::simd {

enum class DispatchLevel { kAuto, kScalar, kAvx2 };

/// Human-readable level name ("auto", "scalar", "avx2").
const char* LevelName(DispatchLevel level);

/// Parses a level name (case-sensitive, as documented for RECPRIV_SIMD).
Result<DispatchLevel> ParseDispatchLevel(std::string_view name);

/// The level the fused kernel will actually run at: never kAuto, never a
/// level the host cannot execute. Resolved once (RECPRIV_SIMD consulted)
/// unless overridden via SetDispatchLevel.
DispatchLevel ActiveLevel();

/// Overrides the dispatch level (kAuto re-resolves from the host CPU and
/// environment). An unsupported level degrades to scalar at call time.
/// Not thread-safe against in-flight kernels — set it during test/bench
/// setup, not while a serving pool is live.
void SetDispatchLevel(DispatchLevel level);

/// True when the host can execute AVX2 kernels.
bool HostSupportsAvx2();

/// Inputs of the fused count kernel, as raw columns — the kernel is a free
/// function over spans so every level (and the differential test) sees
/// exactly the same data layout as FlatGroupIndex::AnswerInto.
struct FusedCountArgs {
  /// Group NA keys, row-major: num_groups x n_pub.
  std::span<const uint32_t> na_codes;
  /// SA histograms, row-major: num_groups x m.
  std::span<const uint64_t> sa_counts;
  /// CSR row offsets: num_groups + 1.
  std::span<const uint64_t> row_offsets;
  size_t num_groups = 0;
  size_t n_pub = 0;
  size_t m = 0;
  /// Histogram column to sum (the query's SA code), < m.
  uint32_t sa = 0;
  /// Bound (key column, code) pairs of the predicate; a group matches when
  /// every pair agrees with its NA key.
  std::span<const std::pair<uint32_t, uint32_t>> bound;
  /// Optional packed-key representation of the same match (the flat
  /// index's sorted 64-bit keys): when non-empty, group g matches iff
  /// (packed_keys[g] & packed_mask) == packed_want. The caller guarantees
  /// this is equivalent to the bound-pair compare over na_codes; levels
  /// may match through either representation (the packed one replaces d
  /// strided gathers per block with one contiguous 64-bit stream).
  std::span<const uint64_t> packed_keys;
  uint64_t packed_mask = 0;
  uint64_t packed_want = 0;
};

/// Accumulates observed += sum of sa_counts[g*m + sa] and matched_size +=
/// group size over all matching groups, at ActiveLevel(). `*observed` and
/// `*matched_size` are overwritten, not accumulated into.
void FusedCountSums(const FusedCountArgs& args, uint64_t* observed,
                    uint64_t* matched_size);

/// Single-level entry points, exposed for the differential kernel test.
/// FusedCountSumsAvx2 must only be called when HostSupportsAvx2().
void FusedCountSumsScalar(const FusedCountArgs& args, uint64_t* observed,
                          uint64_t* matched_size);
void FusedCountSumsAvx2(const FusedCountArgs& args, uint64_t* observed,
                        uint64_t* matched_size);

}  // namespace recpriv::table::simd
