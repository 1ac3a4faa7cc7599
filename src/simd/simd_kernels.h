// Cross-level SIMD kernel entry points.
//
// Two layers live here:
//  * namespace simd      — level-dispatched helpers called from the
//                          execution layer (NULL-mask combination,
//                          selection-vector compaction). Each takes the
//                          resolved SimdLevel and falls back to the scalar
//                          loop for levels without a variant.
//  * namespace simd_avx2 /
//    namespace simd_neon — the per-target building blocks, compiled in
//                          kernels_avx2.cc / kernels_neon.cc with
//                          per-function target attributes. On builds
//                          without the target they are scalar stubs (and
//                          never selected, since ResolveSimdLevel cannot
//                          yield that level). RegisterKernels() adds the
//                          target's registry variants; call it only when
//                          BestSupportedSimdLevel() says the CPU can run
//                          them.
//
// Every kernel is bit-identical to its scalar counterpart — hashes drive
// RadixPartitionOf and therefore partition/spill routing, so "close
// enough" would change which rows spill (tests/simd_test.cc enforces
// identity for all of them).
#ifndef X100_SIMD_SIMD_KERNELS_H_
#define X100_SIMD_SIMD_KERNELS_H_

#include <cstdint>

#include "simd/simd.h"
#include "vector/vector.h"

namespace x100 {

namespace simd {

/// dst[i] |= src[i] — the NULL-indicator OR of strict propagation.
void OrBytesInto(int n, const uint8_t* src, uint8_t* dst, SimdLevel level);

/// dst[i] = src[i] == 0 ? 1 : 0 — the isnotnull indicator flip.
void IsZeroBytes(int n, const uint8_t* src, uint8_t* dst, SimdLevel level);

/// Dense compaction: appends i where val[i] != 0; returns the count.
/// sel_out must have room for n entries (standard selection contract).
int CompactTrue(int n, const uint8_t* val, sel_t* sel_out, SimdLevel level);

/// Appends i where nulls[i] == 0.
int CompactNotNull(int n, const uint8_t* nulls, sel_t* sel_out,
                   SimdLevel level);

/// Appends i where val[i] != 0 && nulls[i] == 0 (strict WHERE semantics
/// fused: predicate true and not NULL).
int CompactTrueNotNull(int n, const uint8_t* val, const uint8_t* nulls,
                       sel_t* sel_out, SimdLevel level);

}  // namespace simd

/// Exact add of v into a wrapping int64 sum with its wrap-around count:
/// the pair (*sum, *wraps) always denotes *sum + *wraps * 2^64. The scalar
/// reference of every integer SUM fold and merge.
inline void AddWrapCounted(int64_t* sum, int64_t* wraps, int64_t v) {
  int64_t r;
  const bool o = __builtin_add_overflow(*sum, v, &r);
  *sum = r;
  *wraps += o ? (v < 0 ? -1 : 1) : 0;
}

namespace simd_avx2 {

/// Registers this target's primitive-registry variants (select/map
/// compares, boolean kernels). Only call when the CPU supports AVX2.
void RegisterKernels();

void OrBytesInto(int n, const uint8_t* src, uint8_t* dst);
void IsZeroBytes(int n, const uint8_t* src, uint8_t* dst);
int CompactTrue(int n, const uint8_t* val, sel_t* sel_out);
int CompactNotNull(int n, const uint8_t* nulls, sel_t* sel_out);
int CompactTrueNotNull(int n, const uint8_t* val, const uint8_t* nulls,
                       sel_t* sel_out);

/// Batched hashing, bit-identical to HashInt/HashDouble + HashCombine.
void HashI32Dense(int n, const int32_t* v, uint64_t* hashes, bool combine);
void HashI64Dense(int n, const int64_t* v, uint64_t* hashes, bool combine);
void HashF64Dense(int n, const double* v, uint64_t* hashes, bool combine);

/// Keyless (single-group) aggregate folds over a dense vector. `nulls`
/// may be nullptr. Sum adds the non-NULL rows into the exact pair
/// (*sum, *wraps) — *sum wraps in two's complement and *wraps counts the
/// signed 2^64 wrap-arounds, so the pair is independent of lane order;
/// MinMax returns false when every row was NULL (best untouched).
void SumI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps);
void SumI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps);
bool MinMaxI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                      bool is_min, int32_t* best, int64_t* count);
bool MinMaxI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                      bool is_min, int64_t* best, int64_t* count);
int64_t CountNonNull(int n, const uint8_t* nulls);

}  // namespace simd_avx2

namespace simd_neon {

/// NEON covers the byte-wise kernels (boolean logic, NULL masks,
/// compaction); hashing and aggregation stay scalar on this target.
void RegisterKernels();

void OrBytesInto(int n, const uint8_t* src, uint8_t* dst);
void IsZeroBytes(int n, const uint8_t* src, uint8_t* dst);
int CompactTrue(int n, const uint8_t* val, sel_t* sel_out);
int CompactNotNull(int n, const uint8_t* nulls, sel_t* sel_out);
int CompactTrueNotNull(int n, const uint8_t* val, const uint8_t* nulls,
                       sel_t* sel_out);

}  // namespace simd_neon

}  // namespace x100

#endif  // X100_SIMD_SIMD_KERNELS_H_
