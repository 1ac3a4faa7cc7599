// AVX2 kernel variants. Compiled with a per-region target attribute so
// the library builds without a global -mavx2 and still runs on CPUs
// without AVX2 — nothing in this file executes unless runtime dispatch
// (BestSupportedSimdLevel) selected kAvx2.
//
// Every kernel is bit-identical to its scalar counterpart (see
// simd_kernels.h). The two load-bearing idioms:
//  * movemask compaction — compare 8 (or 4) lanes, movemask to a small
//    integer, then store the pre-compacted lane indices from a lookup
//    table and advance the output cursor by popcount. Matches appended ≤
//    rows consumed, so the (always 8-/4-wide) store never overruns a
//    selection buffer of n entries.
//  * exact 64-bit lane multiply — _mm256_mul_epu32 cross products
//    reassembled as lo + ((alo*bhi + ahi*blo) << 32), which is the exact
//    low 64 bits, so the murmur-style HashMix pipeline vectorizes without
//    changing a single hash bit (RadixPartitionOf feeds partition/spill
//    routing — hashes MUST NOT drift across dispatch levels).
#include "simd/simd_kernels.h"

#include <cstring>

#include "common/hash.h"
#include "primitives/primitive_registry.h"

#if defined(X100_HAVE_AVX2_BUILD)

#include <immintrin.h>

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2,popcnt"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2,popcnt")
#endif

namespace x100 {
namespace {

// --- compaction lookup tables (mask -> pre-compacted lane indices) --------

struct Perm8Table {
  alignas(32) int32_t idx[256][8];
};
constexpr Perm8Table MakePerm8() {
  Perm8Table t{};
  for (int m = 0; m < 256; m++) {
    int k = 0;
    for (int b = 0; b < 8; b++) {
      if ((m >> b) & 1) t.idx[m][k++] = b;
    }
    for (; k < 8; k++) t.idx[m][k] = 0;
  }
  return t;
}
constexpr Perm8Table kPerm8 = MakePerm8();

struct Perm4Table {
  alignas(16) int32_t idx[16][4];
};
constexpr Perm4Table MakePerm4() {
  Perm4Table t{};
  for (int m = 0; m < 16; m++) {
    int k = 0;
    for (int b = 0; b < 4; b++) {
      if ((m >> b) & 1) t.idx[m][k++] = b;
    }
    for (; k < 4; k++) t.idx[m][k] = 0;
  }
  return t;
}
constexpr Perm4Table kPerm4 = MakePerm4();

// mask -> 8 (or 4) bool bytes, for the map_* comparison kernels.
struct Byte8Table {
  uint64_t v[256];
};
constexpr Byte8Table MakeByte8() {
  Byte8Table t{};
  for (int m = 0; m < 256; m++) {
    uint64_t b = 0;
    for (int l = 0; l < 8; l++) {
      if ((m >> l) & 1) b |= uint64_t{1} << (8 * l);
    }
    t.v[m] = b;
  }
  return t;
}
constexpr Byte8Table kByte8 = MakeByte8();

// --- comparison masks ------------------------------------------------------

enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

template <Cmp OP, typename T>
inline bool ScalarCmp(T a, T b) {
  // The exact expressions of the scalar kernels (kernel_templates.h),
  // used for selection-vector inputs and vector tails.
  if constexpr (OP == Cmp::kEq) return a == b;
  if constexpr (OP == Cmp::kNe) return a != b;
  if constexpr (OP == Cmp::kLt) return a < b;
  if constexpr (OP == Cmp::kLe) return a <= b;
  if constexpr (OP == Cmp::kGt) return a > b;
  return a >= b;
}

template <Cmp OP>
inline int Mask8I32(__m256i a, __m256i b) {
  if constexpr (OP == Cmp::kEq) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b)));
  }
  if constexpr (OP == Cmp::kNe) {
    return 0xFF ^ _mm256_movemask_ps(
                      _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b)));
  }
  if constexpr (OP == Cmp::kLt) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(b, a)));
  }
  if constexpr (OP == Cmp::kLe) {
    return 0xFF ^ _mm256_movemask_ps(
                      _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, b)));
  }
  if constexpr (OP == Cmp::kGt) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(a, b)));
  }
  return 0xFF ^ _mm256_movemask_ps(
                    _mm256_castsi256_ps(_mm256_cmpgt_epi32(b, a)));
}

template <Cmp OP>
inline int Mask4I64(__m256i a, __m256i b) {
  if constexpr (OP == Cmp::kEq) {
    return _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b)));
  }
  if constexpr (OP == Cmp::kNe) {
    return 0xF ^ _mm256_movemask_pd(
                     _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b)));
  }
  if constexpr (OP == Cmp::kLt) {
    return _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(b, a)));
  }
  if constexpr (OP == Cmp::kLe) {
    return 0xF ^ _mm256_movemask_pd(
                     _mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b)));
  }
  if constexpr (OP == Cmp::kGt) {
    return _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b)));
  }
  return 0xF ^ _mm256_movemask_pd(
                   _mm256_castsi256_pd(_mm256_cmpgt_epi64(b, a)));
}

template <Cmp OP>
inline int Mask4F64(__m256d a, __m256d b) {
  // Predicates chosen to match scalar IEEE semantics with NaN: ordered
  // (false on NaN) for ==, <, <=, >, >=; unordered (true on NaN) for !=.
  if constexpr (OP == Cmp::kEq) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_EQ_OQ));
  }
  if constexpr (OP == Cmp::kNe) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_NEQ_UQ));
  }
  if constexpr (OP == Cmp::kLt) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  if constexpr (OP == Cmp::kLe) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LE_OQ));
  }
  if constexpr (OP == Cmp::kGt) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ));
  }
  return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GE_OQ));
}

inline void Store8Lanes(sel_t* dst, int base, int mask) {
  const __m256i lanes =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kPerm8.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_add_epi32(_mm256_set1_epi32(base), lanes));
}

inline void Store4Lanes(sel_t* dst, int base, int mask) {
  const __m128i lanes =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kPerm4.idx[mask]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_add_epi32(_mm_set1_epi32(base), lanes));
}

// --- select kernels (compare -> selection vector) --------------------------

template <Cmp OP, bool AC, bool BC>
int SelectCmpI32(int n, const sel_t* sel_in, const void* const* args,
                 sel_t* sel_out) {
  const auto* a = static_cast<const int32_t*>(args[0]);
  const auto* b = static_cast<const int32_t*>(args[1]);
  int k = 0;
  if (sel_in) {
    // Gathered rows defeat the contiguous vector loop; identical scalar.
    for (int j = 0; j < n; j++) {
      const int i = sel_in[j];
      sel_out[k] = i;
      k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return k;
  }
  int i = 0;
  const __m256i ac = _mm256_set1_epi32(a[0]);
  const __m256i bc = _mm256_set1_epi32(b[0]);
  for (; i + 8 <= n; i += 8) {
    const __m256i av =
        AC ? ac : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        BC ? bc : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const int m = Mask8I32<OP>(av, bv);
    // k <= i here, so the 8-wide store stays inside sel_out[0..n).
    Store8Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return k;
}

template <Cmp OP, bool AC, bool BC>
int SelectCmpI64(int n, const sel_t* sel_in, const void* const* args,
                 sel_t* sel_out) {
  const auto* a = static_cast<const int64_t*>(args[0]);
  const auto* b = static_cast<const int64_t*>(args[1]);
  int k = 0;
  if (sel_in) {
    for (int j = 0; j < n; j++) {
      const int i = sel_in[j];
      sel_out[k] = i;
      k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return k;
  }
  int i = 0;
  const __m256i ac = _mm256_set1_epi64x(a[0]);
  const __m256i bc = _mm256_set1_epi64x(b[0]);
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        AC ? ac : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        BC ? bc : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const int m = Mask4I64<OP>(av, bv);
    Store4Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return k;
}

template <Cmp OP, bool AC, bool BC>
int SelectCmpF64(int n, const sel_t* sel_in, const void* const* args,
                 sel_t* sel_out) {
  const auto* a = static_cast<const double*>(args[0]);
  const auto* b = static_cast<const double*>(args[1]);
  int k = 0;
  if (sel_in) {
    for (int j = 0; j < n; j++) {
      const int i = sel_in[j];
      sel_out[k] = i;
      k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return k;
  }
  int i = 0;
  const __m256d ac = _mm256_set1_pd(a[0]);
  const __m256d bc = _mm256_set1_pd(b[0]);
  for (; i + 4 <= n; i += 4) {
    const __m256d av = AC ? ac : _mm256_loadu_pd(a + i);
    const __m256d bv = BC ? bc : _mm256_loadu_pd(b + i);
    const int m = Mask4F64<OP>(av, bv);
    Store4Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return k;
}

// --- map comparison kernels (compare -> bool bytes) ------------------------

template <Cmp OP, bool AC, bool BC>
Status MapCmpI32(int n, const sel_t* sel, const void* const* args, void* out,
                 PrimCtx*) {
  const auto* a = static_cast<const int32_t*>(args[0]);
  const auto* b = static_cast<const int32_t*>(args[1]);
  auto* o = static_cast<uint8_t*>(out);
  if (sel) {
    for (int j = 0; j < n; j++) {
      const int i = sel[j];
      o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return Status::OK();
  }
  int i = 0;
  const __m256i ac = _mm256_set1_epi32(a[0]);
  const __m256i bc = _mm256_set1_epi32(b[0]);
  for (; i + 8 <= n; i += 8) {
    const __m256i av =
        AC ? ac : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        BC ? bc : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const uint64_t bytes = kByte8.v[Mask8I32<OP>(av, bv)];
    std::memcpy(o + i, &bytes, 8);
  }
  for (; i < n; i++) {
    o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return Status::OK();
}

template <Cmp OP, bool AC, bool BC>
Status MapCmpI64(int n, const sel_t* sel, const void* const* args, void* out,
                 PrimCtx*) {
  const auto* a = static_cast<const int64_t*>(args[0]);
  const auto* b = static_cast<const int64_t*>(args[1]);
  auto* o = static_cast<uint8_t*>(out);
  if (sel) {
    for (int j = 0; j < n; j++) {
      const int i = sel[j];
      o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return Status::OK();
  }
  int i = 0;
  const __m256i ac = _mm256_set1_epi64x(a[0]);
  const __m256i bc = _mm256_set1_epi64x(b[0]);
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        AC ? ac : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        BC ? bc : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const uint32_t bytes =
        static_cast<uint32_t>(kByte8.v[Mask4I64<OP>(av, bv)]);
    std::memcpy(o + i, &bytes, 4);
  }
  for (; i < n; i++) {
    o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return Status::OK();
}

template <Cmp OP, bool AC, bool BC>
Status MapCmpF64(int n, const sel_t* sel, const void* const* args, void* out,
                 PrimCtx*) {
  const auto* a = static_cast<const double*>(args[0]);
  const auto* b = static_cast<const double*>(args[1]);
  auto* o = static_cast<uint8_t*>(out);
  if (sel) {
    for (int j = 0; j < n; j++) {
      const int i = sel[j];
      o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
    }
    return Status::OK();
  }
  int i = 0;
  const __m256d ac = _mm256_set1_pd(a[0]);
  const __m256d bc = _mm256_set1_pd(b[0]);
  for (; i + 4 <= n; i += 4) {
    const __m256d av = AC ? ac : _mm256_loadu_pd(a + i);
    const __m256d bv = BC ? bc : _mm256_loadu_pd(b + i);
    const uint32_t bytes =
        static_cast<uint32_t>(kByte8.v[Mask4F64<OP>(av, bv)]);
    std::memcpy(o + i, &bytes, 4);
  }
  for (; i < n; i++) {
    o[i] = ScalarCmp<OP>(AC ? a[0] : a[i], BC ? b[0] : b[i]) ? 1 : 0;
  }
  return Status::OK();
}

// --- boolean byte kernels --------------------------------------------------

enum class BoolOp { kAnd, kOr, kXor };

template <BoolOp OP>
inline uint8_t ScalarBool(uint8_t a, uint8_t b) {
  if constexpr (OP == BoolOp::kAnd) return a & b;
  if constexpr (OP == BoolOp::kOr) return a | b;
  return static_cast<uint8_t>((a ^ b) & 1);
}

template <BoolOp OP>
Status MapBool(int n, const sel_t* sel, const void* const* args, void* out,
               PrimCtx*) {
  const auto* a = static_cast<const uint8_t*>(args[0]);
  const auto* b = static_cast<const uint8_t*>(args[1]);
  auto* o = static_cast<uint8_t*>(out);
  if (sel) {
    for (int j = 0; j < n; j++) {
      const int i = sel[j];
      o[i] = ScalarBool<OP>(a[i], b[i]);
    }
    return Status::OK();
  }
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i r;
    if constexpr (OP == BoolOp::kAnd) {
      r = _mm256_and_si256(av, bv);
    } else if constexpr (OP == BoolOp::kOr) {
      r = _mm256_or_si256(av, bv);
    } else {
      r = _mm256_and_si256(_mm256_xor_si256(av, bv), _mm256_set1_epi8(1));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + i), r);
  }
  for (; i < n; i++) o[i] = ScalarBool<OP>(a[i], b[i]);
  return Status::OK();
}

Status MapNotBool(int n, const sel_t* sel, const void* const* args, void* out,
                  PrimCtx*) {
  const auto* a = static_cast<const uint8_t*>(args[0]);
  auto* o = static_cast<uint8_t*>(out);
  if (sel) {
    for (int j = 0; j < n; j++) {
      const int i = sel[j];
      o[i] = static_cast<uint8_t>(a[i] ^ 1);
    }
    return Status::OK();
  }
  int i = 0;
  const __m256i one = _mm256_set1_epi8(1);
  for (; i + 32 <= n; i += 32) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + i),
                        _mm256_xor_si256(av, one));
  }
  for (; i < n; i++) o[i] = static_cast<uint8_t>(a[i] ^ 1);
  return Status::OK();
}

// 8 bool bytes -> "is zero" 8-bit mask (bit l set iff byte l == 0).
inline int ZeroMask8Bytes(const uint8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m256i lanes = _mm256_cvtepu8_epi32(v);
  return _mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpeq_epi32(lanes, _mm256_setzero_si256())));
}

int CompactTrueImpl(int n, const uint8_t* val, sel_t* sel_out) {
  int k = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const int m = 0xFF ^ ZeroMask8Bytes(val + i);
    Store8Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += val[i] ? 1 : 0;
  }
  return k;
}

int CompactNotNullImpl(int n, const uint8_t* nulls, sel_t* sel_out) {
  int k = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const int m = ZeroMask8Bytes(nulls + i);
    Store8Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += nulls[i] ? 0 : 1;
  }
  return k;
}

int CompactTrueNotNullImpl(int n, const uint8_t* val, const uint8_t* nulls,
                           sel_t* sel_out) {
  int k = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const int m = (0xFF ^ ZeroMask8Bytes(val + i)) & ZeroMask8Bytes(nulls + i);
    Store8Lanes(sel_out + k, i, m);
    k += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; i < n; i++) {
    sel_out[k] = i;
    k += (val[i] && !nulls[i]) ? 1 : 0;
  }
  return k;
}

// select_true / select_notnull registry variants (bool-column filters).
int SelectTrueAvx2(int n, const sel_t* sel_in, const void* const* args,
                   sel_t* sel_out) {
  const auto* b = static_cast<const uint8_t*>(args[0]);
  if (sel_in) {
    int k = 0;
    for (int j = 0; j < n; j++) {
      const int i = sel_in[j];
      sel_out[k] = i;
      k += b[i] ? 1 : 0;
    }
    return k;
  }
  return CompactTrueImpl(n, b, sel_out);
}

int SelectNotNullAvx2(int n, const sel_t* sel_in, const void* const* args,
                      sel_t* sel_out) {
  const auto* nulls = static_cast<const uint8_t*>(args[0]);
  if (sel_in) {
    int k = 0;
    for (int j = 0; j < n; j++) {
      const int i = sel_in[j];
      sel_out[k] = i;
      k += nulls[i] ? 0 : 1;
    }
    return k;
  }
  return CompactNotNullImpl(n, nulls, sel_out);
}

// --- hashing ---------------------------------------------------------------

// Exact low-64-bit product per lane (mul_epu32 cross products).
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i ahi = _mm256_srli_epi64(a, 32);
  const __m256i bhi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(ahi, b),
                                         _mm256_mul_epu32(a, bhi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// HashMix (common/hash.h), 4 lanes at a time, bit-identical.
inline __m256i HashMix4(__m256i k) {
  const __m256i c1 = _mm256_set1_epi64x(0xff51afd7ed558ccdULL);
  const __m256i c2 = _mm256_set1_epi64x(0xc4ceb9fe1a85ec53ULL);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64(k, c1);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64(k, c2);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  return k;
}

// HashCombine: HashMix(acc ^ (h + golden + (acc << 6) + (acc >> 2))).
inline __m256i HashCombine4(__m256i acc, __m256i h) {
  const __m256i golden = _mm256_set1_epi64x(0x9e3779b97f4a7c15ULL);
  __m256i t = _mm256_add_epi64(h, golden);
  t = _mm256_add_epi64(t, _mm256_slli_epi64(acc, 6));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(acc, 2));
  return HashMix4(_mm256_xor_si256(acc, t));
}

template <bool COMBINE>
inline void HashStore4(uint64_t* h, __m256i mixed) {
  __m256i r = HashMix4(mixed);
  if constexpr (COMBINE) {
    const __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h));
    r = HashCombine4(acc, r);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h), r);
}

template <bool COMBINE>
void HashI64DenseT(int n, const int64_t* v, uint64_t* h) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + j));
    __m256i r = HashMix4(k);
    if constexpr (COMBINE) {
      const __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + j));
      r = HashCombine4(acc, r);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + j), r);
  }
  for (; j < n; j++) {
    const uint64_t hv = HashInt(v[j]);
    h[j] = COMBINE ? HashCombine(h[j], hv) : hv;
  }
}

template <bool COMBINE>
void HashI32DenseT(int n, const int32_t* v, uint64_t* h) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    // Sign-extend to match HashInt(static_cast<int64_t>(v)).
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + j));
    const __m256i k = _mm256_cvtepi32_epi64(lo);
    __m256i r = HashMix4(k);
    if constexpr (COMBINE) {
      const __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + j));
      r = HashCombine4(acc, r);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + j), r);
  }
  for (; j < n; j++) {
    const uint64_t hv = HashInt(v[j]);
    h[j] = COMBINE ? HashCombine(h[j], hv) : hv;
  }
}

template <bool COMBINE>
void HashF64DenseT(int n, const double* v, uint64_t* h) {
  const __m256d zero = _mm256_setzero_pd();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d d = _mm256_loadu_pd(v + j);
    // HashDouble normalizes v == 0.0 (so -0.0 too) to the +0.0 bit
    // pattern; NaN compares unequal and keeps its payload bits.
    const __m256d is_zero = _mm256_cmp_pd(d, zero, _CMP_EQ_OQ);
    const __m256i bits =
        _mm256_castpd_si256(_mm256_andnot_pd(is_zero, d));
    __m256i r = HashMix4(bits);
    if constexpr (COMBINE) {
      const __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + j));
      r = HashCombine4(acc, r);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + j), r);
  }
  for (; j < n; j++) {
    const uint64_t hv = HashDouble(v[j]);
    h[j] = COMBINE ? HashCombine(h[j], hv) : hv;
  }
}

// --- registration helpers --------------------------------------------------

using SelectTmpl = int (*)(int, const sel_t*, const void* const*, sel_t*);
using MapTmpl = Status (*)(int, const sel_t*, const void* const*, void*,
                           PrimCtx*);

void RegCmpVariants(const char* op, TypeId t, SelectTmpl svv, SelectTmpl sval,
                    SelectTmpl vals, MapTmpl mvv, MapTmpl mval, MapTmpl mals) {
  auto* reg = PrimitiveRegistry::Get();
  const SimdLevel L = SimdLevel::kAvx2;
  reg->RegisterSelectVariant(
      BuildSignature("select", op, {{t, false}, {t, false}}), L, svv);
  reg->RegisterSelectVariant(
      BuildSignature("select", op, {{t, false}, {t, true}}), L, sval);
  reg->RegisterSelectVariant(
      BuildSignature("select", op, {{t, true}, {t, false}}), L, vals);
  reg->RegisterMapVariant(
      BuildSignature("map", op, {{t, false}, {t, false}}), L, mvv);
  reg->RegisterMapVariant(
      BuildSignature("map", op, {{t, false}, {t, true}}), L, mval);
  reg->RegisterMapVariant(
      BuildSignature("map", op, {{t, true}, {t, false}}), L, mals);
}

template <Cmp OP>
void RegCmpI32Op(const char* op, TypeId t) {
  RegCmpVariants(op, t, &SelectCmpI32<OP, false, false>,
                 &SelectCmpI32<OP, false, true>,
                 &SelectCmpI32<OP, true, false>, &MapCmpI32<OP, false, false>,
                 &MapCmpI32<OP, false, true>, &MapCmpI32<OP, true, false>);
}

template <Cmp OP>
void RegCmpI64Op(const char* op) {
  RegCmpVariants(op, TypeId::kI64, &SelectCmpI64<OP, false, false>,
                 &SelectCmpI64<OP, false, true>,
                 &SelectCmpI64<OP, true, false>, &MapCmpI64<OP, false, false>,
                 &MapCmpI64<OP, false, true>, &MapCmpI64<OP, true, false>);
}

template <Cmp OP>
void RegCmpF64Op(const char* op) {
  RegCmpVariants(op, TypeId::kF64, &SelectCmpF64<OP, false, false>,
                 &SelectCmpF64<OP, false, true>,
                 &SelectCmpF64<OP, true, false>, &MapCmpF64<OP, false, false>,
                 &MapCmpF64<OP, false, true>, &MapCmpF64<OP, true, false>);
}

}  // namespace

namespace simd_avx2 {

void RegisterKernels() {
  auto* reg = PrimitiveRegistry::Get();
  const SimdLevel L = SimdLevel::kAvx2;

  RegCmpI32Op<Cmp::kEq>("eq", TypeId::kI32);
  RegCmpI32Op<Cmp::kNe>("ne", TypeId::kI32);
  RegCmpI32Op<Cmp::kLt>("lt", TypeId::kI32);
  RegCmpI32Op<Cmp::kLe>("le", TypeId::kI32);
  RegCmpI32Op<Cmp::kGt>("gt", TypeId::kI32);
  RegCmpI32Op<Cmp::kGe>("ge", TypeId::kI32);
  // Dates are physically i32 — same kernels under the date signature.
  RegCmpI32Op<Cmp::kEq>("eq", TypeId::kDate);
  RegCmpI32Op<Cmp::kNe>("ne", TypeId::kDate);
  RegCmpI32Op<Cmp::kLt>("lt", TypeId::kDate);
  RegCmpI32Op<Cmp::kLe>("le", TypeId::kDate);
  RegCmpI32Op<Cmp::kGt>("gt", TypeId::kDate);
  RegCmpI32Op<Cmp::kGe>("ge", TypeId::kDate);
  RegCmpI64Op<Cmp::kEq>("eq");
  RegCmpI64Op<Cmp::kNe>("ne");
  RegCmpI64Op<Cmp::kLt>("lt");
  RegCmpI64Op<Cmp::kLe>("le");
  RegCmpI64Op<Cmp::kGt>("gt");
  RegCmpI64Op<Cmp::kGe>("ge");
  RegCmpF64Op<Cmp::kEq>("eq");
  RegCmpF64Op<Cmp::kNe>("ne");
  RegCmpF64Op<Cmp::kLt>("lt");
  RegCmpF64Op<Cmp::kLe>("le");
  RegCmpF64Op<Cmp::kGt>("gt");
  RegCmpF64Op<Cmp::kGe>("ge");

  const ArgSig bvec{TypeId::kBool, false};
  reg->RegisterMapVariant(BuildSignature("map", "and", {bvec, bvec}), L,
                          &MapBool<BoolOp::kAnd>);
  reg->RegisterMapVariant(BuildSignature("map", "or", {bvec, bvec}), L,
                          &MapBool<BoolOp::kOr>);
  reg->RegisterMapVariant(BuildSignature("map", "xor", {bvec, bvec}), L,
                          &MapBool<BoolOp::kXor>);
  reg->RegisterMapVariant(BuildSignature("map", "not", {bvec}), L,
                          &MapNotBool);
  reg->RegisterSelectVariant(BuildSignature("select", "true", {bvec}), L,
                             &SelectTrueAvx2);
  reg->RegisterSelectVariant(BuildSignature("select", "notnull", {bvec}), L,
                             &SelectNotNullAvx2);
}

void OrBytesInto(int n, const uint8_t* src, uint8_t* dst) {
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < n; i++) dst[i] |= src[i];
}

void IsZeroBytes(int n, const uint8_t* src, uint8_t* dst) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_and_si256(_mm256_cmpeq_epi8(s, zero), one));
  }
  for (; i < n; i++) dst[i] = src[i] == 0 ? 1 : 0;
}

int CompactTrue(int n, const uint8_t* val, sel_t* sel_out) {
  return CompactTrueImpl(n, val, sel_out);
}

int CompactNotNull(int n, const uint8_t* nulls, sel_t* sel_out) {
  return CompactNotNullImpl(n, nulls, sel_out);
}

int CompactTrueNotNull(int n, const uint8_t* val, const uint8_t* nulls,
                       sel_t* sel_out) {
  return CompactTrueNotNullImpl(n, val, nulls, sel_out);
}

void HashI32Dense(int n, const int32_t* v, uint64_t* h, bool combine) {
  combine ? HashI32DenseT<true>(n, v, h) : HashI32DenseT<false>(n, v, h);
}

void HashI64Dense(int n, const int64_t* v, uint64_t* h, bool combine) {
  combine ? HashI64DenseT<true>(n, v, h) : HashI64DenseT<false>(n, v, h);
}

void HashF64Dense(int n, const double* v, uint64_t* h, bool combine) {
  combine ? HashF64DenseT<true>(n, v, h) : HashF64DenseT<false>(n, v, h);
}

int64_t CountNonNull(int n, const uint8_t* nulls) {
  if (nulls == nullptr) return n;
  const __m256i zero = _mm256_setzero_si256();
  int64_t c = 0;
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nulls + i));
    const unsigned m =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(s, zero)));
    c += __builtin_popcount(m);
  }
  for (; i < n; i++) c += nulls[i] ? 0 : 1;
  return c;
}

namespace {

/// Lane-wise exact add: acc += val with each lane's signed 2^64
/// wrap-around counted into wraps (+1 past INT64_MAX, -1 past INT64_MIN).
inline void AddLanesCounted(__m256i val, __m256i* acc, __m256i* wraps) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i s = _mm256_add_epi64(*acc, val);
  // Signed overflow iff both operands differ in sign from the result.
  const __m256i ovf = _mm256_cmpgt_epi64(
      zero, _mm256_and_si256(_mm256_xor_si256(*acc, s),
                             _mm256_xor_si256(val, s)));
  const __m256i dir =
      _mm256_or_si256(_mm256_cmpgt_epi64(zero, val), _mm256_set1_epi64x(1));
  *wraps = _mm256_add_epi64(*wraps, _mm256_and_si256(ovf, dir));
  *acc = s;
}

/// Folds the four lane pairs into (*sum, *wraps) exactly.
inline void FoldLanesCounted(__m256i acc, __m256i wraps, int64_t* sum,
                             int64_t* w) {
  alignas(32) int64_t lanes[4];
  alignas(32) int64_t lane_wraps[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_wraps), wraps);
  for (int l = 0; l < 4; l++) {
    AddWrapCounted(sum, w, lanes[l]);
    *w += lane_wraps[l];
  }
}

/// 4 NULL bytes at nulls + i widened to a 64-bit keep-lane mask.
inline __m256i KeepMask4(const uint8_t* nulls, int i) {
  uint32_t nb;
  std::memcpy(&nb, nulls + i, 4);
  // NULL slots are not guaranteed to hold safe values after a map kernel
  // ran over them — mask the lanes, don't trust the data.
  const __m256i nl =
      _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(nb)));
  return _mm256_cmpeq_epi64(nl, _mm256_setzero_si256());
}

}  // namespace

void SumI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps) {
  __m256i acc = _mm256_setzero_si256();
  __m256i lane_wraps = _mm256_setzero_si256();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i val = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    if (nulls != nullptr) val = _mm256_and_si256(KeepMask4(nulls, i), val);
    AddLanesCounted(val, &acc, &lane_wraps);
  }
  FoldLanesCounted(acc, lane_wraps, sum, wraps);
  for (; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    AddWrapCounted(sum, wraps, v[i]);
  }
}

void SumI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps) {
  __m256i acc = _mm256_setzero_si256();
  __m256i lane_wraps = _mm256_setzero_si256();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    __m256i val = _mm256_cvtepi32_epi64(lo);
    if (nulls != nullptr) val = _mm256_and_si256(KeepMask4(nulls, i), val);
    AddLanesCounted(val, &acc, &lane_wraps);
  }
  FoldLanesCounted(acc, lane_wraps, sum, wraps);
  for (; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    AddWrapCounted(sum, wraps, v[i]);
  }
}

bool MinMaxI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                      bool is_min, int64_t* best, int64_t* count) {
  // NULL lanes are blended to the identity sentinel so they never win.
  const int64_t ident = is_min ? INT64_MAX : INT64_MIN;
  const __m256i identv = _mm256_set1_epi64x(ident);
  __m256i acc = identv;
  int64_t cnt = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i val = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    if (nulls != nullptr) {
      uint32_t nb;
      std::memcpy(&nb, nulls + i, 4);
      const __m256i nl = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
          static_cast<int>(nb)));
      const __m256i keep = _mm256_cmpeq_epi64(nl, _mm256_setzero_si256());
      val = _mm256_blendv_epi8(identv, val, keep);
      cnt += __builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(keep))));
    } else {
      cnt += 4;
    }
    const __m256i gt = is_min ? _mm256_cmpgt_epi64(acc, val)
                              : _mm256_cmpgt_epi64(val, acc);
    acc = _mm256_blendv_epi8(acc, val, gt);
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  bool have = false;
  int64_t b = ident;
  for (int l = 0; l < 4; l++) {
    if (is_min ? lanes[l] < b : lanes[l] > b) b = lanes[l];
  }
  // The sentinel value itself can be a legitimate input; non-NULL count
  // over the vector part decides whether any lane was real.
  have = cnt > 0;
  for (; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    cnt++;
    if (!have || (is_min ? v[i] < b : v[i] > b)) b = v[i];
    have = true;
  }
  *count += cnt;
  if (have) *best = b;
  return have;
}

bool MinMaxI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                      bool is_min, int32_t* best, int64_t* count) {
  const int32_t ident = is_min ? INT32_MAX : INT32_MIN;
  const __m256i identv = _mm256_set1_epi32(ident);
  __m256i acc = identv;
  int64_t cnt = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i val = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    if (nulls != nullptr) {
      const __m128i nb =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(nulls + i));
      const __m256i nl = _mm256_cvtepu8_epi32(nb);
      const __m256i keep = _mm256_cmpeq_epi32(nl, _mm256_setzero_si256());
      val = _mm256_blendv_epi8(identv, val, keep);
      cnt += __builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(keep))));
    } else {
      cnt += 8;
    }
    acc = is_min ? _mm256_min_epi32(acc, val) : _mm256_max_epi32(acc, val);
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int32_t b = ident;
  for (int l = 0; l < 8; l++) {
    if (is_min ? lanes[l] < b : lanes[l] > b) b = lanes[l];
  }
  bool have = cnt > 0;
  for (; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    cnt++;
    if (!have || (is_min ? v[i] < b : v[i] > b)) b = v[i];
    have = true;
  }
  *count += cnt;
  if (have) *best = b;
  return have;
}

}  // namespace simd_avx2
}  // namespace x100

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#else  // !X100_HAVE_AVX2_BUILD

// Scalar stubs: never selected by dispatch (ResolveSimdLevel cannot yield
// kAvx2 on this build) but keep the link surface identical.
namespace x100 {
namespace simd_avx2 {

void RegisterKernels() {}

void OrBytesInto(int n, const uint8_t* src, uint8_t* dst) {
  for (int i = 0; i < n; i++) dst[i] |= src[i];
}
void IsZeroBytes(int n, const uint8_t* src, uint8_t* dst) {
  for (int i = 0; i < n; i++) dst[i] = src[i] == 0 ? 1 : 0;
}
int CompactTrue(int n, const uint8_t* val, sel_t* sel_out) {
  int k = 0;
  for (int i = 0; i < n; i++) {
    sel_out[k] = i;
    k += val[i] ? 1 : 0;
  }
  return k;
}
int CompactNotNull(int n, const uint8_t* nulls, sel_t* sel_out) {
  int k = 0;
  for (int i = 0; i < n; i++) {
    sel_out[k] = i;
    k += nulls[i] ? 0 : 1;
  }
  return k;
}
int CompactTrueNotNull(int n, const uint8_t* val, const uint8_t* nulls,
                       sel_t* sel_out) {
  int k = 0;
  for (int i = 0; i < n; i++) {
    sel_out[k] = i;
    k += (val[i] && !nulls[i]) ? 1 : 0;
  }
  return k;
}
void HashI32Dense(int n, const int32_t* v, uint64_t* h, bool combine) {
  for (int j = 0; j < n; j++) {
    const uint64_t hv = HashInt(v[j]);
    h[j] = combine ? HashCombine(h[j], hv) : hv;
  }
}
void HashI64Dense(int n, const int64_t* v, uint64_t* h, bool combine) {
  for (int j = 0; j < n; j++) {
    const uint64_t hv = HashInt(v[j]);
    h[j] = combine ? HashCombine(h[j], hv) : hv;
  }
}
void HashF64Dense(int n, const double* v, uint64_t* h, bool combine) {
  for (int j = 0; j < n; j++) {
    const uint64_t hv = HashDouble(v[j]);
    h[j] = combine ? HashCombine(h[j], hv) : hv;
  }
}
int64_t CountNonNull(int n, const uint8_t* nulls) {
  if (nulls == nullptr) return n;
  int64_t c = 0;
  for (int i = 0; i < n; i++) c += nulls[i] ? 0 : 1;
  return c;
}
void SumI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps) {
  for (int i = 0; i < n; i++) {
    if (nulls == nullptr || !nulls[i]) AddWrapCounted(sum, wraps, v[i]);
  }
}
void SumI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                   int64_t* sum, int64_t* wraps) {
  for (int i = 0; i < n; i++) {
    if (nulls == nullptr || !nulls[i]) AddWrapCounted(sum, wraps, v[i]);
  }
}
bool MinMaxI32Keyless(int n, const int32_t* v, const uint8_t* nulls,
                      bool is_min, int32_t* best, int64_t* count) {
  bool have = false;
  int32_t b = 0;
  for (int i = 0; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    (*count)++;
    if (!have || (is_min ? v[i] < b : v[i] > b)) b = v[i];
    have = true;
  }
  if (have) *best = b;
  return have;
}
bool MinMaxI64Keyless(int n, const int64_t* v, const uint8_t* nulls,
                      bool is_min, int64_t* best, int64_t* count) {
  bool have = false;
  int64_t b = 0;
  for (int i = 0; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    (*count)++;
    if (!have || (is_min ? v[i] < b : v[i] > b)) b = v[i];
    have = true;
  }
  if (have) *best = b;
  return have;
}

}  // namespace simd_avx2
}  // namespace x100

#endif  // X100_HAVE_AVX2_BUILD
