#include "primitives/agg_kernels.h"

#include <algorithm>
#include <limits>

#include "simd/simd_kernels.h"

namespace x100 {
namespace agg {
namespace {

inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

// ---- value folds: one step of one aggregate on a running state ----------
//
// State is the per-group value (i64 or f64); Load/Store pick the array.
// The keyless loop keeps the state in a register, the grouped loop in the
// accumulator array.

struct I64State {
  using State = int64_t;
  static State Load(const Slots& a, uint32_t g) { return a.i64[g]; }
  static void Store(const Slots& a, uint32_t g, State s) { a.i64[g] = s; }
};
struct F64State {
  using State = double;
  static State Load(const Slots& a, uint32_t g) { return a.f64[g]; }
  static void Store(const Slots& a, uint32_t g, State s) { a.f64[g] = s; }
};

struct SumF64Op : F64State {
  static double Step(double s, double v) { return s + v; }
};
struct AvgIntOp : F64State {
  template <typename T>
  static double Step(double s, T v) {
    return s + static_cast<double>(static_cast<int64_t>(v));
  }
};
struct MinIntOp : I64State {
  template <typename T>
  static int64_t Step(int64_t s, T v) {
    const int64_t x = v;
    return x < s ? x : s;
  }
};
struct MaxIntOp : I64State {
  template <typename T>
  static int64_t Step(int64_t s, T v) {
    const int64_t x = v;
    return x > s ? x : s;
  }
};
struct MinF64Op : F64State {
  static double Step(double s, double v) { return v < s || s != s ? v : s; }
};
struct MaxF64Op : F64State {
  static double Step(double s, double v) { return v > s || s != s ? v : s; }
};

/// The generic typed fold: K aggregates of one (kind, type), one pass.
template <typename Op, typename T, int K, bool kNulls>
void Fold(int n, const sel_t* sel, const uint32_t* gid,
          const void* const* cols, const uint8_t* nulls, const Slots* acc) {
  const T* in[K];
  for (int k = 0; k < K; k++) in[k] = static_cast<const T*>(cols[k]);
  if (gid == nullptr) {
    typename Op::State st[K];
    for (int k = 0; k < K; k++) st[k] = Op::Load(acc[k], 0);
    int64_t nn = 0;
    for (int j = 0; j < n; j++) {
      const int i = sel ? sel[j] : j;
      if (kNulls) {
        nn += nulls[i] != 0;
        if (nulls[i]) continue;
      }
      for (int k = 0; k < K; k++) st[k] = Op::Step(st[k], in[k][i]);
    }
    for (int k = 0; k < K; k++) Op::Store(acc[k], 0, st[k]);
    if (kNulls) acc[0].nulls[0] += nn;
    return;
  }
  for (int j = 0; j < n; j++) {
    const int i = sel ? sel[j] : j;
    const uint32_t g = gid[j];
    if (kNulls) {
      acc[0].nulls[g] += nulls[i] != 0;
      if (nulls[i]) continue;
    }
    for (int k = 0; k < K; k++) {
      Op::Store(acc[k], g, Op::Step(Op::Load(acc[k], g), in[k][i]));
    }
  }
}

/// Integer SUM: a wrapping add per row plus an OR-accumulated overflow
/// flag (E7's branch-free check). Only when the flag fires is the vector
/// undone — wrapping subtraction restores the sums exactly — and replayed
/// counting each wrap-around into `wraps`.
template <typename T, int K, bool kNulls>
void SumInt(int n, const sel_t* sel, const uint32_t* gid,
            const void* const* cols, const uint8_t* nulls, const Slots* acc) {
  const T* in[K];
  for (int k = 0; k < K; k++) in[k] = static_cast<const T*>(cols[k]);
  unsigned ovf = 0;
  if (gid == nullptr) {
    int64_t st[K];
    for (int k = 0; k < K; k++) st[k] = acc[k].i64[0];
    int64_t nn = 0;
    for (int j = 0; j < n; j++) {
      const int i = sel ? sel[j] : j;
      if (kNulls) {
        nn += nulls[i] != 0;
        if (nulls[i]) continue;
      }
      for (int k = 0; k < K; k++) {
        ovf |= static_cast<unsigned>(
            __builtin_add_overflow(st[k], static_cast<int64_t>(in[k][i]),
                                   &st[k]));
      }
    }
    for (int k = 0; k < K; k++) acc[k].i64[0] = st[k];
    if (kNulls) acc[0].nulls[0] += nn;
  } else {
    for (int j = 0; j < n; j++) {
      const int i = sel ? sel[j] : j;
      const uint32_t g = gid[j];
      if (kNulls) {
        acc[0].nulls[g] += nulls[i] != 0;
        if (nulls[i]) continue;
      }
      for (int k = 0; k < K; k++) {
        ovf |= static_cast<unsigned>(__builtin_add_overflow(
            acc[k].i64[g], static_cast<int64_t>(in[k][i]), &acc[k].i64[g]));
      }
    }
  }
  if (__builtin_expect(ovf == 0, 1)) return;
  for (int pass = 0; pass < 2; pass++) {
    for (int j = 0; j < n; j++) {
      const int i = sel ? sel[j] : j;
      const uint32_t g = gid ? gid[j] : 0;
      if (kNulls && nulls[i]) continue;
      for (int k = 0; k < K; k++) {
        const int64_t v = in[k][i];
        if (pass == 0) {
          acc[k].i64[g] = WrapSub(acc[k].i64[g], v);
        } else {
          AddWrapCounted(&acc[k].i64[g], &acc[k].wraps[g], v);
        }
      }
    }
  }
}

/// COUNT(x): the non-NULL count is rows - nulls, so only NULLs are work.
void CountNulls(int n, const sel_t* sel, const uint32_t* gid,
                const void* const*, const uint8_t* nulls, const Slots* acc) {
  int64_t* nc = acc[0].nulls;
  for (int j = 0; j < n; j++) {
    const int i = sel ? sel[j] : j;
    nc[gid ? gid[j] : 0] += nulls[i] != 0;
  }
}
void Nothing(int, const sel_t*, const uint32_t*, const void* const*,
             const uint8_t*, const Slots*) {}

/// Instantiates Kernel::Run<K, kNulls> for the k aggregates asked for
/// (the NULL-skipping variant exists for K = 1 only).
template <typename Kernel>
UpdateFn PickK(int k, bool nulls) {
  if (nulls) return &Kernel::template Run<1, true>;
  switch (k) {
    case 1: return &Kernel::template Run<1, false>;
    case 2: return &Kernel::template Run<2, false>;
    case 3: return &Kernel::template Run<3, false>;
    case 4: return &Kernel::template Run<4, false>;
    case 5: return &Kernel::template Run<5, false>;
    case 6: return &Kernel::template Run<6, false>;
    case 7: return &Kernel::template Run<7, false>;
    default: return &Kernel::template Run<8, false>;
  }
}

template <typename Op, typename T>
struct FoldKernel {
  template <int K, bool kNulls>
  static void Run(int n, const sel_t* sel, const uint32_t* gid,
                  const void* const* cols, const uint8_t* nulls,
                  const Slots* acc) {
    Fold<Op, T, K, kNulls>(n, sel, gid, cols, nulls, acc);
  }
};
template <typename Op, typename T>
UpdateFn PickFold(int k, bool nulls) {
  return PickK<FoldKernel<Op, T>>(k, nulls);
}

template <typename T>
struct SumIntKernel {
  template <int K, bool kNulls>
  static void Run(int n, const sel_t* sel, const uint32_t* gid,
                  const void* const* cols, const uint8_t* nulls,
                  const Slots* acc) {
    SumInt<T, K, kNulls>(n, sel, gid, cols, nulls, acc);
  }
};

template <typename T>
UpdateFn PickIntKind(AggKind kind, int k, bool nulls) {
  switch (kind) {
    case AggKind::kSum: return PickK<SumIntKernel<T>>(k, nulls);
    case AggKind::kAvg: return PickFold<AvgIntOp, T>(k, nulls);
    case AggKind::kMin: return PickFold<MinIntOp, T>(k, nulls);
    case AggKind::kMax: return PickFold<MaxIntOp, T>(k, nulls);
    case AggKind::kCount: break;
  }
  return nullptr;
}

UpdateFn ScalarUpdate(AggKind kind, TypeId in_type, int k, bool nulls) {
  if (kind == AggKind::kCount) return nulls ? &CountNulls : &Nothing;
  switch (in_type) {
    case TypeId::kF64:
      switch (kind) {
        case AggKind::kSum:
        case AggKind::kAvg: return PickFold<SumF64Op, double>(k, nulls);
        case AggKind::kMin: return PickFold<MinF64Op, double>(k, nulls);
        case AggKind::kMax: return PickFold<MaxF64Op, double>(k, nulls);
        case AggKind::kCount: break;
      }
      return nullptr;
    case TypeId::kBool:
    case TypeId::kI8: return PickIntKind<int8_t>(kind, k, nulls);
    case TypeId::kI16: return PickIntKind<int16_t>(kind, k, nulls);
    case TypeId::kI32:
    case TypeId::kDate: return PickIntKind<int32_t>(kind, k, nulls);
    case TypeId::kI64: return PickIntKind<int64_t>(kind, k, nulls);
    case TypeId::kStr: break;
  }
  return nullptr;
}

// ---- AVX2: keyless dense integer folds ------------------------------------

void SumKeylessAvx2(int n, const int32_t* v, const uint8_t* nulls,
                    const Slots& a) {
  simd_avx2::SumI32Keyless(n, v, nulls, &a.i64[0], &a.wraps[0]);
}
void SumKeylessAvx2(int n, const int64_t* v, const uint8_t* nulls,
                    const Slots& a) {
  simd_avx2::SumI64Keyless(n, v, nulls, &a.i64[0], &a.wraps[0]);
}
void MinMaxKeylessAvx2(int n, const int32_t* v, const uint8_t* nulls,
                       bool is_min, const Slots& a) {
  int32_t best = 0;
  int64_t cnt = 0;
  if (!simd_avx2::MinMaxI32Keyless(n, v, nulls, is_min, &best, &cnt)) return;
  a.i64[0] = is_min ? std::min<int64_t>(a.i64[0], best)
                    : std::max<int64_t>(a.i64[0], best);
}
void MinMaxKeylessAvx2(int n, const int64_t* v, const uint8_t* nulls,
                       bool is_min, const Slots& a) {
  int64_t best = 0;
  int64_t cnt = 0;
  if (!simd_avx2::MinMaxI64Keyless(n, v, nulls, is_min, &best, &cnt)) return;
  a.i64[0] = is_min ? std::min(a.i64[0], best) : std::max(a.i64[0], best);
}

/// Keyless + dense vectors run the AVX2 folds (NULL lanes are masked, not
/// trusted); grouped or selected vectors take the scalar kernel.
/// Keyless + dense vectors run the AVX2 folds (NULL lanes are masked, not
/// trusted); grouped or selected vectors take the scalar kernel.
template <AggKind kKind, typename T>
struct KeylessAvx2 {
  template <int K, bool kNulls>
  static void Run(int n, const sel_t* sel, const uint32_t* gid,
                  const void* const* cols, const uint8_t* nulls,
                  const Slots* acc) {
    if (gid != nullptr || sel != nullptr) {
      if (kKind == AggKind::kSum) {
        SumInt<T, K, kNulls>(n, sel, gid, cols, nulls, acc);
      } else if (kKind == AggKind::kMin) {
        Fold<MinIntOp, T, K, kNulls>(n, sel, gid, cols, nulls, acc);
      } else {
        Fold<MaxIntOp, T, K, kNulls>(n, sel, gid, cols, nulls, acc);
      }
      return;
    }
    for (int k = 0; k < K; k++) {
      const T* v = static_cast<const T*>(cols[k]);
      if (kKind == AggKind::kSum) {
        SumKeylessAvx2(n, v, kNulls ? nulls : nullptr, acc[k]);
      } else {
        MinMaxKeylessAvx2(n, v, kNulls ? nulls : nullptr,
                          kKind == AggKind::kMin, acc[k]);
      }
    }
    if (kNulls) acc[0].nulls[0] += n - simd_avx2::CountNonNull(n, nulls);
  }
};

void CountNullsAvx2(int n, const sel_t* sel, const uint32_t* gid,
                    const void* const* cols, const uint8_t* nulls,
                    const Slots* acc) {
  if (gid != nullptr || sel != nullptr) {
    CountNulls(n, sel, gid, cols, nulls, acc);
    return;
  }
  acc[0].nulls[0] += n - simd_avx2::CountNonNull(n, nulls);
}

template <typename T>
UpdateFn Avx2IntKind(AggKind kind, int k, bool nulls) {
  switch (kind) {
    case AggKind::kSum: return PickK<KeylessAvx2<AggKind::kSum, T>>(k, nulls);
    case AggKind::kMin: return PickK<KeylessAvx2<AggKind::kMin, T>>(k, nulls);
    case AggKind::kMax: return PickK<KeylessAvx2<AggKind::kMax, T>>(k, nulls);
    default: return nullptr;
  }
}

}  // namespace

Layout LayoutOf(AggKind kind, TypeId in_type) {
  Layout l;
  const bool f64 = in_type == TypeId::kF64;
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
      l.f64 = f64;
      l.i64 = l.wraps = !f64;
      break;
    case AggKind::kAvg:
      l.f64 = true;
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      l.f64 = f64;
      l.i64 = !f64;
      l.f64_init = std::numeric_limits<double>::quiet_NaN();
      l.i64_init = kind == AggKind::kMin
                       ? std::numeric_limits<int64_t>::max()
                       : std::numeric_limits<int64_t>::min();
      break;
  }
  return l;
}

UpdateFn FindUpdate(AggKind kind, TypeId in_type, int k, bool nulls,
                    SimdLevel simd) {
  if (k < 1) k = 1;
  if (k > kMaxFused) k = kMaxFused;
  if (simd == SimdLevel::kAvx2) {
    if (kind == AggKind::kCount) return nulls ? &CountNullsAvx2 : &Nothing;
    if (in_type == TypeId::kI32 || in_type == TypeId::kDate) {
      if (UpdateFn fn = Avx2IntKind<int32_t>(kind, k, nulls)) return fn;
    } else if (in_type == TypeId::kI64) {
      if (UpdateFn fn = Avx2IntKind<int64_t>(kind, k, nulls)) return fn;
    }
  }
  return ScalarUpdate(kind, in_type, k, nulls);
}

void CountRows(int n, const uint32_t* gid, int64_t* rows,
               int64_t num_groups) {
  if (gid == nullptr) {
    rows[0] += n;
    return;
  }
  if (num_groups > kSmallGroups) {
    for (int j = 0; j < n; j++) rows[gid[j]]++;
    return;
  }
  // Few groups: consecutive rows mostly hit the same counter, and a
  // single array serializes on store-to-load latency. Four interleaved
  // partial counts break that chain (integer adds reassociate exactly).
  int32_t part[4][kSmallGroups] = {};
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    part[0][gid[j]]++;
    part[1][gid[j + 1]]++;
    part[2][gid[j + 2]]++;
    part[3][gid[j + 3]]++;
  }
  for (; j < n; j++) part[0][gid[j]]++;
  for (int64_t g = 0; g < num_groups; g++) {
    rows[g] += part[0][g] + part[1][g] + part[2][g] + part[3][g];
  }
}

void Combine(AggKind kind, const Layout& layout, const Slots& dst,
             uint32_t dg, const Slots& src, uint32_t sg) {
  if (src.nulls != nullptr) dst.nulls[dg] += src.nulls[sg];
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (layout.wraps) {
        AddWrapCounted(&dst.i64[dg], &dst.wraps[dg], src.i64[sg]);
        dst.wraps[dg] += src.wraps[sg];
      } else {
        dst.f64[dg] += src.f64[sg];
      }
      break;
    case AggKind::kMin:
      if (layout.f64) {
        dst.f64[dg] = MinF64Op::Step(dst.f64[dg], src.f64[sg]);
      } else {
        dst.i64[dg] = std::min(dst.i64[dg], src.i64[sg]);
      }
      break;
    case AggKind::kMax:
      if (layout.f64) {
        dst.f64[dg] = MaxF64Op::Step(dst.f64[dg], src.f64[sg]);
      } else {
        dst.i64[dg] = std::max(dst.i64[dg], src.i64[sg]);
      }
      break;
  }
}

Status CheckedSum(const Slots& acc, uint32_t g, int64_t* out) {
  if (acc.wraps[g] != 0) return Status::Overflow("integer overflow in sum");
  *out = acc.i64[g];
  return Status::OK();
}

}  // namespace agg
}  // namespace x100
