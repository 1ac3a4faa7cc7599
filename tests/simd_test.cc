// SIMD dispatch parity suite.
//
// Every kernel ported to a SIMD target must be BIT-identical to the scalar
// baseline — not "approximately equal": hash values feed RadixPartitionOf
// and therefore partition/spill routing, f64 compares must keep exact NaN
// semantics, and aggregate accumulators are compared across parallel plans.
// These tests fuzz each ported kernel against the scalar reference over
// random data (NULL masks, selection vectors, special FP values) at every
// level AvailableSimdLevels() reports, across tail lengths that cover
// 0, 1, lane-1, full lanes, and non-multiples of the vector width.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/hash.h"
#include "engine/database.h"
#include "engine/session.h"
#include "primitives/agg_kernels.h"
#include "primitives/hash_kernels.h"
#include "primitives/primitive_registry.h"
#include "simd/simd.h"
#include "simd/simd_kernels.h"

namespace x100 {
namespace {

// Tail coverage: empty, single row, just under / at / over the 4- and
// 8-lane widths, a full default vector, and awkward non-multiples.
const int kLens[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 100, 1023, 1024};

std::vector<SimdLevel> NonScalarLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l : AvailableSimdLevels()) {
    if (l != SimdLevel::kScalar) out.push_back(l);
  }
  return out;
}

class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { EnsureKernelsRegistered(); }
  PrimitiveRegistry* reg() { return PrimitiveRegistry::Get(); }
  std::mt19937_64 rng_{42};

  std::vector<uint8_t> RandomBytes01(int n) {
    std::vector<uint8_t> v(n);
    for (int i = 0; i < n; i++) v[i] = rng_() & 1;
    return v;
  }
  std::vector<int32_t> RandomI32(int n) {
    std::vector<int32_t> v(n);
    for (int i = 0; i < n; i++) {
      // Small range so compares hit both outcomes often, plus extremes.
      v[i] = static_cast<int32_t>(rng_() % 64) - 32;
    }
    if (n > 2) {
      v[0] = std::numeric_limits<int32_t>::min();
      v[1] = std::numeric_limits<int32_t>::max();
    }
    return v;
  }
  std::vector<int64_t> RandomI64(int n) {
    std::vector<int64_t> v(n);
    for (int i = 0; i < n; i++) {
      v[i] = static_cast<int64_t>(rng_() % 64) - 32;
    }
    if (n > 2) {
      v[0] = std::numeric_limits<int64_t>::min();
      v[1] = std::numeric_limits<int64_t>::max();
    }
    return v;
  }
  std::vector<double> RandomF64(int n) {
    std::vector<double> v(n);
    for (int i = 0; i < n; i++) {
      v[i] = (static_cast<double>(rng_() % 64) - 32) * 0.5;
    }
    // Special values exercise exact NaN / signed-zero semantics.
    if (n > 5) {
      v[0] = std::numeric_limits<double>::quiet_NaN();
      v[1] = 0.0;
      v[2] = -0.0;
      v[3] = std::numeric_limits<double>::infinity();
      v[4] = -std::numeric_limits<double>::infinity();
    }
    return v;
  }
};

// ---- mode parsing / resolution ---------------------------------------------

TEST_F(SimdTest, ParseSimdModeStrict) {
  SimdMode m = SimdMode::kNeon;
  EXPECT_TRUE(ParseSimdMode("auto", &m));
  EXPECT_EQ(m, SimdMode::kAuto);
  EXPECT_TRUE(ParseSimdMode("scalar", &m));
  EXPECT_EQ(m, SimdMode::kScalar);
  EXPECT_TRUE(ParseSimdMode("avx2", &m));
  EXPECT_EQ(m, SimdMode::kAvx2);
  EXPECT_TRUE(ParseSimdMode("neon", &m));
  EXPECT_EQ(m, SimdMode::kNeon);
  m = SimdMode::kAuto;
  EXPECT_FALSE(ParseSimdMode("", &m));
  EXPECT_FALSE(ParseSimdMode("AVX2", &m));    // strict: no case folding
  EXPECT_FALSE(ParseSimdMode("avx512", &m));
  EXPECT_FALSE(ParseSimdMode(" scalar", &m));
  EXPECT_EQ(m, SimdMode::kAuto);  // out untouched on failure
}

TEST_F(SimdTest, ResolveScalarIsAlwaysScalar) {
  EXPECT_EQ(ResolveSimdLevel(SimdMode::kScalar), SimdLevel::kScalar);
}

TEST_F(SimdTest, AvailableLevelsStartWithScalar) {
  auto levels = AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels[0], SimdLevel::kScalar);
  for (SimdLevel l : levels) {
    EXPECT_NE(SimdLevelName(l), nullptr);
  }
}

// ---- registry variant resolution -------------------------------------------

TEST_F(SimdTest, VariantLookupPrefersLevelAndFallsBack) {
  std::vector<ArgSig> sigs = {{TypeId::kI32, false}, {TypeId::kI32, true}};
  auto scalar = reg()->FindMap("map", "lt", sigs, SimdLevel::kScalar);
  ASSERT_NE(scalar.fn, nullptr);
  EXPECT_EQ(scalar.level, SimdLevel::kScalar);
  for (SimdLevel l : NonScalarLevels()) {
    auto variant = reg()->FindMap("map", "lt", sigs, l);
    ASSERT_NE(variant.fn, nullptr);
    if (l == SimdLevel::kAvx2) {
      // AVX2 registers every compare; the lookup must resolve the variant,
      // not fall back silently.
      EXPECT_EQ(variant.level, l);
      EXPECT_NE(variant.fn, scalar.fn);
    }
    EXPECT_EQ(variant.out_type, scalar.out_type);
    // A signature with no variant (string compare) must fall back.
    auto str = reg()->FindMap(
        "map", "eq", {{TypeId::kStr, false}, {TypeId::kStr, true}}, l);
    ASSERT_NE(str.fn, nullptr);
    EXPECT_EQ(str.level, SimdLevel::kScalar);
  }
  if (BestSupportedSimdLevel() != SimdLevel::kScalar) {
    EXPECT_GT(reg()->num_simd_variants(), 0);
  }
}

// ---- byte kernels: NULL-mask combination + compaction ----------------------

TEST_F(SimdTest, OrBytesIntoParity) {
  for (int n : kLens) {
    auto src = RandomBytes01(n);
    auto base = RandomBytes01(n);
    std::vector<uint8_t> ref = base;
    simd::OrBytesInto(n, src.data(), ref.data(), SimdLevel::kScalar);
    for (SimdLevel l : NonScalarLevels()) {
      std::vector<uint8_t> got = base;
      simd::OrBytesInto(n, src.data(), got.data(), l);
      EXPECT_EQ(ref, got) << "n=" << n << " level=" << SimdLevelName(l);
    }
  }
}

TEST_F(SimdTest, IsZeroBytesParity) {
  for (int n : kLens) {
    auto src = RandomBytes01(n);
    std::vector<uint8_t> ref(n, 0xCC), got(n, 0xCC);
    simd::IsZeroBytes(n, src.data(), ref.data(), SimdLevel::kScalar);
    for (SimdLevel l : NonScalarLevels()) {
      simd::IsZeroBytes(n, src.data(), got.data(), l);
      EXPECT_EQ(ref, got) << "n=" << n << " level=" << SimdLevelName(l);
    }
  }
}

TEST_F(SimdTest, CompactionParity) {
  // Only sel_out[0..k) is defined: the wide permute stores (and the
  // branch-free scalar loop) scribble candidates past the match count.
  auto expect_prefix_eq = [](const std::vector<sel_t>& ref,
                             const std::vector<sel_t>& got, int k,
                             const char* what, int n) {
    for (int i = 0; i < k; i++) {
      ASSERT_EQ(ref[i], got[i]) << what << " n=" << n << " slot " << i;
    }
  };
  for (int n : kLens) {
    auto val = RandomBytes01(n);
    auto nulls = RandomBytes01(n);
    std::vector<sel_t> ref(n + 1, -7), got(n + 1, -7);
    // All three compaction flavors, each against the scalar reference.
    for (SimdLevel l : NonScalarLevels()) {
      int kr = simd::CompactTrue(n, val.data(), ref.data(),
                                 SimdLevel::kScalar);
      int kg = simd::CompactTrue(n, val.data(), got.data(), l);
      ASSERT_EQ(kr, kg) << "n=" << n;
      expect_prefix_eq(ref, got, kr, "CompactTrue", n);

      kr = simd::CompactNotNull(n, nulls.data(), ref.data(),
                                SimdLevel::kScalar);
      kg = simd::CompactNotNull(n, nulls.data(), got.data(), l);
      ASSERT_EQ(kr, kg) << "n=" << n;
      expect_prefix_eq(ref, got, kr, "CompactNotNull", n);

      kr = simd::CompactTrueNotNull(n, val.data(), nulls.data(), ref.data(),
                                    SimdLevel::kScalar);
      kg = simd::CompactTrueNotNull(n, val.data(), nulls.data(), got.data(),
                                    l);
      ASSERT_EQ(kr, kg) << "n=" << n;
      expect_prefix_eq(ref, got, kr, "CompactTrueNotNull", n);
    }
  }
}

TEST_F(SimdTest, CompactAllTrueAndAllFalse) {
  // Degenerate masks: every row passes / no row passes.
  for (int n : {8, 31, 1024}) {
    std::vector<uint8_t> ones(n, 1), zeros(n, 0);
    std::vector<sel_t> out(n);
    for (SimdLevel l : AvailableSimdLevels()) {
      EXPECT_EQ(simd::CompactTrue(n, ones.data(), out.data(), l), n);
      for (int i = 0; i < n; i++) EXPECT_EQ(out[i], i);
      EXPECT_EQ(simd::CompactTrue(n, zeros.data(), out.data(), l), 0);
    }
  }
}

// ---- select / map compare primitives ---------------------------------------

struct CmpCase {
  TypeId type;
  const char* op;
};

class SimdCompareTest : public SimdTest,
                        public ::testing::WithParamInterface<CmpCase> {};

TEST_P(SimdCompareTest, SelectAndMapParity) {
  const CmpCase& c = GetParam();
  auto i32 = RandomI32(1024);
  auto i64 = RandomI64(1024);
  auto f64 = RandomF64(1024);
  auto i32b = RandomI32(1024);
  auto i64b = RandomI64(1024);
  auto f64b = RandomF64(1024);
  const void* a_col = nullptr;
  const void* b_col = nullptr;
  const void* b_val = nullptr;
  switch (c.type) {
    case TypeId::kF64:
      a_col = f64.data(); b_col = f64b.data(); b_val = &f64b[7];
      break;
    case TypeId::kI64:
      a_col = i64.data(); b_col = i64b.data(); b_val = &i64b[7];
      break;
    default:  // kI32 / kDate share the i32 kernels
      a_col = i32.data(); b_col = i32b.data(); b_val = &i32b[7];
      break;
  }
  struct Shape {
    std::vector<ArgSig> sigs;
    const void* args[2];
  };
  const Shape shapes[] = {
      {{{c.type, false}, {c.type, false}}, {a_col, b_col}},
      {{{c.type, false}, {c.type, true}}, {a_col, b_val}},
      {{{c.type, true}, {c.type, false}}, {b_val, a_col}},
  };
  for (const Shape& sh : shapes) {
    SelectFn sref = reg()->FindSelect(c.op, sh.sigs, SimdLevel::kScalar);
    MapEntry mref = reg()->FindMap("map", c.op, sh.sigs, SimdLevel::kScalar);
    ASSERT_NE(sref, nullptr);
    ASSERT_NE(mref.fn, nullptr);
    for (SimdLevel l : NonScalarLevels()) {
      SelectFn svar = reg()->FindSelect(c.op, sh.sigs, l);
      MapEntry mvar = reg()->FindMap("map", c.op, sh.sigs, l);
      ASSERT_NE(svar, nullptr);
      ASSERT_NE(mvar.fn, nullptr);
      for (int n : kLens) {
        // Dense path. Only sel_out[0..k) is defined by the contract —
        // both the branch-free scalar kernels and the 8-wide permute
        // stores scribble candidates past the match count.
        std::vector<sel_t> sr(n + 1, -7), sv(n + 1, -7);
        int kr = sref(n, nullptr, sh.args, sr.data());
        int kv = svar(n, nullptr, sh.args, sv.data());
        ASSERT_EQ(kr, kv) << c.op << " n=" << n;
        sr.resize(kr);
        sv.resize(kv);
        EXPECT_EQ(sr, sv) << c.op << " n=" << n;
        sr.assign(n + 1, -7);
        sv.assign(n + 1, -7);
        std::vector<uint8_t> mr(n + 1, 0xCC), mv(n + 1, 0xCC);
        ASSERT_TRUE(mref.fn(n, nullptr, sh.args, mr.data(), nullptr).ok());
        ASSERT_TRUE(mvar.fn(n, nullptr, sh.args, mv.data(), nullptr).ok());
        EXPECT_EQ(mr, mv) << c.op << " map n=" << n;
        // Chained path: run through a pre-existing selection (every 3rd row).
        std::vector<sel_t> sel_in;
        for (int i = 0; i < n; i += 3) sel_in.push_back(i);
        const int ns = static_cast<int>(sel_in.size());
        kr = sref(ns, sel_in.data(), sh.args, sr.data());
        kv = svar(ns, sel_in.data(), sh.args, sv.data());
        ASSERT_EQ(kr, kv) << c.op << " sel n=" << n;
        sr.resize(kr);
        sv.resize(kv);
        EXPECT_EQ(sr, sv) << c.op << " sel n=" << n;
        std::fill(mr.begin(), mr.end(), 0xCC);
        std::fill(mv.begin(), mv.end(), 0xCC);
        ASSERT_TRUE(
            mref.fn(ns, sel_in.data(), sh.args, mr.data(), nullptr).ok());
        ASSERT_TRUE(
            mvar.fn(ns, sel_in.data(), sh.args, mv.data(), nullptr).ok());
        EXPECT_EQ(mr, mv) << c.op << " map sel n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndTypes, SimdCompareTest,
    ::testing::Values(
        CmpCase{TypeId::kI32, "eq"}, CmpCase{TypeId::kI32, "ne"},
        CmpCase{TypeId::kI32, "lt"}, CmpCase{TypeId::kI32, "le"},
        CmpCase{TypeId::kI32, "gt"}, CmpCase{TypeId::kI32, "ge"},
        CmpCase{TypeId::kDate, "eq"}, CmpCase{TypeId::kDate, "lt"},
        CmpCase{TypeId::kDate, "ge"}, CmpCase{TypeId::kI64, "eq"},
        CmpCase{TypeId::kI64, "ne"}, CmpCase{TypeId::kI64, "lt"},
        CmpCase{TypeId::kI64, "le"}, CmpCase{TypeId::kI64, "gt"},
        CmpCase{TypeId::kI64, "ge"}, CmpCase{TypeId::kF64, "eq"},
        CmpCase{TypeId::kF64, "ne"}, CmpCase{TypeId::kF64, "lt"},
        CmpCase{TypeId::kF64, "le"}, CmpCase{TypeId::kF64, "gt"},
        CmpCase{TypeId::kF64, "ge"}));

// ---- boolean kernels -------------------------------------------------------

TEST_F(SimdTest, BoolKernelParity) {
  const char* binops[] = {"and", "or", "xor"};
  for (int n : kLens) {
    auto a = RandomBytes01(n);
    auto b = RandomBytes01(n);
    const void* args2[2] = {a.data(), b.data()};
    const void* args1[1] = {a.data()};
    std::vector<ArgSig> sig2 = {{TypeId::kBool, false}, {TypeId::kBool, false}};
    std::vector<ArgSig> sig1 = {{TypeId::kBool, false}};
    for (SimdLevel l : NonScalarLevels()) {
      for (const char* op : binops) {
        auto ref = reg()->FindMap("map", op, sig2, SimdLevel::kScalar);
        auto var = reg()->FindMap("map", op, sig2, l);
        ASSERT_NE(ref.fn, nullptr);
        ASSERT_NE(var.fn, nullptr);
        std::vector<uint8_t> mr(n + 1, 0xCC), mv(n + 1, 0xCC);
        ASSERT_TRUE(ref.fn(n, nullptr, args2, mr.data(), nullptr).ok());
        ASSERT_TRUE(var.fn(n, nullptr, args2, mv.data(), nullptr).ok());
        EXPECT_EQ(mr, mv) << op << " n=" << n;
      }
      auto ref = reg()->FindMap("map", "not", sig1, SimdLevel::kScalar);
      auto var = reg()->FindMap("map", "not", sig1, l);
      ASSERT_NE(ref.fn, nullptr);
      ASSERT_NE(var.fn, nullptr);
      std::vector<uint8_t> mr(n + 1, 0xCC), mv(n + 1, 0xCC);
      ASSERT_TRUE(ref.fn(n, nullptr, args1, mr.data(), nullptr).ok());
      ASSERT_TRUE(var.fn(n, nullptr, args1, mv.data(), nullptr).ok());
      EXPECT_EQ(mr, mv) << "not n=" << n;
    }
  }
}

// ---- hash kernels ----------------------------------------------------------

TEST_F(SimdTest, HashParityAllTypes) {
  // Hashes route rows to radix partitions and spill files: a single
  // differing bit would change which rows go out of core. Compare the full
  // 64-bit values.
  for (int n : kLens) {
    Vector vi32(TypeId::kI32, n + 1);
    Vector vdate(TypeId::kDate, n + 1);
    Vector vi64(TypeId::kI64, n + 1);
    Vector vf64(TypeId::kF64, n + 1);
    auto i32 = RandomI32(n);
    auto i64 = RandomI64(n);
    auto f64 = RandomF64(n);
    if (n > 0) {
      std::memcpy(vi32.RawData(), i32.data(), n * sizeof(int32_t));
      std::memcpy(vdate.RawData(), i32.data(), n * sizeof(int32_t));
      std::memcpy(vi64.RawData(), i64.data(), n * sizeof(int64_t));
      std::memcpy(vf64.RawData(), f64.data(), n * sizeof(double));
    }
    const Vector* cols[] = {&vi32, &vdate, &vi64, &vf64};
    for (const Vector* v : cols) {
      std::vector<uint64_t> ref(n, 0), got(n, 0);
      hashk::HashColumn(*v, n, nullptr, ref.data(), /*combine=*/false,
                        SimdLevel::kScalar);
      for (SimdLevel l : NonScalarLevels()) {
        hashk::HashColumn(*v, n, nullptr, got.data(), false, l);
        EXPECT_EQ(ref, got) << "type=" << static_cast<int>(v->type())
                            << " n=" << n << " level=" << SimdLevelName(l);
        // Multi-column combine chain: fold a second pass into the first.
        std::vector<uint64_t> ref2 = ref, got2 = ref;
        hashk::HashColumn(*v, n, nullptr, ref2.data(), /*combine=*/true,
                          SimdLevel::kScalar);
        hashk::HashColumn(*v, n, nullptr, got2.data(), true, l);
        EXPECT_EQ(ref2, got2) << "combine n=" << n;
      }
    }
  }
}

TEST_F(SimdTest, HashParityThroughSelectionVector) {
  const int n = 1024;
  Vector v(TypeId::kI64, n);
  auto data = RandomI64(n);
  std::memcpy(v.RawData(), data.data(), n * sizeof(int64_t));
  std::vector<sel_t> sel;
  for (int i = 0; i < n; i += 7) sel.push_back(i);
  const int ns = static_cast<int>(sel.size());
  std::vector<uint64_t> ref(ns), got(ns);
  hashk::HashColumn(v, ns, sel.data(), ref.data(), false, SimdLevel::kScalar);
  for (SimdLevel l : NonScalarLevels()) {
    hashk::HashColumn(v, ns, sel.data(), got.data(), false, l);
    EXPECT_EQ(ref, got) << SimdLevelName(l);
  }
}

TEST_F(SimdTest, HashSpecialDoublesMatchScalarReference) {
  // -0.0 must hash like 0.0 (they group together); NaN/inf must match the
  // scalar HashDouble exactly.
  const double vals[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1.5, -2.25};
  const int n = 7;
  Vector v(TypeId::kF64, n);
  std::memcpy(v.RawData(), vals, sizeof(vals));
  for (SimdLevel l : AvailableSimdLevels()) {
    std::vector<uint64_t> h(n);
    hashk::HashColumn(v, n, nullptr, h.data(), false, l);
    for (int i = 0; i < n; i++) {
      EXPECT_EQ(h[i], HashDouble(vals[i])) << "i=" << i;
    }
    EXPECT_EQ(h[0], h[1]);  // -0.0 == 0.0
  }
}

// ---- aggregate update kernels ----------------------------------------------

/// Accumulator arrays of one aggregate over `groups` groups, laid out and
/// initialized as agg::LayoutOf says, with NULL counting on.
struct AggAccum {
  AggKind kind;
  TypeId type;
  std::vector<int64_t> i64, wraps, nulls;
  std::vector<double> f64;
  AggAccum(AggKind k, TypeId t, int groups) : kind(k), type(t) {
    const agg::Layout l = agg::LayoutOf(k, t);
    if (l.i64) i64.assign(groups, l.i64_init);
    if (l.f64) f64.assign(groups, l.f64_init);
    if (l.wraps) wraps.assign(groups, 0);
    nulls.assign(groups, 0);
  }
  agg::Slots slots() {
    return {i64.empty() ? nullptr : i64.data(),
            f64.empty() ? nullptr : f64.data(),
            wraps.empty() ? nullptr : wraps.data(), nulls.data()};
  }
  void Fold(int n, const uint32_t* gid, const uint8_t* mask,
            const void* data, SimdLevel l) {
    const agg::UpdateFn fn =
        agg::FindUpdate(kind, type, 1, mask != nullptr, l);
    const void* cols[1] = {data};
    const agg::Slots s = slots();
    fn(n, nullptr, gid, cols, mask, &s);
  }
  bool BitIdentical(const AggAccum& o) const {
    return i64 == o.i64 && wraps == o.wraps && nulls == o.nulls &&
           f64.size() == o.f64.size() &&
           (f64.empty() || std::memcmp(f64.data(), o.f64.data(),
                                       f64.size() * sizeof(double)) == 0);
  }
};

TEST_F(SimdTest, KeylessAggParity) {
  const AggKind kinds[] = {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                           AggKind::kMin, AggKind::kMax};
  for (int n : kLens) {
    auto i32 = RandomI32(n);
    auto i64 = RandomI64(n);
    auto f64 = RandomF64(n);
    // Three NULL shapes: no indicator column, random mask, all-NULL.
    auto mask = RandomBytes01(n);
    std::vector<uint8_t> all_null(n, 1);
    struct Input {
      TypeId type;
      const void* data;
    };
    const Input inputs[] = {{TypeId::kI32, i32.data()},
                            {TypeId::kI64, i64.data()},
                            {TypeId::kF64, f64.data()}};
    const uint8_t* masks[] = {nullptr, mask.data(), all_null.data()};
    for (const Input& in : inputs) {
      for (const uint8_t* nulls : masks) {
        for (AggKind kind : kinds) {
          AggAccum ref(kind, in.type, 1);
          ref.Fold(n, nullptr, nulls, in.data, SimdLevel::kScalar);
          for (SimdLevel l : NonScalarLevels()) {
            AggAccum got(kind, in.type, 1);
            got.Fold(n, nullptr, nulls, in.data, l);
            EXPECT_TRUE(ref.BitIdentical(got))
                << "kind=" << AggKindName(kind)
                << " type=" << static_cast<int>(in.type) << " n=" << n
                << " nulls=" << (nulls ? (nulls[0] ? "all" : "mask") : "none");
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, KeylessAggParityIntoWarmAccumulator) {
  // Vector #2 folds into state left by vector #1 — the min/max identity
  // and the running sum (with its wrap count) must match scalar exactly
  // across the boundary.
  const int n = 100;
  auto a = RandomI64(n);
  auto b = RandomI64(n);
  auto mask = RandomBytes01(n);
  for (AggKind kind : {AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    AggAccum ref(kind, TypeId::kI64, 1);
    ref.Fold(n, nullptr, mask.data(), a.data(), SimdLevel::kScalar);
    ref.Fold(n, nullptr, nullptr, b.data(), SimdLevel::kScalar);
    for (SimdLevel l : NonScalarLevels()) {
      AggAccum got(kind, TypeId::kI64, 1);
      got.Fold(n, nullptr, mask.data(), a.data(), l);
      got.Fold(n, nullptr, nullptr, b.data(), l);
      EXPECT_TRUE(ref.BitIdentical(got)) << AggKindName(kind);
    }
  }
}

TEST_F(SimdTest, GroupedAggMatchesScalarAtEveryLevel) {
  // The grouped kernels have no SIMD variant — passing a SIMD level must
  // still produce identical state (it takes the scalar route internally).
  const int n = 1024, groups = 8;
  auto data = RandomI32(n);
  auto mask = RandomBytes01(n);
  std::vector<uint32_t> gid(n);
  for (int i = 0; i < n; i++) gid[i] = rng_() % groups;
  for (AggKind kind : {AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    AggAccum ref(kind, TypeId::kI32, groups);
    ref.Fold(n, gid.data(), mask.data(), data.data(), SimdLevel::kScalar);
    for (SimdLevel l : NonScalarLevels()) {
      AggAccum got(kind, TypeId::kI32, groups);
      got.Fold(n, gid.data(), mask.data(), data.data(), l);
      EXPECT_TRUE(ref.BitIdentical(got)) << AggKindName(kind);
    }
  }
}

TEST_F(SimdTest, FusedKernelMatchesOneColumnAtATime) {
  // One pass over K same-(kind, type) columns leaves exactly the state of
  // K single-column passes (per-group row order is unchanged).
  const int n = 1000, groups = 4;
  std::vector<std::vector<double>> cols;
  for (int k = 0; k < agg::kMaxFused; k++) cols.push_back(RandomF64(n));
  std::vector<uint32_t> gid(n);
  for (int i = 0; i < n; i++) gid[i] = rng_() % groups;
  for (int k = 1; k <= agg::kMaxFused; k++) {
    std::vector<AggAccum> one, fused;
    std::vector<agg::Slots> slots;
    std::vector<const void*> ptrs;
    for (int c = 0; c < k; c++) {
      one.emplace_back(AggKind::kSum, TypeId::kF64, groups);
      fused.emplace_back(AggKind::kSum, TypeId::kF64, groups);
    }
    for (int c = 0; c < k; c++) {
      one[c].Fold(n, gid.data(), nullptr, cols[c].data(), SimdLevel::kScalar);
      slots.push_back(fused[c].slots());
      ptrs.push_back(cols[c].data());
    }
    agg::FindUpdate(AggKind::kSum, TypeId::kF64, k, false)(
        n, nullptr, gid.data(), ptrs.data(), nullptr, slots.data());
    for (int c = 0; c < k; c++) {
      EXPECT_TRUE(one[c].BitIdentical(fused[c])) << "k=" << k << " c=" << c;
    }
  }
}

TEST_F(SimdTest, SumI64ReportsOverflowAtEveryLevel) {
  // Four values near INT64_MAX / 2 wrap a plain int64 sum. The exact
  // (sum, wraps) pair flags it at every level, keyless and grouped, and
  // a later negative vector that brings the total back in range clears
  // it again — the result depends on the exact sum, not the order.
  const int64_t big = std::numeric_limits<int64_t>::max() / 2 + 2;
  std::vector<int64_t> up(4, big), down(4, -big);
  std::vector<uint32_t> gid = {1, 1, 1, 1};
  for (SimdLevel l : AvailableSimdLevels()) {
    for (const uint32_t* g : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(gid.data())}) {
      AggAccum acc(AggKind::kSum, TypeId::kI64, 2);
      acc.Fold(4, g, nullptr, up.data(), l);
      const uint32_t at = g ? 1 : 0;
      int64_t out = 0;
      EXPECT_TRUE(agg::CheckedSum(acc.slots(), at, &out).IsOverflow())
          << SimdLevelName(l);
      acc.Fold(4, g, nullptr, down.data(), l);
      ASSERT_TRUE(agg::CheckedSum(acc.slots(), at, &out).ok())
          << SimdLevelName(l);
      EXPECT_EQ(out, 0);
    }
  }
}

TEST_F(SimdTest, CountRows) {
  std::vector<int64_t> rows(4, 0);
  agg::CountRows(100, nullptr, rows.data(), 1);
  EXPECT_EQ(rows[0], 100);
  std::vector<uint32_t> gid = {0, 1, 1, 3};
  agg::CountRows(4, gid.data(), rows.data(), 4);
  EXPECT_EQ(rows[0], 101);
  EXPECT_EQ(rows[1], 2);
  EXPECT_EQ(rows[3], 1);
  // Both the few-groups and the many-groups paths count every row.
  for (const int groups : {3, agg::kSmallGroups, agg::kSmallGroups + 1,
                           5000}) {
    std::vector<uint32_t> many(1023);
    std::vector<int64_t> want(groups, 0), got(groups, 0);
    for (auto& g : many) {
      g = static_cast<uint32_t>(rng_() % groups);
      want[g]++;
    }
    agg::CountRows(static_cast<int>(many.size()), many.data(), got.data(),
                   groups);
    EXPECT_EQ(got, want) << groups;
  }
}

// ---- end-to-end: whole queries across dispatch levels ----------------------

class SimdEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    auto b = db_->CreateTable(
        "t", Schema({Field("k", TypeId::kI64), Field("grp", TypeId::kI32),
                     Field("x", TypeId::kF64, /*nullable=*/true)}),
        Layout::kDsm, 128);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 4000; i++) {
      b->AppendRow({Value::I64(static_cast<int64_t>(rng() % 500)),
                    Value::I32(static_cast<int32_t>(i % 13)),
                    i % 5 == 0 ? Value::Null(TypeId::kF64)
                               : Value::F64((i % 97) * 0.25)})
          .ok();
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    session_ = std::make_unique<Session>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SimdEndToEndTest, QueriesIdenticalAcrossLevels) {
  const char* queries[] = {
      "SELECT COUNT(*) AS n, SUM(k) AS s, MIN(k) AS mn, MAX(k) AS mx "
      "FROM t WHERE k < 250",
      "SELECT grp, COUNT(x) AS c, SUM(x) AS s FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT k, COUNT(*) AS n, MAX(x) AS mx FROM t WHERE grp < 9 "
      "GROUP BY k ORDER BY k",
  };
  for (const char* q : queries) {
    db_->config().simd_level = SimdMode::kScalar;
    auto scalar = session_->ExecuteSql(q);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString() << "\n" << q;
    EXPECT_EQ(scalar->profile.simd, "scalar");
    db_->config().simd_level = SimdMode::kAuto;
    auto autod = session_->ExecuteSql(q);
    ASSERT_TRUE(autod.ok()) << autod.status().ToString();
    // kAuto resolves through the X100_SIMD env knob, so this holds under
    // the forced-scalar CI leg too.
    EXPECT_EQ(autod->profile.simd,
              SimdLevelName(ResolveSimdLevel(SimdMode::kAuto)));
    ASSERT_EQ(scalar->rows.size(), autod->rows.size()) << q;
    for (size_t i = 0; i < scalar->rows.size(); i++) {
      for (size_t c = 0; c < scalar->rows[i].size(); c++) {
        const Value& a = scalar->rows[i][c];
        const Value& b = autod->rows[i][c];
        // SqlEquals has SQL NULL semantics (NULL != NULL); an all-NULL
        // group must produce NULL at both levels.
        EXPECT_TRUE((a.is_null() && b.is_null()) || a.SqlEquals(b))
            << q << " row " << i << " col " << c;
      }
    }
  }
  db_->config().simd_level = SimdMode::kAuto;
}

TEST_F(SimdEndToEndTest, ProfileReportsResolvedLevel) {
  db_->config().simd_level = SimdMode::kScalar;
  auto res = session_->ExecuteSql("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res->profile.ToString().find("simd=scalar"), std::string::npos);
  db_->config().simd_level = SimdMode::kAuto;
}

}  // namespace
}  // namespace x100
