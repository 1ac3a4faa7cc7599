// Aggregation update kernels: fold one vector of aggregate input into the
// accumulator arrays (the X100 "aggr_*" primitive family). The grouped
// operator resolves group ids for a whole vector first; then each kernel
// is one typed loop over that vector — no per-row switch on kind or type.
//
// Accumulator layout. An aggregate keeps only the arrays its (kind, input
// type) reads, plus two counts shared through the group table:
//   rows[g]   rows folded into group g (COUNT(*), kept by the table)
//   nulls[g]  NULL inputs of this aggregate (absent until the first NULL)
// so the non-NULL count is rows[g] - nulls[g]; an aggregate over non-NULL
// inputs never writes a count of its own.
//   kCount:          no value array.
//   kSum,  int:      i64 (wrapping sum) + wraps (signed count of 2^64
//                    wrap-arounds: the exact sum is i64 + wraps * 2^64, so
//                    it fits iff wraps == 0 — order-independent, exact
//                    across SIMD lanes, workers and spill chunks).
//   kAvg,  int:      f64 running sum of double(v), in row order (AVG keeps
//                    its f64 result; it never reports overflow).
//   kSum/kAvg, f64:  f64 running sum, in row order.
//   kMin/kMax, int:  i64, initialized to the kind's identity.
//   kMin/kMax, f64:  f64, initialized to NaN; a value is adopted when it
//                    beats the current one or the current one is NaN, so
//                    NaN survives only when every input was NaN.
// Floating-point sums are accumulated per group in row order, which makes
// every kernel variant bit-identical to the scalar loop.
#ifndef X100_PRIMITIVES_AGG_KERNELS_H_
#define X100_PRIMITIVES_AGG_KERNELS_H_

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "simd/simd.h"
#include "vector/vector.h"

namespace x100 {

/// Identifies an aggregate function in plans and operators.
enum class AggKind : uint8_t {
  kCount,     // COUNT(*) or COUNT(x)
  kSum,
  kMin,
  kMax,
  kAvg,       // computed as sum + count, finalized to f64
};

const char* AggKindName(AggKind k);

namespace agg {

/// Which value arrays an aggregate keeps and what a new group starts at.
struct Layout {
  bool i64 = false;
  bool f64 = false;
  bool wraps = false;
  int64_t i64_init = 0;
  double f64_init = 0;
};
Layout LayoutOf(AggKind kind, TypeId in_type);

/// One aggregate's accumulator arrays, indexed by group id. Arrays the
/// layout does not keep are nullptr; `nulls` is nullptr until the
/// aggregate has seen a NULL input.
struct Slots {
  int64_t* i64 = nullptr;
  double* f64 = nullptr;
  int64_t* wraps = nullptr;
  int64_t* nulls = nullptr;
};

/// Most aggregates one update kernel folds in a single pass. Same-(kind,
/// type) aggregates share the group-id load and interleave their
/// per-group dependency chains (with few groups, back-to-back rows of
/// one group serialize a single-column loop on store-to-load latency).
inline constexpr int kMaxFused = 8;

/// Folds K input columns (`cols[k]`, typed by the resolved kernel) of n
/// live rows into K accumulator sets `acc[k]`. Row j is input row
/// sel ? sel[j] : j and goes to group gid[j] (gid == nullptr: keyless,
/// every row to group 0). The NULL variant (K == 1 only) skips rows with
/// nulls[i] != 0 and counts them into acc[0].nulls, which must exist.
using UpdateFn = void (*)(int n, const sel_t* sel, const uint32_t* gid,
                          const void* const* cols, const uint8_t* nulls,
                          const Slots* acc);

/// Resolves the kernel for `k` (1..kMaxFused) aggregates of (kind,
/// in_type). `nulls` selects the NULL-skipping variant (requires k == 1).
/// At kAvx2 the keyless dense integer SUM/MIN/MAX and COUNT cases run
/// AVX2 folds; every other case (and any level) runs the typed scalar
/// loop. All variants produce bit-identical accumulator state.
UpdateFn FindUpdate(AggKind kind, TypeId in_type, int k, bool nulls,
                    SimdLevel simd = SimdLevel::kScalar);

/// rows[gid[j]]++ for each of n live rows (gid == nullptr: rows[0] += n);
/// every gid[j] < num_groups.
void CountRows(int n, const uint32_t* gid, int64_t* rows,
               int64_t num_groups);

/// Group counts up to which CountRows keeps partial counts on the stack.
inline constexpr int kSmallGroups = 64;

/// Folds group `sg` of a source accumulator set into group `dg` of a
/// destination (the parallel-aggregation barrier and the spill reload):
/// sums add (an integer SUM carries its wrap-arounds exactly), MIN/MAX
/// keep the better value, NULL counts add. `dst.nulls` must exist when
/// `src.nulls` does.
void Combine(AggKind kind, const Layout& layout, const Slots& dst,
             uint32_t dg, const Slots& src, uint32_t sg);

/// The integer SUM result for one group: kOverflow when the exact sum
/// does not fit in int64.
Status CheckedSum(const Slots& acc, uint32_t g, int64_t* out);

}  // namespace agg
}  // namespace x100

#endif  // X100_PRIMITIVES_AGG_KERNELS_H_
