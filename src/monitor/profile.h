// Per-operator query profiling — paper §"System monitoring": production
// debugging needs per-operator visibility, not just a global event log.
//
// Every Operator accumulates OperatorProfile counters through the
// non-virtual Open/Next/Close wrappers (exec/operator.h) and flushes them
// into the query's QueryProfile on Close. The profile travels with the
// QueryResult and is retained by the monitor's QueryRegistry, so a
// finished (or failed) query can be broken down after the fact.
#ifndef X100_MONITOR_PROFILE_H_
#define X100_MONITOR_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace x100 {

/// Counters for one operator instance of an executed plan. In a parallel
/// plan each producer clone reports its own entry, and pipeline barriers
/// record synthetic entries for work that is not an operator: one
/// "JoinBuildMerge" / "AggMerge" entry PER radix-partition merge task
/// (rows = that partition's rows/groups), so both the merge fan-out's
/// parallelism and its partition skew are visible — ToString's max(us)
/// column is the slowest instance, i.e. the merge's critical path.
struct OperatorProfile {
  std::string op;        // operator display name, e.g. "JoinProbe[inner]"
  int64_t batches = 0;   // non-empty batches produced
  int64_t rows = 0;      // active rows produced (selection-aware)
  int64_t open_ns = 0;   // wall time inside Open (pipeline breakers build)
  int64_t next_ns = 0;   // wall time inside Next, *inclusive* of children
  /// Wall time spent inside direct children's Open/Next while this
  /// operator was on the call stack (same thread). Subtracting it from
  /// the inclusive times yields the operator's own cost.
  int64_t child_ns = 0;
  /// Out-of-core accounting: bytes this instance wrote to SpillFiles and
  /// how many spill events produced them. Recorded at the WRITE site by
  /// the synthetic "JoinBuildSpill" / "JoinBuildDefer" / "JoinProbeSpill"
  /// / "AggSpill" / "SortSpill" entries (rows = rows spilled), so a tight
  /// memory_limit shows exactly which breaker went out of core and how
  /// much of its state hit disk.
  int64_t spill_bytes = 0;
  int64_t spills = 0;
  /// High-water RESIDENT bytes this entry held charged against the query
  /// tracker. Set by the synthetic merge/pair entries ("JoinBuildMerge"
  /// for a resident partition, "JoinProbePair" for one Grace partition
  /// pair) — the pair entries are how tests bound peak tracker usage to
  /// limit + max pair + SpillForceAdmitSlack (common/config.h).
  int64_t mem_bytes = 0;

  /// Exclusive time: open+next minus the children's share. For operators
  /// whose children run on other pool threads (an exchange consumer), the
  /// exclusive time includes the time spent waiting on those threads.
  int64_t exclusive_ns() const {
    const int64_t self = open_ns + next_ns - child_ns;
    return self > 0 ? self : 0;
  }
};

/// Aggregated per-query profile. Plain data: copied into QueryResult and
/// QueryInfo snapshots.
struct QueryProfile {
  std::vector<OperatorProfile> operators;
  int64_t tuples_scanned = 0;
  int64_t groups_skipped = 0;  // MinMax pushdown IO elision
  int64_t wall_ns = 0;         // end-to-end execute time
  /// Resolved SIMD dispatch level the query ran at ("scalar" / "avx2" /
  /// "neon") — empty for profiles not produced by QueryExecutor.
  std::string simd;

  bool empty() const { return operators.empty(); }

  /// Merges duplicate operator names (parallel clones) for display.
  std::string ToString() const;
};

}  // namespace x100

#endif  // X100_MONITOR_PROFILE_H_
