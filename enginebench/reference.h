// Answers the benchmark computes for itself, apart from the engine's
// operators: plain loops over the base rows of the TPC-H tables, and a
// row-by-row comparison of an engine result against them.
#ifndef ENGINEBENCH_REFERENCE_H_
#define ENGINEBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/operator.h"

namespace enginebench {

using Rows = std::vector<std::vector<x100::Value>>;

/// TPC-H query parameters: the standard validation values. They are fixed
/// so that a run's seed changes no analytic query's work.
constexpr int kQ1DeltaDays = 90;
constexpr const char* kQ3Segment = "BUILDING";
constexpr int kQ6Year = 1994;

/// Expected rows of every analytic statement, in the engine's output order.
struct Reference {
  Rows q1, q3, q6, joinagg, count;
};

/// Q1, Q3 (top 10), Q6, the orders-lineitem join grouped by priority and
/// COUNT(*) of lineitem, computed by loops over the base rows. The rows are
/// streamed through a plain scan — the full-table read
/// tpch::MaterializeRows makes — without holding lineitem in memory.
x100::Result<Reference> ComputeReference(x100::Database* db);

/// True when `got` has exactly `want`'s rows: integers, dates and strings
/// equal, doubles within a relative 1e-9. `sort_before_compare` sorts both
/// sides by every column first, for output whose row order is free.
bool SameRows(const x100::QueryResult& got, const Rows& want,
              bool sort_before_compare, std::string* why);

/// Column of Q3's revenue, its first ORDER BY key.
constexpr int kQ3RevenueColumn = 3;

/// SameRows in result order, except that adjacent rows whose `tie_col`
/// values are equal within the double tolerance may come in any order among
/// themselves: an ORDER BY on a computed double cannot order rows whose
/// values differ only by summation order.
bool SameRowsUpToTies(const x100::QueryResult& got, const Rows& want,
                      int tie_col, std::string* why);

}  // namespace enginebench

#endif  // ENGINEBENCH_REFERENCE_H_
