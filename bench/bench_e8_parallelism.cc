// E8 — §"Multi-core": pipeline-level morsel parallelism. The physical
// planner decomposes every plan into pipelines (join build, probe+agg,
// sort) whose worker chains run as tasks on the shared work-stealing
// TaskScheduler, pulling block groups dynamically from one MorselSource
// per logical scan. Two sweeps at increasing worker counts:
//   Q1   — scan -> filter -> 8-aggregate group-by (HashAgg).
//   QJ   — group-by-join + sort: orders ⋈ lineitem, aggregate per
//          o_orderpriority, ORDER BY (JoinBuild / JoinProbe /
//          HashAgg / Sort phases).
// The QJ run doubles as the CI determinism smoke: results at every
// worker count must SqlEqual the 1-worker reference, and the process
// exits non-zero on mismatch. A second sweep re-runs QJ for radix_bits
// in {0, 2, 4} x workers in {1, 2, 8} — 0 bits is the legacy
// single-table merge, so any cross-configuration mismatch means the
// radix-partitioned merge changed results. A root-level join (no
// Aggr/Order sink) must additionally show probe work spread over >1
// worker (exchange-unioned probe clones). Speedup is bounded by the
// host core count (reported).
#include <cmath>
#include <thread>

#include "bench_util.h"
#include "engine/session.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

AlgebraPtr GroupByJoinPlan() {
  // orders ⋈ lineitem on orderkey, revenue per order priority, sorted.
  AlgebraPtr join = JoinNode(
      ScanNode("orders", {"o_orderkey", "o_orderpriority"}),
      ScanNode("lineitem", {"l_orderkey", "l_extendedprice"}),
      JoinType::kInner, {"o_orderkey"}, {"l_orderkey"});
  AlgebraPtr aggr =
      AggrNode(std::move(join), {{"prio", Col("o_orderpriority")}},
               {{AggKind::kSum, Col("l_extendedprice"), "revenue"},
                {AggKind::kCount, nullptr, "items"}});
  return OrderNode(std::move(aggr), {{"prio", true}});
}

bool SameRows(const QueryResult& a, const QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); i++) {
    for (size_t c = 0; c < a.rows[i].size(); c++) {
      const Value& x = a.rows[i][c];
      const Value& y = b.rows[i][c];
      if (x.type() == TypeId::kF64 || y.type() == TypeId::kF64) {
        // FP sums depend on morsel merge order; accept relative eps.
        const double dx = x.AsF64(), dy = y.AsF64();
        if (std::abs(dx - dy) > 1e-9 * (1 + std::abs(dx))) return false;
      } else if (!x.SqlEquals(y)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::Header("E8", "pipeline-level morsel parallelism");
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u\n\n", cores);
  EngineConfig cfg;
  cfg.buffer_pool_bytes = 1024 * kDiskBlockBytes;
  Database db(cfg);
  if (!tpch::Generate(&db, 0.02).ok()) return 1;
  Session session(&db);
  (void)session.Execute(tpch::Q1Plan());  // warm

  bool deterministic = true;
  QueryResult reference;

  std::printf("%-9s %12s %10s %12s %10s   %s\n", "workers", "Q1(ms)",
              "speedup", "join+agg(ms)", "speedup", "determinism");
  double q1_base = 0, qj_base = 0;
  for (int w : {1, 2, 4, 8}) {
    db.config().max_parallelism = w;
    db.config().scheduler_workers = w;  // pin the pool to the sweep size
    const double t_q1 = bench::MinTime(3, [&] {
      auto r = session.Execute(tpch::Q1Plan());
      if (!r.ok()) std::abort();
    });
    const double t_qj = bench::MinTime(3, [&] {
      auto r = session.Execute(GroupByJoinPlan());
      if (!r.ok()) std::abort();
    });
    auto qj = session.Execute(GroupByJoinPlan());
    if (!qj.ok()) return 1;
    bool same = true;
    if (w == 1) {
      q1_base = t_q1;
      qj_base = t_qj;
      reference = std::move(qj).value();
    } else {
      same = SameRows(reference, *qj);
      deterministic &= same;
    }
    std::printf("%-9d %12.2f %9.2fx %12.2f %9.2fx   %s\n", w, t_q1 * 1e3,
                q1_base / t_q1, t_qj * 1e3, qj_base / t_qj,
                same ? "ok" : "MISMATCH");
  }

  // Radix sweep — the CI gate for the partitioned merge: every
  // (radix_bits, workers) configuration must reproduce the single-table
  // serial reference exactly. 0 bits is the legacy one-merge-task path.
  bool radix_ok = true;
  std::printf("\nradix_bits sweep (join+agg, vs radix=0 workers=1):\n");
  std::printf("%-12s %8s %8s %8s\n", "radix_bits", "w=1", "w=2", "w=8");
  for (int bits : {0, 2, 4}) {
    std::printf("%-12d", bits);
    for (int w : {1, 2, 8}) {
      db.config().max_parallelism = w;
      db.config().scheduler_workers = w;
      db.config().radix_bits = bits;
      auto r = session.Execute(GroupByJoinPlan());
      const bool same = r.ok() && SameRows(reference, *r);
      radix_ok &= same;
      std::printf(" %8s", !r.ok() ? "ERROR" : same ? "ok" : "MISMATCH");
    }
    std::printf("\n");
  }
  db.config().radix_bits = -1;  // back to auto
  db.config().max_parallelism = 8;
  db.config().scheduler_workers = 8;

  // Per-operator profile of the widest run — every pipeline phase (build,
  // per-partition merge, probe, aggregation, sort) must appear as
  // scheduler-task work, the §"System monitoring" answer to "attach a
  // debugger to see what the server is doing".
  auto profiled = session.Execute(GroupByJoinPlan());
  bool phases_ok = false;
  if (profiled.ok()) {
    std::printf("\njoin+agg+sort per-operator profile (workers=8):\n%s",
                profiled->profile.ToString().c_str());
    bool build = false, probe = false, agg = false, merge = false,
         sort = false;
    for (const OperatorProfile& p : profiled->profile.operators) {
      build |= p.op.rfind("JoinBuildMerge", 0) == 0;
      probe |= p.op.rfind("JoinProbe", 0) == 0;
      agg |= p.op == "HashAgg(8)";
      merge |= p.op.rfind("AggMerge", 0) == 0;
      sort |= p.op.rfind("Sort(", 0) == 0;
    }
    phases_ok = build && probe && agg && merge && sort;
    std::printf("\npipeline phases as scheduler tasks: build=%d probe=%d "
                "agg=%d agg-merge=%d sort=%d\n", build, probe, agg, merge,
                sort);
  }

  // Root-level join (no Aggr/Order sink): the probe must not be serial —
  // the planner unions probe clones through an exchange sink.
  bool root_probe_ok = false;
  {
    auto root = session.Execute(JoinNode(
        ScanNode("orders", {"o_orderkey", "o_orderpriority"}),
        ScanNode("lineitem", {"l_orderkey", "l_extendedprice"}),
        JoinType::kInner, {"o_orderkey"}, {"l_orderkey"}));
    if (root.ok()) {
      int probe_clones = 0;
      bool saw_union = false;
      for (const OperatorProfile& p : root->profile.operators) {
        if (p.op.rfind("JoinProbe", 0) == 0) probe_clones++;
        saw_union |= p.op.rfind("XchgUnion", 0) == 0;
      }
      root_probe_ok = probe_clones > 1 && saw_union;
      std::printf("\nroot-level join probe: %d probe clones, union sink=%d "
                  "-> %s\n", probe_clones, saw_union,
                  root_probe_ok ? "parallel" : "SERIAL");
    }
  }

  std::printf("determinism across worker counts: %s\n",
              deterministic ? "ok" : "MISMATCH");
  std::printf("determinism across radix_bits:    %s\n",
              radix_ok ? "ok" : "MISMATCH");
  std::printf("\nNote: on a %u-thread host the speedup ceiling is %u; "
              "worker chains share one morsel source per scan, so adding "
              "workers never repartitions the table.\n", cores, cores);
  return deterministic && radix_ok && phases_ok && root_probe_ok ? 0 : 1;
}
