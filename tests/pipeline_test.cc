// Pipeline-executor tests: parallel join build + probe, parallel sort,
// group-by-join pipelines, determinism across worker counts on skewed
// build sides, cancellation mid-pipeline, empty-input pipelines, and
// per-query admission control (TaskQuota).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/config.h"
#include "common/task_scheduler.h"
#include "engine/physical_plan.h"
#include "engine/session.h"
#include "exec/sort.h"
#include "tpch/tpch.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// TaskQuota (admission control)
// ---------------------------------------------------------------------------

TEST(TaskQuotaTest, GrantsAreBoundedAndNeverZero) {
  TaskQuota q(4);
  EXPECT_EQ(q.Acquire(3), 3);  // room
  EXPECT_EQ(q.Acquire(8), 1);  // only 1 slot left
  // Full: the escape valve still grants 1 so a query always progresses.
  EXPECT_EQ(q.Acquire(5), 1);
  q.Release(5);
  EXPECT_EQ(q.Acquire(8), 4);
  q.Release(4);
  EXPECT_EQ(q.in_use(), 0);
}

TEST(TaskQuotaTest, UnlimitedGrantsWhatIsAsked) {
  TaskQuota q(0);
  EXPECT_EQ(q.Acquire(64), 64);
  EXPECT_EQ(q.in_use(), 0);
  q.Release(64);  // no-op, must not underflow
  EXPECT_EQ(q.Acquire(1), 1);
}

// ---------------------------------------------------------------------------
// Fixture: a dimension table and a fact table with a skewed key column.
// Half the fact rows share ONE join key, so morsels are heavily skewed
// toward a single build-side group — the adversarial case for static
// partitioning that dynamic morsel handout must absorb.
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    {
      auto b = db_->CreateTable(
          "dim",
          Schema({Field("k", TypeId::kI64), Field("label", TypeId::kStr)}),
          Layout::kDsm, 32);
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(
            b->AppendRow({Value::I64(i),
                          Value::Str("lab" + std::to_string(i % 7))})
                .ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      auto b = db_->CreateTable(
          "fact",
          Schema({Field("fk", TypeId::kI64), Field("val", TypeId::kI64)}),
          Layout::kDsm, 256);
      for (int i = 0; i < 5000; i++) {
        // Skew: rows 0..2499 all hit build key 7.
        const int64_t key = i < 2500 ? 7 : i % 100;
        ASSERT_TRUE(b->AppendRow({Value::I64(key), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      // Every row carries ONE key value: with radix partitioning enabled
      // the whole build side lands in a single partition — the worst
      // case for the merge fan-out (all other merge tasks get nothing).
      auto b = db_->CreateTable(
          "mono",
          Schema({Field("k", TypeId::kI64), Field("tag", TypeId::kI64)}),
          Layout::kDsm, 64);
      for (int i = 0; i < 500; i++) {
        ASSERT_TRUE(b->AppendRow({Value::I64(42), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    session_ = std::make_unique<Session>(db_.get());
  }

  void SetWorkers(int workers) {
    db_->config().max_parallelism = workers;
    db_->config().scheduler_workers = workers;
  }

  void SetRadixBits(int bits) { db_->config().radix_bits = bits; }

  /// Join fact against dim, keep (val, label), order by unique val — the
  /// unique sort key makes the result fully deterministic.
  AlgebraPtr JoinPlan() {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    return OrderNode(std::move(join), {{"val", true}});
  }

  /// Group-by-join: join, aggregate per label, order by label.
  AlgebraPtr GroupByJoinPlan() {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    AlgebraPtr aggr = AggrNode(std::move(join), {{"label", Col("label")}},
                               {{AggKind::kSum, Col("val"), "s"},
                                {AggKind::kCount, nullptr, "c"},
                                {AggKind::kMin, Col("val"), "lo"},
                                {AggKind::kMax, Col("val"), "hi"}});
    return OrderNode(std::move(aggr), {{"label", true}});
  }

  static void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                             const std::string& what) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (size_t i = 0; i < a.rows.size(); i++) {
      for (size_t c = 0; c < a.rows[i].size(); c++) {
        EXPECT_TRUE(a.rows[i][c].SqlEquals(b.rows[i][c]))
            << what << " row " << i << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------------------
// Parallel join probe
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ParallelJoinProbeDeterministicAcrossWorkerCounts) {
  SetWorkers(1);
  auto reference = session_->Execute(JoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 5000u);  // every fact row matches
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(JoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "join probe workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, JoinPhasesRunAsSchedulerTasks) {
  // Explicit radix_bits: dim (100 rows) is under the tiny-build cutoff,
  // so AUTO sizing would collapse to one merge task — the explicit
  // setting keeps the fan-out observable.
  SetWorkers(4);
  SetRadixBits(3);
  auto res = session_->Execute(JoinPlan());
  SetWorkers(0);
  SetRadixBits(-1);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  int probe_clones = 0, scans = 0, merge_tasks = 0;
  bool saw_parallel_sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
    if (p.op == "Scan") scans++;
    if (p.op == "JoinBuildMerge") merge_tasks++;
    saw_parallel_sort |= p.op.rfind("Sort(", 0) == 0;
  }
  // The build's barrier merge fans out one task per radix partition.
  EXPECT_EQ(merge_tasks, 1 << 3);
  EXPECT_EQ(probe_clones, 4);      // probe cloned per sort worker chain
  EXPECT_EQ(scans, 8);             // 4 build-side + 4 probe-side clones
  EXPECT_TRUE(saw_parallel_sort);  // the pipeline's sink
}

TEST_F(PipelineTest, TinyBuildCollapsesAutoPartitioning) {
  // ROADMAP-noted waste: a tiny build used to pay ~2^radix_bits empty
  // per-worker partition buffers. Under AUTO sizing the planner now
  // bounds the build by its scan spine (dim: 100 rows < kTinyBuildRows)
  // and keeps the single-table path — exactly one JoinBuildMerge task.
  SetWorkers(4);
  SetRadixBits(-1);
  auto auto_sized = session_->Execute(JoinPlan());
  ASSERT_TRUE(auto_sized.ok()) << auto_sized.status().ToString();
  int auto_merges = 0;
  for (const OperatorProfile& p : auto_sized->profile.operators) {
    if (p.op == "JoinBuildMerge") auto_merges++;
  }
  EXPECT_EQ(auto_merges, 1);
  SetWorkers(0);
}

TEST_F(PipelineTest, GroupByJoinDeterministicAcrossWorkerCounts) {
  SetWorkers(1);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 7u);  // labels lab0..lab6
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(GroupByJoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "group-by-join workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, GroupByJoinAllPhasesProfiled) {
  // The acceptance shape: build, probe, aggregation and sort all visible
  // as pipeline phases in the query profile.
  SetWorkers(4);
  auto res = session_->Execute(GroupByJoinPlan());
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  bool build = false, probe = false, agg = false, agg_merge = false,
       sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    build |= p.op == "JoinBuildMerge";
    probe |= p.op == "JoinProbe[inner]";
    agg |= p.op == "HashAgg(4)";
    agg_merge |= p.op == "AggMerge";
    sort |= p.op.rfind("Sort(", 0) == 0;
  }
  EXPECT_TRUE(build);
  EXPECT_TRUE(probe);
  EXPECT_TRUE(agg);
  EXPECT_TRUE(agg_merge);
  EXPECT_TRUE(sort);
}

TEST_F(PipelineTest, LeftOuterAndSemiJoinParallelMatchSerial) {
  for (JoinType type : {JoinType::kLeftOuter, JoinType::kSemi,
                        JoinType::kAnti}) {
    // Probe dim against fact keys so some probe rows have no match
    // (fact keys cover 0..99 but dim probes against skewed fk values).
    auto make_plan = [&] {
      AlgebraPtr join =
          JoinNode(ScanNode("fact", {"fk"}), ScanNode("dim"), type, {"fk"},
                   {"k"});
      return OrderNode(std::move(join), {{"k", true}});
    };
    SetWorkers(1);
    auto serial = session_->Execute(make_plan());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    SetWorkers(8);
    auto parallel = session_->Execute(make_plan());
    SetWorkers(0);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameRows(*serial, *parallel,
                   std::string("join type ") + JoinTypeName(type));
  }
}

// ---------------------------------------------------------------------------
// Radix-partitioned merge (join build + aggregation)
// ---------------------------------------------------------------------------

TEST(EffectiveRadixBitsTest, SizesFromPipelineWidth) {
  // Serial plans never partition; auto targets ~2x the worker count.
  EXPECT_EQ(EffectiveRadixBits(-1, 1), 0);
  EXPECT_EQ(EffectiveRadixBits(-1, 2), 2);   // 4 partitions
  EXPECT_EQ(EffectiveRadixBits(-1, 8), 4);   // 16 partitions
  EXPECT_EQ(EffectiveRadixBits(-1, 1024), kMaxRadixBits);  // capped
  // Explicit settings pass through (capped), 0 disables.
  EXPECT_EQ(EffectiveRadixBits(0, 8), 0);
  EXPECT_EQ(EffectiveRadixBits(4, 2), 4);
  EXPECT_EQ(EffectiveRadixBits(100, 8), kMaxRadixBits);
}

TEST(EffectiveRadixBitsTest, TinyBuildsSkipPartitioning) {
  // Builds bounded under kTinyBuildRows keep the single-table path (the
  // per-worker 2^bits empty partition buffers outweigh the merge they
  // parallelize); unknown cardinality (-1) keeps partitioning.
  EXPECT_EQ(RadixBitsForBuild(4, 0), 0);
  EXPECT_EQ(RadixBitsForBuild(4, kTinyBuildRows - 1), 0);
  EXPECT_EQ(RadixBitsForBuild(4, kTinyBuildRows), 4);
  EXPECT_EQ(RadixBitsForBuild(4, -1), 4);
  EXPECT_EQ(RadixBitsForBuild(0, kTinyBuildRows * 2), 0);
}

TEST_F(PipelineTest, RadixSweepDeterministicAcrossWorkersAndBits) {
  // The acceptance sweep: radix_bits in {0, 2, 4} x workers in {1, 2, 8}
  // must all produce the single-table serial reference, groups included.
  SetWorkers(1);
  SetRadixBits(0);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 7u);
  for (int bits : {0, 2, 4}) {
    for (int workers : {1, 2, 8}) {
      SetWorkers(workers);
      SetRadixBits(bits);
      auto res = session_->Execute(GroupByJoinPlan());
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ExpectSameRows(*reference, *res,
                     "radix_bits=" + std::to_string(bits) +
                         " workers=" + std::to_string(workers));
    }
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, SkewedKeysCollapseIntoOnePartition) {
  // Build side `mono` has a single distinct key: every row hashes into
  // ONE radix partition, so one merge task carries the entire table and
  // the other 2^bits - 1 merge empty partitions. Results must not care.
  auto plan = [] {
    AlgebraPtr join =
        JoinNode(ScanNode("mono"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    AlgebraPtr aggr =
        AggrNode(std::move(join), {{"fk", Col("fk")}},
                 {{AggKind::kCount, nullptr, "n"},
                  {AggKind::kSum, Col("tag"), "s"}});
    return OrderNode(std::move(aggr), {{"fk", true}});
  };
  SetWorkers(1);
  SetRadixBits(0);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // fact rows with fk == 42: i in [2500, 5000) with i % 100 == 42.
  ASSERT_EQ(reference->rows.size(), 1u);
  EXPECT_EQ(reference->rows[0][1].AsI64(), 25 * 500);
  SetRadixBits(4);
  for (int workers : {1, 2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "skewed workers=" + std::to_string(workers));
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, PartitionCountVsWorkerCountMismatch) {
  // More partitions than workers (16 vs 2) and fewer partitions than
  // workers (2 vs 8): the merge fan-out must cover every partition
  // regardless of how many tasks the quota/scheduler actually grants.
  SetWorkers(1);
  SetRadixBits(0);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  struct Case { int workers, bits; };
  for (const Case c : {Case{2, 4}, Case{8, 1}, Case{1, 4}}) {
    SetWorkers(c.workers);
    SetRadixBits(c.bits);
    auto res = session_->Execute(GroupByJoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "workers=" + std::to_string(c.workers) +
                       " bits=" + std::to_string(c.bits));
  }
  // Keyless aggregation ignores radix_bits (one global group).
  SetWorkers(8);
  SetRadixBits(4);
  auto keyless = session_->Execute(AggrNode(
      ScanNode("fact"), {}, {{AggKind::kSum, Col("val"), "s"}}));
  ASSERT_TRUE(keyless.ok()) << keyless.status().ToString();
  ASSERT_EQ(keyless->rows.size(), 1u);
  EXPECT_EQ(keyless->rows[0][0].AsI64(), 4999LL * 5000 / 2);
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, RootJoinProbeRunsParallel) {
  // A join at the plan ROOT (no Aggr/Order sink): the probe clones are
  // unioned by an exchange sink, so probe work is executed by more than
  // one worker — previously the root probe was serial.
  AlgebraPtr root_join = [this] {
    return JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                    {"k"}, {"fk"});
  }();
  SetWorkers(1);
  auto serial = session_->Execute(
      JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner, {"k"},
               {"fk"}));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->rows.size(), 5000u);
  SetWorkers(4);
  auto parallel = session_->Execute(std::move(root_join));
  SetWorkers(0);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  // Union order is nondeterministic; compare as sets keyed by the unique
  // probe column `val` (output column 1: probe fk,val then build k,label).
  auto sort_rows = [](QueryResult* r) {
    std::sort(r->rows.begin(), r->rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return a[1].AsI64() < b[1].AsI64();
              });
  };
  sort_rows(&*serial);
  sort_rows(&*parallel);
  ExpectSameRows(*serial, *parallel, "root join");
  int probe_clones = 0;
  bool saw_union = false;
  for (const OperatorProfile& p : parallel->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
    saw_union |= p.op.rfind("XchgUnion", 0) == 0;
  }
  EXPECT_EQ(probe_clones, 4);  // probe cloned per pipeline worker
  EXPECT_TRUE(saw_union);      // the root union sink
}

TEST_F(PipelineTest, RootProjectOverJoinProbeRunsParallel) {
  // Select/Project links over a root join parallelize the same way —
  // the union dispatch walks the streaming spine, not just a bare join.
  auto plan = [] {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    std::vector<ProjectItem> items;
    items.push_back({"val", Col("val")});
    items.push_back({"label", Col("label")});
    return ProjectNode(std::move(join), std::move(items));
  };
  SetWorkers(1);
  auto serial = session_->Execute(plan());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->rows.size(), 5000u);
  SetWorkers(4);
  auto parallel = session_->Execute(plan());
  SetWorkers(0);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  auto sort_rows = [](QueryResult* r) {
    std::sort(r->rows.begin(), r->rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return a[0].AsI64() < b[0].AsI64();  // val is unique
              });
  };
  sort_rows(&*serial);
  sort_rows(&*parallel);
  ExpectSameRows(*serial, *parallel, "root project-over-join");
  int probe_clones = 0;
  bool saw_union = false;
  for (const OperatorProfile& p : parallel->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
    saw_union |= p.op.rfind("XchgUnion", 0) == 0;
  }
  EXPECT_EQ(probe_clones, 4);
  EXPECT_TRUE(saw_union);
}

// ---------------------------------------------------------------------------
// Parallel sort
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ParallelSortDeterministicAcrossWorkerCounts) {
  auto plan = [] {
    return OrderNode(ScanNode("fact"), {{"val", false}});  // descending
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 5000u);
  EXPECT_EQ(reference->rows[0][1].AsI64(), 4999);
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "sort workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, ParallelTopNDeterministicAcrossWorkerCounts) {
  auto plan = [] {
    return OrderNode(ScanNode("fact"), {{"val", true}}, /*limit=*/17);
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->rows.size(), 17u);
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "topn workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, ParallelSortOverAggregationUsesRangeSplit) {
  // ORDER BY over an aggregation: the input is not clonable, so the sort
  // drains it with one task and range-splits the sorting itself.
  auto plan = [] {
    AlgebraPtr aggr = AggrNode(ScanNode("fact"), {{"fk", Col("fk")}},
                               {{AggKind::kSum, Col("val"), "s"}});
    return OrderNode(std::move(aggr), {{"s", false}});
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  SetWorkers(8);
  auto res = session_->Execute(plan());
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectSameRows(*reference, *res, "sort-over-agg");
  bool saw_parallel_sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    saw_parallel_sort |= p.op.rfind("Sort(", 0) == 0;
  }
  EXPECT_TRUE(saw_parallel_sort);
}

// ---------------------------------------------------------------------------
// Cancellation mid-pipeline
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, CancellationMidPipelineJoinsAllTasks) {
  // A self-join on a heavily duplicated key explodes quadratically
  // (2500^2 pairs through the skewed key alone), so the pipeline cannot
  // finish before the cancel lands. All worker tasks must observe the
  // token and the query must unwind without deadlock.
  SetWorkers(4);
  CancellationToken token;
  AlgebraPtr join =
      JoinNode(ScanNode("fact"), ScanNode("fact"), JoinType::kInner,
               {"fk"}, {"fk"});
  AlgebraPtr plan = AggrNode(std::move(join), {},
                             {{AggKind::kCount, nullptr, "n"}});
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto res = session_->Execute(std::move(plan), &token);
  canceller.join();
  SetWorkers(0);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
}

TEST_F(PipelineTest, PreCancelledPipelineAbortsPromptly) {
  SetWorkers(8);
  CancellationToken token;
  token.Cancel();
  auto res = session_->Execute(GroupByJoinPlan(), &token);
  SetWorkers(0);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled());
}

// ---------------------------------------------------------------------------
// Empty-input pipelines
// ---------------------------------------------------------------------------

class EmptyPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    auto empty = db_->CreateTable(
        "nothing",
        Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
        Layout::kDsm, 64);
    auto t = empty->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());

    auto some = db_->CreateTable(
        "some",
        Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
        Layout::kDsm, 64);
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(
          some->AppendRow({Value::I64(i % 10), Value::I64(i)}).ok());
    }
    auto t2 = some->Finish();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t2).value()).ok());

    db_->config().max_parallelism = 4;
    db_->config().scheduler_workers = 4;
    session_ = std::make_unique<Session>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(EmptyPipelineTest, EmptyProbeSide) {
  AlgebraPtr join = JoinNode(ScanNode("some"), ScanNode("nothing"),
                             JoinType::kInner, {"k"}, {"k"});
  auto res = session_->Execute(OrderNode(std::move(join), {{"v", true}}));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 0u);
}

TEST_F(EmptyPipelineTest, EmptyBuildSideInnerAndOuter) {
  AlgebraPtr inner = JoinNode(ScanNode("nothing"), ScanNode("some"),
                              JoinType::kInner, {"k"}, {"k"});
  auto r1 = session_->Execute(OrderNode(std::move(inner), {{"v", true}}));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows.size(), 0u);

  AlgebraPtr outer = JoinNode(ScanNode("nothing"), ScanNode("some"),
                              JoinType::kLeftOuter, {"k"}, {"k"});
  auto r2 = session_->Execute(OrderNode(std::move(outer), {{"v", true}}));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->rows.size(), 200u);  // every probe row null-padded
  EXPECT_TRUE(r2->rows[0][2].is_null());
  EXPECT_TRUE(r2->rows[0][3].is_null());
}

TEST_F(EmptyPipelineTest, EmptyAggregationAndSort) {
  // Keyless aggregate over nothing: one row, COUNT 0, SUM NULL.
  auto agg = session_->Execute(AggrNode(
      ScanNode("nothing"), {},
      {{AggKind::kCount, nullptr, "n"}, {AggKind::kSum, Col("v"), "s"}}));
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][0].AsI64(), 0);
  EXPECT_TRUE(agg->rows[0][1].is_null());

  // Keyed aggregate over nothing: zero groups.
  auto keyed = session_->Execute(AggrNode(
      ScanNode("nothing"), {{"k", Col("k")}},
      {{AggKind::kCount, nullptr, "n"}}));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->rows.size(), 0u);

  // Parallel sort over nothing.
  auto sorted =
      session_->Execute(OrderNode(ScanNode("nothing"), {{"v", true}}));
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control end-to-end + exclusive profile time
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, QuotaConstrainedQueryStillCorrect) {
  // A quota of 1 degrades the pipelines to sequential task execution but
  // must not change results (tasks cover all worker chains in turn).
  SetWorkers(1);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok());
  SetWorkers(8);
  db_->config().query_task_quota = 1;
  auto res = session_->Execute(GroupByJoinPlan());
  db_->config().query_task_quota = 0;
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectSameRows(*reference, *res, "quota=1");
}

TEST_F(PipelineTest, ExclusiveTimeSubtractsChildTime) {
  // Serial plan: Sort pulls Scan inside its own Next, so the sort's
  // child_ns must be populated and exclusive <= inclusive.
  SetWorkers(0);
  auto res = session_->Execute(
      OrderNode(ScanNode("fact"), {{"val", true}}));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  bool checked_sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    EXPECT_GE(p.exclusive_ns(), 0);
    EXPECT_LE(p.exclusive_ns(), p.open_ns + p.next_ns);
    if (p.op == "Sort(1)") {
      checked_sort = true;
      EXPECT_GT(p.child_ns, 0);  // the scan ran inside the sort's Next
    }
  }
  EXPECT_TRUE(checked_sort);
  EXPECT_NE(res->profile.ToString().find("self(us)"), std::string::npos);
}

// The planner helpers drive the decomposition; pin their contract.
TEST(ClonablePipelineTest, RecognizesStreamingChains) {
  AlgebraPtr scan = ScanNode("t");
  EXPECT_TRUE(IsClonablePipeline(scan));
  EXPECT_TRUE(IsClonablePipeline(
      SelectNode(ScanNode("t"), Gt(Col("x"), Lit(Value::I64(0))))));
  // A join is clonable along its probe side.
  EXPECT_TRUE(IsClonablePipeline(JoinNode(
      AggrNode(ScanNode("b"), {}, {{AggKind::kCount, nullptr, "n"}}),
      ScanNode("p"), JoinType::kInner, {"n"}, {"x"})));
  // Breakers are not.
  EXPECT_FALSE(IsClonablePipeline(
      AggrNode(ScanNode("t"), {}, {{AggKind::kCount, nullptr, "n"}})));
  EXPECT_FALSE(IsClonablePipeline(
      OrderNode(ScanNode("t"), {{"x", true}})));
  // Rewriter-parallelized scans keep the legacy exchange path.
  AlgebraPtr morsel_scan = ScanNode("t");
  morsel_scan->morsel_group = 0;
  EXPECT_FALSE(IsClonablePipeline(morsel_scan));
}

}  // namespace
}  // namespace x100
