// Execution engine tests: expression programs, scans (with PDT merge and
// MinMax skipping), filters, projections, all join flavors (including the
// NULL-semantics anti joins of §"NULL intricacies"), aggregation, sort,
// exchange parallelism and cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "exec/exchange.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "exec/select_project.h"
#include "exec/sort.h"
#include "exec/values.h"
#include "test_plans.h"
#include "common/task_scheduler.h"
#include "pdt/transaction.h"
#include "storage/morsel.h"
#include "storage/simulated_disk.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// Expression programs
// ---------------------------------------------------------------------------

class ExprTest : public ::testing::Test {
 protected:
  Schema schema_{{Field("a", TypeId::kI64), Field("b", TypeId::kI64),
                  Field("f", TypeId::kF64), Field("s", TypeId::kStr),
                  Field("n", TypeId::kI64, /*nullable=*/true)}};

  std::unique_ptr<Batch> MakeBatch(int n) {
    auto b = std::make_unique<Batch>(schema_, 64);
    for (int i = 0; i < n; i++) {
      b->column(0)->Data<int64_t>()[i] = i;
      b->column(1)->Data<int64_t>()[i] = i * 10;
      b->column(2)->Data<double>()[i] = i * 0.5;
      b->column(3)->Data<StrRef>()[i] =
          b->column(3)->heap()->Add("row" + std::to_string(i));
      if (i % 3 == 0) {
        b->column(4)->SetNull(i);
      } else {
        b->column(4)->Data<int64_t>()[i] = i;
      }
    }
    b->set_rows(n);
    return b;
  }

  Result<const Vector*> Run(ExprPtr e, Batch& batch) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(e, schema_));
    std::unique_ptr<ExprProgram> prog;
    X100_ASSIGN_OR_RETURN(prog, ExprProgram::Compile(bound, 64));
    program_keepalive_.push_back(std::move(prog));
    return program_keepalive_.back()->Eval(batch);
  }

  std::vector<std::unique_ptr<ExprProgram>> program_keepalive_;
};

TEST_F(ExprTest, ArithmeticChain) {
  auto b = MakeBatch(10);
  // (a + b) * 2
  auto r = Run(Mul(Add(Col("a"), Col("b")), Lit(Value::I64(2))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<int64_t>()[4], (4 + 40) * 2);
  EXPECT_EQ((*r)->Data<int64_t>()[9], (9 + 90) * 2);
}

TEST_F(ExprTest, MixedTypePromotion) {
  auto b = MakeBatch(4);
  // a (i64) + f (f64) -> f64
  auto r = Run(Add(Col("a"), Col("f")), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kF64);
  EXPECT_DOUBLE_EQ((*r)->Data<double>()[3], 3 + 1.5);
}

TEST_F(ExprTest, ComparisonYieldsBool) {
  auto b = MakeBatch(6);
  auto r = Run(Ge(Col("a"), Lit(Value::I64(3))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kBool);
  EXPECT_EQ((*r)->Data<uint8_t>()[2], 0);
  EXPECT_EQ((*r)->Data<uint8_t>()[3], 1);
}

TEST_F(ExprTest, NullPropagationTwoColumn) {
  auto b = MakeBatch(6);
  // n + 1: NULL rows stay NULL via the indicator column; values computed
  // NULL-obliviously over safe values.
  auto r = Run(Add(Col("n"), Lit(Value::I64(1))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->has_nulls());
  EXPECT_TRUE((*r)->IsNull(0));
  EXPECT_TRUE((*r)->IsNull(3));
  EXPECT_FALSE((*r)->IsNull(1));
  EXPECT_EQ((*r)->Data<int64_t>()[1], 2);
}

TEST_F(ExprTest, IsNullMaterializesIndicator) {
  auto b = MakeBatch(6);
  auto r = Run(Call("isnull", {Col("n")}), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<uint8_t>()[0], 1);
  EXPECT_EQ((*r)->Data<uint8_t>()[1], 0);
  auto r2 = Run(Call("isnotnull", {Col("n")}), *b);
  EXPECT_EQ((*r2)->Data<uint8_t>()[0], 0);
  EXPECT_EQ((*r2)->Data<uint8_t>()[1], 1);
}

TEST_F(ExprTest, DivisionByZeroSurfacesError) {
  auto b = MakeBatch(4);
  auto r = Run(Div(Col("b"), Col("a")), *b);  // a[0] == 0
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDivisionByZero());
}

TEST_F(ExprTest, OverflowSurfacesError) {
  auto b = MakeBatch(4);
  auto r = Run(Mul(Add(Col("a"), Lit(Value::I64(1ll << 62))),
                   Lit(Value::I64(4))),
               *b);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverflow());
}

TEST_F(ExprTest, StringFunctions) {
  auto b = MakeBatch(3);
  auto r = Run(Call("upper", {Col("s")}), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<StrRef>()[1].ToString(), "ROW1");
  auto r2 = Run(Call("concat", {Col("s"), Lit(Value::Str("!"))}), *b);
  EXPECT_EQ((*r2)->Data<StrRef>()[2].ToString(), "row2!");
}

TEST_F(ExprTest, SelectionVectorSparseEvaluation) {
  auto b = MakeBatch(8);
  sel_t* sel = b->MutableSel();
  sel[0] = 2;
  sel[1] = 5;
  b->SetSelCount(2);
  auto r = Run(Add(Col("a"), Col("b")), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<int64_t>()[2], 22);
  EXPECT_EQ((*r)->Data<int64_t>()[5], 55);
}

TEST_F(ExprTest, UnknownColumnFailsBinding) {
  auto b = MakeBatch(1);
  auto r = Run(Col("zzz"), *b);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Operators over in-memory values
// ---------------------------------------------------------------------------

Schema KV() {
  return Schema({Field("k", TypeId::kI64), Field("v", TypeId::kStr)});
}

std::vector<std::vector<Value>> KvRows(
    std::initializer_list<std::pair<int64_t, const char*>> rows) {
  std::vector<std::vector<Value>> out;
  for (const auto& [k, v] : rows) {
    out.push_back({Value::I64(k), Value::Str(v)});
  }
  return out;
}

TEST(ValuesOpTest, ProducesRows) {
  ExecContext ctx;
  ValuesOp op(KV(), KvRows({{1, "a"}, {2, "b"}, {3, "c"}}));
  auto res = CollectRows(&op, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[1][0].AsI64(), 2);
  EXPECT_EQ(res->rows[2][1].AsStr(), "c");
}

TEST(SelectOpTest, FiltersWithSelectionVector) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{1, "a"}, {5, "b"}, {3, "c"}, {9, "d"}, {2, "e"}}));
  SelectOp sel(std::move(values), Gt(Col("k"), Lit(Value::I64(2))));
  auto res = CollectRows(&sel, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "b");
  EXPECT_EQ(res->rows[1][1].AsStr(), "c");
  EXPECT_EQ(res->rows[2][1].AsStr(), "d");
}

TEST(SelectOpTest, NullPredicateRowsDoNotQualify) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::I64(1)}, {Value::Null(TypeId::kI64)}, {Value::I64(3)}});
  SelectOp sel(std::move(values), Gt(Col("x"), Lit(Value::I64(0))));
  auto res = CollectRows(&sel, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 2u);  // the NULL row is out
}

TEST(ProjectOpTest, ComputesExpressions) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{2, "x"}, {7, "y"}}));
  std::vector<ProjectItem> items;
  items.push_back({"k2", Mul(Col("k"), Col("k"))});
  items.push_back({"tag", Call("upper", {Col("v")})});
  ProjectOp proj(std::move(values), std::move(items));
  auto res = CollectRows(&proj, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->schema.field(0).name, "k2");
  EXPECT_EQ(res->rows[1][0].AsI64(), 49);
  EXPECT_EQ(res->rows[0][1].AsStr(), "X");
}

TEST(ProjectOpTest, PreservesSelectionFromFilter) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{1, "a"}, {2, "b"}, {3, "c"}, {4, "d"}}));
  auto sel = std::make_unique<SelectOp>(std::move(values),
                                        Eq(Col("k"), Lit(Value::I64(3))));
  std::vector<ProjectItem> items;
  items.push_back({"kk", Add(Col("k"), Lit(Value::I64(100)))});
  ProjectOp proj(std::move(sel), std::move(items));
  auto res = CollectRows(&proj, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 103);
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

struct JoinFixture {
  ExecContext ctx;
  Schema left{{Field("lk", TypeId::kI64, true), Field("lv", TypeId::kStr)}};
  Schema right{{Field("rk", TypeId::kI64, true), Field("rv", TypeId::kStr)}};

  std::unique_ptr<ValuesOp> Left(std::vector<std::vector<Value>> rows) {
    return std::make_unique<ValuesOp>(left, std::move(rows));
  }
  std::unique_ptr<ValuesOp> Right(std::vector<std::vector<Value>> rows) {
    return std::make_unique<ValuesOp>(right, std::move(rows));
  }
};

std::vector<Value> R(int64_t k, const char* v) {
  return {Value::I64(k), Value::Str(v)};
}
std::vector<Value> RN(const char* v) {
  return {Value::Null(TypeId::kI64), Value::Str(v)};
}

TEST(HashJoinTest, InnerJoinMatchesAndDuplicates) {
  JoinFixture f;
  // build: right, probe: left.
  auto join = SerialJoin(f.Right({R(1, "r1"), R(2, "r2"), R(2, "r2b")}),
                         f.Left({R(1, "l1"), R(2, "l2"), R(3, "l3")}),
                         {0}, {0}, JoinType::kInner);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  // 1 match for k=1, 2 for k=2, 0 for k=3.
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->schema.num_fields(), 4);
}

TEST(HashJoinTest, InnerJoinNullKeysNeverMatch) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), RN("lnull")}), {0}, {0},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l1");
}

TEST(HashJoinTest, LeftOuterEmitsNullPaddedRows) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(1, "r1")}),
                         f.Left({R(1, "l1"), R(7, "l7")}), {0}, {0},
                         JoinType::kLeftOuter);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  // Unmatched l7: build side NULL.
  bool found = false;
  for (const auto& row : res->rows) {
    if (row[1].AsStr() == "l7") {
      EXPECT_TRUE(row[2].is_null());
      EXPECT_TRUE(row[3].is_null());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HashJoinTest, SemiJoinEmitsEachProbeOnce) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(2, "a"), R(2, "b")}),
                         f.Left({R(2, "l2"), R(3, "l3")}), {0}, {0},
                         JoinType::kSemi);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l2");
  EXPECT_EQ(res->schema.num_fields(), 2);  // probe columns only
}

// The §"NULL intricacies" cases: NOT EXISTS vs NOT IN.
TEST(HashJoinTest, AntiJoinNotExistsSemantics) {
  JoinFixture f;
  // NOT EXISTS(rk = lk): NULL probe keys survive (no match possible).
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), R(5, "l5"), RN("lnull")}),
                         {0}, {0},
                         JoinType::kAnti);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l5");
  EXPECT_EQ(res->rows[1][1].AsStr(), "lnull");
}

TEST(HashJoinTest, AntiJoinNotInNullProbeDropped) {
  JoinFixture f;
  // NOT IN over a build side *without* NULLs: NULL probe keys are dropped
  // (x NOT IN S is UNKNOWN when x is NULL).
  auto join = SerialJoin(f.Right({R(1, "r1")}),
                         f.Left({R(1, "l1"), R(5, "l5"), RN("lnull")}),
                         {0}, {0},
                         JoinType::kAntiNullAware);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l5");
}

TEST(HashJoinTest, AntiJoinNotInNullBuildPoisonsAll) {
  JoinFixture f;
  // NOT IN over a build side *with* a NULL: no probe row can qualify.
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), R(5, "l5")}), {0}, {0},
                         JoinType::kAntiNullAware);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 0u);
}

TEST(HashJoinTest, MultiColumnKeys) {
  ExecContext ctx;
  Schema two{{Field("a", TypeId::kI64), Field("b", TypeId::kStr)}};
  auto build = std::make_unique<ValuesOp>(
      two, std::vector<std::vector<Value>>{
               {Value::I64(1), Value::Str("x")},
               {Value::I64(1), Value::Str("y")}});
  auto probe = std::make_unique<ValuesOp>(
      two, std::vector<std::vector<Value>>{
               {Value::I64(1), Value::Str("x")},
               {Value::I64(1), Value::Str("z")}});
  auto join = SerialJoin(std::move(build), std::move(probe), {0, 1}, {0, 1},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "x");
}

TEST(HashJoinTest, OutputOverflowResumesCorrectly) {
  // One probe row matching 5000 build rows must span multiple output
  // batches without loss.
  ExecContext ctx;
  ctx.vector_size = 128;
  Schema s({Field("k", TypeId::kI64), Field("i", TypeId::kI64)});
  std::vector<std::vector<Value>> build_rows;
  for (int i = 0; i < 5000; i++) {
    build_rows.push_back({Value::I64(42), Value::I64(i)});
  }
  auto build = std::make_unique<ValuesOp>(s, std::move(build_rows));
  auto probe = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::I64(42), Value::I64(-1)}});
  auto join = SerialJoin(std::move(build), std::move(probe), {0}, {0},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 5000u);
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

TEST(HashAggTest, GroupByWithAllAggregates) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kStr), Field("x", TypeId::kI64)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::Str("a"), Value::I64(1)},
             {Value::Str("b"), Value::I64(10)},
             {Value::Str("a"), Value::I64(3)},
             {Value::Str("b"), Value::I64(30)},
             {Value::Str("a"), Value::I64(5)}});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("x"), "sum_x"});
  aggs.push_back({AggKind::kMin, Col("x"), "min_x"});
  aggs.push_back({AggKind::kMax, Col("x"), "max_x"});
  aggs.push_back({AggKind::kAvg, Col("x"), "avg_x"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys),
                std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  for (const auto& row : res->rows) {
    if (row[0].AsStr() == "a") {
      EXPECT_EQ(row[1].AsI64(), 3);
      EXPECT_EQ(row[2].AsI64(), 9);
      EXPECT_EQ(row[3].AsI64(), 1);
      EXPECT_EQ(row[4].AsI64(), 5);
      EXPECT_DOUBLE_EQ(row[5].AsF64(), 3.0);
    } else {
      EXPECT_EQ(row[1].AsI64(), 2);
      EXPECT_EQ(row[2].AsI64(), 40);
    }
  }
}

TEST(HashAggTest, GlobalAggregateOnEmptyInput) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64)});
  auto values =
      std::make_unique<ValuesOp>(s, std::vector<std::vector<Value>>{});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("x"), "sum_x"});
  HashAggOp agg(OneChain(std::move(values)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 0);
  EXPECT_TRUE(res->rows[0][1].is_null());  // SUM over nothing is NULL
}

TEST(HashAggTest, NullInputsSkipped) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::I64(5)},
                                         {Value::Null(TypeId::kI64)},
                                         {Value::I64(7)}});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, Col("x"), "cnt_x"});
  aggs.push_back({AggKind::kAvg, Col("x"), "avg_x"});
  HashAggOp agg(OneChain(std::move(values)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0][0].AsI64(), 2);  // COUNT(x) skips NULL
  EXPECT_DOUBLE_EQ(res->rows[0][1].AsF64(), 6.0);
}

TEST(HashAggTest, NullGroupKeysFormOneGroup) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kI64, true), Field("x", TypeId::kI64)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::Null(TypeId::kI64), Value::I64(1)},
             {Value::I64(1), Value::I64(2)},
             {Value::Null(TypeId::kI64), Value::I64(3)}});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kSum, Col("x"), "s"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys),
                std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);  // NULL group + group 1
  for (const auto& row : res->rows) {
    if (row[0].is_null()) EXPECT_EQ(row[1].AsI64(), 4);
  }
}

TEST(HashAggTest, ManyGroupsTriggerRehash) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kI64)});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 5000; i++) rows.push_back({Value::I64(i % 2000)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "c"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys),
                std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 2000u);
}

// ---------------------------------------------------------------------------
// Sort / TopN
// ---------------------------------------------------------------------------

TEST(SortOpTest, MultiKeyWithDirections) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64), Field("b", TypeId::kStr)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::I64(2), Value::Str("x")},
             {Value::I64(1), Value::Str("b")},
             {Value::I64(2), Value::Str("a")},
             {Value::I64(1), Value::Str("a")}});
  SortOp sort(OneChain(std::move(values)), {{0, true}, {1, false}});
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 4u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);
  EXPECT_EQ(res->rows[0][1].AsStr(), "b");  // desc within group
  EXPECT_EQ(res->rows[3][1].AsStr(), "a");
}

TEST(SortOpTest, NullsSortLastAscending) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::Null(TypeId::kI64)},
                                         {Value::I64(2)},
                                         {Value::I64(1)}});
  SortOp sort(OneChain(std::move(values)), {{0, true}});
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);
  EXPECT_TRUE(res->rows[2][0].is_null());
}

TEST(SortOpTest, TopNLimitsOutput) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64)});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 1000; i++) rows.push_back({Value::I64((i * 37) % 997)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  SortOp sort(OneChain(std::move(values)), {{0, false}}, 5);
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 5u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 996);
  for (size_t i = 1; i < 5; i++) {
    EXPECT_LE(res->rows[i][0].AsI64(), res->rows[i - 1][0].AsI64());
  }
}

// ---------------------------------------------------------------------------
// Scan over stored tables (+ PDT)
// ---------------------------------------------------------------------------

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableBuilder b("t",
                   Schema({Field("id", TypeId::kI64),
                           Field("val", TypeId::kI32),
                           Field("s", TypeId::kStr)}),
                   Layout::kDsm, &disk_, 256);
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(b.AppendRow({Value::I64(i), Value::I32(i % 100),
                               Value::Str("s" + std::to_string(i % 10))})
                      .ok());
    }
    auto t = b.Finish();
    ASSERT_TRUE(t.ok());
    table_ = std::make_unique<UpdatableTable>(std::move(t).value());
    buffers_ = std::make_unique<BufferManager>(&disk_, 64 << 20);
  }

  std::unique_ptr<ScanOp> MakeScan(std::vector<int> cols,
                                   std::vector<ScanPredicate> preds = {}) {
    ScanOptions opts;
    opts.columns = std::move(cols);
    opts.predicates = std::move(preds);
    return std::make_unique<ScanOp>(table_->View(), table_->SnapshotPdt(),
                                    buffers_.get(), std::move(opts));
  }

  SimulatedDisk disk_;
  std::unique_ptr<UpdatableTable> table_;
  std::unique_ptr<BufferManager> buffers_;
  TransactionManager tm_;
};

TEST_F(ScanTest, FullScanAllRows) {
  ExecContext ctx;
  auto scan = MakeScan({0, 1, 2});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1000u);
  EXPECT_EQ(res->rows[999][0].AsI64(), 999);
  EXPECT_EQ(res->rows[123][1].AsI64(), 23);
  EXPECT_EQ(res->rows[45][2].AsStr(), "s5");
}

TEST_F(ScanTest, ColumnSubsetAndOrder) {
  ExecContext ctx;
  auto scan = MakeScan({2, 0});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->schema.field(0).name, "s");
  EXPECT_EQ(res->schema.field(1).name, "id");
  EXPECT_EQ(res->rows[7][1].AsI64(), 7);
}

TEST_F(ScanTest, MinMaxSkipsGroups) {
  ExecContext ctx;
  // id >= 900: only the last group (rows 768..1000, groups of 256) + part.
  auto scan =
      MakeScan({0}, {{0, RangeOp::kGe, Value::I64(900)}});
  ScanOp* raw = scan.get();
  auto res = CollectRows(raw, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(raw->groups_skipped(), 3);
  // Scan emits whole groups; exact filtering is SelectOp's job.
  EXPECT_EQ(res->rows.size(), 232u);  // rows 768..999
}

TEST_F(ScanTest, ScanMergesPdtDeltas) {
  ExecContext ctx;
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Delete(0).ok());
  ASSERT_TRUE(txn->Update(500, 1, Value::I32(-5)).ok());
  ASSERT_TRUE(txn->Append({Value::I64(5000), Value::I32(1),
                           Value::Str("tail")})
                  .ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  auto scan = MakeScan({0, 1, 2});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1000u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);        // sid 0 deleted
  // Update(500) ran after Delete(0): it targeted sid 501, now at rid 500.
  EXPECT_EQ(res->rows[500][1].AsI64(), -5);
  EXPECT_EQ(res->rows[500][0].AsI64(), 501);
  EXPECT_EQ(res->rows[999][0].AsI64(), 5000);   // appended tail
  EXPECT_EQ(res->rows[999][2].AsStr(), "tail");
}

TEST_F(ScanTest, MinMaxNotSkippedWhenDeltasPresent) {
  ExecContext ctx;
  auto txn = tm_.Begin(table_.get());
  // Make a row in group 0 suddenly match id >= 900.
  ASSERT_TRUE(txn->Update(5, 0, Value::I64(950)).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  auto scan = MakeScan({0}, {{0, RangeOp::kGe, Value::I64(900)}});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  bool found = false;
  for (const auto& row : res->rows) found |= row[0].AsI64() == 950;
  EXPECT_TRUE(found);
}

TEST_F(ScanTest, PipelineScanSelectProjectAgg) {
  ExecContext ctx;
  auto scan = MakeScan({0, 1});
  auto sel = std::make_unique<SelectOp>(std::move(scan),
                                        Lt(Col("val"), Lit(Value::I32(10))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("id"), "sum_id"});
  HashAggOp agg(OneChain(std::move(sel)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  // val = id % 100 < 10 -> ids 0..9, 100..109, ... 10 per hundred.
  EXPECT_EQ(res->rows[0][0].AsI64(), 100);
  int64_t expect_sum = 0;
  for (int i = 0; i < 1000; i++) {
    if (i % 100 < 10) expect_sum += i;
  }
  EXPECT_EQ(res->rows[0][1].AsI64(), expect_sum);
}

// ---------------------------------------------------------------------------
// Exchange + cancellation
// ---------------------------------------------------------------------------

TEST_F(ScanTest, ExchangeUnionsPartitionedScans) {
  ExecContext ctx;
  std::vector<OperatorPtr> producers;
  const int workers = 2;
  for (int w = 0; w < workers; w++) {
    ScanOptions opts;
    opts.columns = {0};
    opts.use_subset = true;
    for (int g = 0; g < table_->base()->num_groups(); g++) {
      if (g % workers == w) opts.group_subset.push_back(g);
    }
    opts.include_tail = w == 0;
    producers.push_back(std::make_unique<ScanOp>(
        table_->View(), table_->SnapshotPdt(), buffers_.get(),
        std::move(opts)));
  }
  XchgOp xchg(std::move(producers));
  auto res = CollectRows(&xchg, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 1000u);
  int64_t sum = 0;
  for (const auto& row : res->rows) sum += row[0].AsI64();
  EXPECT_EQ(sum, 999ll * 1000 / 2);
}

TEST(CancellationTest, OperatorTreeStopsPromptly) {
  ExecContext ctx;
  CancellationToken token;
  ctx.cancel = &token;
  // An effectively infinite values source would run forever; cancel from
  // another thread must stop it.
  Schema s({Field("x", TypeId::kI64)});
  std::vector<std::vector<Value>> rows(10000, {Value::I64(1)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  // Heavy cross join to keep it busy: join values with itself.
  std::vector<std::vector<Value>> rows2(10000, {Value::I64(1)});
  auto values2 = std::make_unique<ValuesOp>(s, std::move(rows2));
  auto join = SerialJoin(std::move(values), std::move(values2), {0}, {0},
                         JoinType::kInner);  // 10^8 output pairs
  ASSERT_TRUE(join->Open(&ctx).ok());
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  Status final_status = Status::OK();
  while (true) {
    auto b = join->Next();
    if (!b.ok()) {
      final_status = b.status();
      break;
    }
    if (*b == nullptr) break;
  }
  canceller.join();
  join->Close();
  EXPECT_TRUE(final_status.IsCancelled());
}

TEST(CancellationTest, ExchangeProducersJoinOnCancel) {
  ExecContext ctx;
  CancellationToken token;
  ctx.cancel = &token;
  Schema s({Field("x", TypeId::kI64)});
  std::vector<OperatorPtr> producers;
  for (int p = 0; p < 2; p++) {
    std::vector<std::vector<Value>> rows(200000, {Value::I64(p)});
    producers.push_back(std::make_unique<ValuesOp>(s, std::move(rows)));
  }
  XchgOp xchg(std::move(producers));
  ASSERT_TRUE(xchg.Open(&ctx).ok());
  auto first = xchg.Next();
  ASSERT_TRUE(first.ok());
  token.Cancel();
  // Drain until the cancel surfaces.
  while (true) {
    auto b = xchg.Next();
    if (!b.ok()) {
      EXPECT_TRUE(b.status().IsCancelled());
      break;
    }
    if (*b == nullptr) break;
  }
  xchg.Close();  // must join producer threads without deadlock
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel scans
// ---------------------------------------------------------------------------

TEST(MorselSourceTest, HandsOutEachGroupExactlyOnce) {
  MorselSource src(64);
  std::mutex mu;
  std::vector<int> claimed;
  int tails = 0;
  std::vector<std::thread> pullers;
  for (int t = 0; t < 4; t++) {
    pullers.emplace_back([&] {
      std::vector<int> mine;
      while (true) {
        const int g = src.NextGroup();
        if (g < 0) break;
        mine.push_back(g);
      }
      const bool tail = src.ClaimTail();
      std::lock_guard<std::mutex> lock(mu);
      claimed.insert(claimed.end(), mine.begin(), mine.end());
      tails += tail ? 1 : 0;
    });
  }
  for (auto& t : pullers) t.join();
  EXPECT_EQ(tails, 1);  // exactly one consumer merges the PDT tail
  std::sort(claimed.begin(), claimed.end());
  ASSERT_EQ(claimed.size(), 64u);
  for (int g = 0; g < 64; g++) EXPECT_EQ(claimed[g], g);
  EXPECT_EQ(src.handed(), 64);
}

TEST_F(ScanTest, MorselExchangeDeterministicAcrossWorkerCounts) {
  for (int workers : {1, 2, 8}) {
    TaskScheduler pool(workers);
    ExecContext ctx;
    ctx.scheduler = &pool;
    auto morsels =
        std::make_shared<MorselSource>(table_->base()->num_groups());
    std::vector<OperatorPtr> producers;
    for (int w = 0; w < workers; w++) {
      ScanOptions opts;
      opts.columns = {0};
      opts.morsels = morsels;
      producers.push_back(std::make_unique<ScanOp>(
          table_->View(), table_->SnapshotPdt(), buffers_.get(),
          std::move(opts)));
    }
    XchgOp xchg(std::move(producers));
    auto res = CollectRows(&xchg, &ctx);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->rows.size(), 1000u) << "workers=" << workers;
    int64_t sum = 0;
    for (const auto& row : res->rows) sum += row[0].AsI64();
    EXPECT_EQ(sum, 999ll * 1000 / 2) << "workers=" << workers;
    EXPECT_EQ(morsels->handed(), table_->base()->num_groups());
  }
}

TEST_F(ScanTest, MorselExchangeCancellationJoinsInFlightTasks) {
  TaskScheduler pool(2);
  CancellationToken token;
  ExecContext ctx;
  ctx.scheduler = &pool;
  ctx.cancel = &token;
  auto morsels =
      std::make_shared<MorselSource>(table_->base()->num_groups());
  std::vector<OperatorPtr> producers;
  for (int w = 0; w < 2; w++) {
    ScanOptions opts;
    opts.columns = {0, 1, 2};
    opts.morsels = morsels;
    producers.push_back(std::make_unique<ScanOp>(
        table_->View(), table_->SnapshotPdt(), buffers_.get(),
        std::move(opts)));
  }
  XchgOp xchg(std::move(producers));
  ASSERT_TRUE(xchg.Open(&ctx).ok());
  token.Cancel();  // cancel with morsel tasks potentially in flight
  while (true) {
    auto b = xchg.Next();
    if (!b.ok()) {
      EXPECT_TRUE(b.status().IsCancelled());
      break;
    }
    if (*b == nullptr) break;
  }
  xchg.Close();  // must join every producer task without deadlock
  SUCCEED();
}

TEST_F(ScanTest, TwoExchangesOnOneWorkerDoNotDeadlock) {
  // Regression: a producer blocked on a full exchange queue must not hold
  // the pool's only worker hostage. Open two exchanges, then drain the
  // SECOND one first — the first exchange's producers saturate their
  // 1-slot queue and must yield the worker (by helping) so the second
  // exchange's producers can run at all.
  TaskScheduler pool(1);
  ExecContext ctx;
  ctx.scheduler = &pool;
  auto make_xchg = [&] {
    auto morsels =
        std::make_shared<MorselSource>(table_->base()->num_groups());
    std::vector<OperatorPtr> producers;
    for (int w = 0; w < 2; w++) {
      ScanOptions opts;
      opts.columns = {0};
      opts.morsels = morsels;
      producers.push_back(std::make_unique<ScanOp>(
          table_->View(), table_->SnapshotPdt(), buffers_.get(),
          std::move(opts)));
    }
    return std::make_unique<XchgOp>(std::move(producers),
                                    /*queue_capacity=*/1);
  };
  auto first = make_xchg();
  auto second = make_xchg();
  ASSERT_TRUE(first->Open(&ctx).ok());   // its producers queue first
  ASSERT_TRUE(second->Open(&ctx).ok());
  auto drain = [&](Operator* op) {
    int64_t rows = 0;
    while (true) {
      auto b = op->Next();
      if (!b.ok()) return int64_t{-1};
      if (*b == nullptr) return rows;
      rows += (*b)->ActiveRows();
    }
  };
  EXPECT_EQ(drain(second.get()), 1000);  // starved side without the fix
  EXPECT_EQ(drain(first.get()), 1000);
  second->Close();
  first->Close();
}

}  // namespace
}  // namespace x100
