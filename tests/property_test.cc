// Property tests: vectorized operators checked against naive reference
// implementations over randomized inputs (parameterized sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/select_project.h"
#include "exec/sort.h"
#include "exec/values.h"
#include "test_plans.h"

namespace x100 {
namespace {

struct SweepCase {
  const char* name;
  int n_left;
  int n_right;
  int64_t domain;       // key domain size (controls match density)
  double null_frac;
  uint64_t seed;
};

std::vector<std::vector<Value>> RandomKv(int n, int64_t domain,
                                         double null_frac, Rng* rng) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (int i = 0; i < n; i++) {
    rows.push_back({rng->Bernoulli(null_frac)
                        ? Value::Null(TypeId::kI64)
                        : Value::I64(rng->Uniform(0, domain - 1)),
                    Value::I64(i)});
  }
  return rows;
}

Schema KvSchema() {
  return Schema(
      {Field("k", TypeId::kI64, true), Field("tag", TypeId::kI64)});
}

class JoinPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(JoinPropertyTest, InnerJoinMatchesNestedLoop) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed);
  auto left = RandomKv(c.n_left, c.domain, c.null_frac, &rng);
  auto right = RandomKv(c.n_right, c.domain, c.null_frac, &rng);

  // Reference: nested loop, SQL NULL semantics.
  std::multiset<std::pair<int64_t, int64_t>> expect;
  for (const auto& l : left) {
    if (l[0].is_null()) continue;
    for (const auto& r : right) {
      if (r[0].is_null()) continue;
      if (l[0].AsI64() == r[0].AsI64()) {
        expect.insert({l[1].AsI64(), r[1].AsI64()});
      }
    }
  }

  ExecContext ctx;
  ctx.vector_size = 64;  // force multi-batch paths
  auto join = SerialJoin(std::make_unique<ValuesOp>(KvSchema(), right),
                         std::make_unique<ValuesOp>(KvSchema(), left),
                         {0}, {0},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  std::multiset<std::pair<int64_t, int64_t>> got;
  for (const auto& row : res->rows) {
    got.insert({row[1].AsI64(), row[3].AsI64()});  // probe tag, build tag
  }
  EXPECT_EQ(expect, got) << c.name;
}

TEST_P(JoinPropertyTest, SemiAntiPartitionProbeSide) {
  // For every probe row: semi-join keeps it XOR (plain) anti-join keeps it.
  const SweepCase& c = GetParam();
  Rng rng(c.seed + 1);
  auto left = RandomKv(c.n_left, c.domain, c.null_frac, &rng);
  auto right = RandomKv(c.n_right, c.domain, c.null_frac, &rng);

  auto run = [&](JoinType t) {
    ExecContext ctx;
    ctx.vector_size = 64;
    auto join = SerialJoin(std::make_unique<ValuesOp>(KvSchema(), right),
                           std::make_unique<ValuesOp>(KvSchema(), left),
                           {0}, {0}, t);
    auto res = CollectRows(join.get(), &ctx);
    EXPECT_TRUE(res.ok());
    std::multiset<int64_t> tags;
    for (const auto& row : res->rows) tags.insert(row[1].AsI64());
    return tags;
  };
  auto semi = run(JoinType::kSemi);
  auto anti = run(JoinType::kAnti);
  EXPECT_EQ(semi.size() + anti.size(), left.size()) << c.name;
  for (int64_t tag : semi) EXPECT_EQ(anti.count(tag), 0u);
}

TEST_P(JoinPropertyTest, LeftOuterCoversAllProbeRows) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed + 2);
  auto left = RandomKv(c.n_left, c.domain, c.null_frac, &rng);
  auto right = RandomKv(c.n_right, c.domain, c.null_frac, &rng);
  // match count per probe row; outer join emits max(1, matches) rows.
  std::map<int64_t, int64_t> matches;
  for (const auto& l : left) matches[l[1].AsI64()] = 0;
  for (const auto& l : left) {
    if (l[0].is_null()) continue;
    for (const auto& r : right) {
      if (!r[0].is_null() && l[0].AsI64() == r[0].AsI64()) {
        matches[l[1].AsI64()]++;
      }
    }
  }
  int64_t expect_rows = 0;
  for (const auto& [tag, m] : matches) expect_rows += std::max<int64_t>(1, m);

  ExecContext ctx;
  ctx.vector_size = 64;
  auto join = SerialJoin(std::make_unique<ValuesOp>(KvSchema(), right),
                         std::make_unique<ValuesOp>(KvSchema(), left),
                         {0}, {0},
                         JoinType::kLeftOuter);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(static_cast<int64_t>(res->rows.size()), expect_rows) << c.name;
  // Unmatched rows have NULL build columns.
  for (const auto& row : res->rows) {
    const bool unmatched = row[2].is_null();
    if (unmatched) {
      EXPECT_EQ(matches[row[1].AsI64()], 0);
      EXPECT_TRUE(row[3].is_null());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinPropertyTest,
    ::testing::Values(
        SweepCase{"dense_small", 200, 100, 20, 0.0, 1001},
        SweepCase{"dense_nulls", 200, 100, 20, 0.15, 1002},
        SweepCase{"sparse", 500, 300, 5000, 0.0, 1003},
        SweepCase{"sparse_nulls", 500, 300, 5000, 0.1, 1004},
        SweepCase{"skewed_one_key", 300, 300, 2, 0.0, 1005},
        SweepCase{"empty_build", 100, 0, 10, 0.0, 1006},
        SweepCase{"empty_probe", 0, 100, 10, 0.0, 1007},
        SweepCase{"all_null_keys", 100, 100, 10, 1.0, 1008}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Aggregation vs naive reference
// ---------------------------------------------------------------------------

class AggPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AggPropertyTest, GroupSumCountMinMaxMatchReference) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed + 10);
  const int n = c.n_left;
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; i++) {
    rows.push_back({Value::I64(rng.Uniform(0, c.domain - 1)),
                    rng.Bernoulli(c.null_frac)
                        ? Value::Null(TypeId::kI64)
                        : Value::I64(rng.Uniform(-1000, 1000))});
  }
  struct Ref {
    int64_t cnt_star = 0, cnt = 0, sum = 0;
    int64_t mn = INT64_MAX, mx = INT64_MIN;
  };
  std::map<int64_t, Ref> ref;
  for (const auto& row : rows) {
    Ref& r = ref[row[0].AsI64()];
    r.cnt_star++;
    if (row[1].is_null()) continue;
    r.cnt++;
    r.sum += row[1].AsI64();
    r.mn = std::min(r.mn, row[1].AsI64());
    r.mx = std::max(r.mx, row[1].AsI64());
  }

  ExecContext ctx;
  ctx.vector_size = 37;  // odd size: exercise partial batches
  Schema s({Field("g", TypeId::kI64), Field("x", TypeId::kI64, true)});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt_star"});
  aggs.push_back({AggKind::kCount, Col("x"), "cnt"});
  aggs.push_back({AggKind::kSum, Col("x"), "sum"});
  aggs.push_back({AggKind::kMin, Col("x"), "mn"});
  aggs.push_back({AggKind::kMax, Col("x"), "mx"});
  HashAggOp agg(OneChain(std::make_unique<ValuesOp>(s, rows)),
                std::move(keys), std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), ref.size()) << c.name;
  for (const auto& row : res->rows) {
    const Ref& r = ref.at(row[0].AsI64());
    EXPECT_EQ(row[1].AsI64(), r.cnt_star);
    EXPECT_EQ(row[2].AsI64(), r.cnt);
    if (r.cnt == 0) {
      EXPECT_TRUE(row[3].is_null());
      EXPECT_TRUE(row[4].is_null());
      EXPECT_TRUE(row[5].is_null());
    } else {
      EXPECT_EQ(row[3].AsI64(), r.sum);
      EXPECT_EQ(row[4].AsI64(), r.mn);
      EXPECT_EQ(row[5].AsI64(), r.mx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggPropertyTest,
    ::testing::Values(
        SweepCase{"few_groups", 2000, 0, 5, 0.0, 2001},
        SweepCase{"many_groups", 2000, 0, 1500, 0.0, 2002},
        SweepCase{"nulls_30pct", 2000, 0, 50, 0.3, 2003},
        SweepCase{"all_null_measures", 500, 0, 10, 1.0, 2004},
        SweepCase{"single_group", 1000, 0, 1, 0.1, 2005}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Sort vs std::sort reference
// ---------------------------------------------------------------------------

TEST(SortPropertyTest, MatchesStdSortAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; seed++) {
    Rng rng(seed * 31);
    const int n = 777;
    std::vector<std::vector<Value>> rows;
    std::vector<std::pair<int64_t, int64_t>> ref;
    for (int i = 0; i < n; i++) {
      const int64_t k = rng.Uniform(0, 50);
      rows.push_back({Value::I64(k), Value::I64(i)});
      ref.push_back({k, i});
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ExecContext ctx;
    ctx.vector_size = 64;
    Schema s({Field("k", TypeId::kI64), Field("i", TypeId::kI64)});
    SortOp sort(OneChain(std::make_unique<ValuesOp>(s, rows)), {{0, true}});
    auto res = CollectRows(&sort, &ctx);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->rows.size(), ref.size());
    for (size_t i = 0; i < ref.size(); i++) {
      EXPECT_EQ(res->rows[i][0].AsI64(), ref[i].first) << "seed " << seed;
    }
    // TopN prefix agrees with the full sort's key prefix.
    SortOp topn(OneChain(std::make_unique<ValuesOp>(s, rows)), {{0, true}},
                25);
    auto top = CollectRows(&topn, &ctx);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->rows.size(), 25u);
    for (size_t i = 0; i < 25; i++) {
      EXPECT_EQ(top->rows[i][0].AsI64(), ref[i].first);
    }
  }
}

// ---------------------------------------------------------------------------
// Filter vs reference across selectivities
// ---------------------------------------------------------------------------

TEST(SelectPropertyTest, SelectivitySweepMatchesReference) {
  for (int64_t threshold : {-1, 0, 100, 500, 900, 1000}) {
    Rng rng(99);
    const int n = 3000;
    std::vector<std::vector<Value>> rows;
    int64_t expect = 0;
    for (int i = 0; i < n; i++) {
      const int64_t v = rng.Uniform(0, 999);
      rows.push_back({Value::I64(v)});
      expect += v < threshold;
    }
    ExecContext ctx;
    ctx.vector_size = 128;
    Schema s({Field("x", TypeId::kI64)});
    SelectOp sel(std::make_unique<ValuesOp>(s, rows),
                 Lt(Col("x"), Lit(Value::I64(threshold))));
    auto res = CollectRows(&sel, &ctx);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(static_cast<int64_t>(res->rows.size()), expect)
        << "threshold " << threshold;
  }
}

}  // namespace
}  // namespace x100
