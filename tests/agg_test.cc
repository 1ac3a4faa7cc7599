// Grouped-aggregation parity and overflow tests.
//
//  * Parity: every key type (bool/i8/i16/i32/i64/f64/str, with NULL keys,
//    single and multi-column, on both sides of the direct-map limit) and
//    every (aggregate kind, input type) pair, with NULL inputs and
//    selection vectors, against a row-at-a-time reference computed here.
//    Each query runs at workers {1, 4}, radix_bits {0, auto, 6} and SIMD
//    {scalar, auto}, and under a memory_limit that sends the aggregation
//    out of core. Value columns hold numbers whose sums are
//    exact in double, so every result is bit-identical to the reference
//    whatever the morsel schedule; arbitrary doubles are checked at a
//    fixed worker count through the operator directly.
//  * On-demand partitioning: a worker that crosses kTinyBuildRows
//    mid-stream ends with exactly the tables of one partitioned from the
//    start.
//  * Integer SUM overflow is reported — keyless, grouped, merged across
//    workers and through an AggSpill — and partial sums that wrap but
//    cancel out are not an overflow.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <random>

#include "engine/session.h"
#include "exec/hash_agg.h"
#include "exec/values.h"

namespace x100 {
namespace {

struct ColSpec {
  const char* name;
  TypeId type;
};

const ColSpec kKeyCols[] = {
    {"kb", TypeId::kBool},   {"ki8", TypeId::kI8},    {"ki16", TypeId::kI16},
    {"ki32", TypeId::kI32},  {"ki64", TypeId::kI64},  {"kwide", TypeId::kI64},
    {"kmix", TypeId::kI64},  {"kf", TypeId::kF64},    {"ks1", TypeId::kStr},
    {"ks", TypeId::kStr}};
const ColSpec kValCols[] = {{"vb", TypeId::kBool}, {"vi8", TypeId::kI8},
                            {"vi16", TypeId::kI16}, {"vi32", TypeId::kI32},
                            {"vi64", TypeId::kI64}, {"vf", TypeId::kF64},
                            {"vd", TypeId::kDate}};
const AggKind kKinds[] = {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                          AggKind::kMax, AggKind::kAvg};

/// Exact bit-level equality; NULL only equals NULL.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == TypeId::kF64 || b.type() == TypeId::kF64) {
    const double x = a.AsF64(), y = b.AsF64();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  if (a.type() == TypeId::kStr) return a.AsStr() == b.AsStr();
  return a.AsI64() == b.AsI64();
}

/// Group identity of a key tuple (doubles by bits, NULL distinct).
std::string KeyOf(const std::vector<Value>& row, size_t nkeys) {
  std::string s;
  for (size_t k = 0; k < nkeys; k++) {
    const Value& v = row[k];
    if (v.is_null()) {
      s += "N|";
    } else if (v.type() == TypeId::kF64) {
      const double d = v.AsF64();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      s += std::to_string(bits) + "|";
    } else {
      s += v.ToString() + "|";
    }
  }
  return s;
}

/// Row-at-a-time reference of one aggregate over one group: sums in row
/// order, exactly as the engine folds a group.
struct RefAgg {
  int64_t rows = 0, nonnull = 0;
  __int128 isum = 0;
  double dsum = 0;
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double dmin = 0, dmax = 0;

  void Add(const Value& v) {
    rows++;
    if (v.is_null()) return;
    nonnull++;
    if (v.type() == TypeId::kF64) {
      const double d = v.AsF64();
      dsum += d;
      if (nonnull == 1 || d < dmin) dmin = d;
      if (nonnull == 1 || d > dmax) dmax = d;
    } else {
      const int64_t x = v.AsI64();
      isum += x;
      dsum += static_cast<double>(x);
      imin = std::min(imin, x);
      imax = std::max(imax, x);
    }
  }

  Value Result(AggKind kind, TypeId in) const {
    if (kind == AggKind::kCount) return Value::I64(nonnull);
    if (nonnull == 0) return Value::Null(in);
    const bool f = in == TypeId::kF64;
    switch (kind) {
      case AggKind::kSum:
        return f ? Value::F64(dsum) : Value::I64(static_cast<int64_t>(isum));
      case AggKind::kAvg:
        return Value::F64(dsum / static_cast<double>(nonnull));
      case AggKind::kMin: return f ? Value::F64(dmin) : Value::I64(imin);
      case AggKind::kMax: return f ? Value::F64(dmax) : Value::I64(imax);
      case AggKind::kCount: break;
    }
    return Value::Null(in);
  }
};

class AggParityTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 30000;

  void SetUp() override {
    db_ = std::make_unique<Database>();
    std::vector<Field> fields;
    for (const ColSpec& c : kKeyCols) fields.emplace_back(c.name, c.type, true);
    for (const ColSpec& c : kValCols) fields.emplace_back(c.name, c.type, true);
    fields.emplace_back("fl", TypeId::kI32);
    schema_ = Schema(fields);
    auto b = db_->CreateTable("t", schema_, Layout::kDsm, 1024);
    std::mt19937_64 rng(7);
    const auto pick = [&](int64_t n) { return static_cast<int64_t>(rng() % n); };
    const auto maybe_null = [&](int one_in, Value v) {
      return pick(one_in) == 0 ? Value::Null(v.type()) : v;
    };
    const char* bytes = "abcdefgh";
    for (int i = 0; i < kRows; i++) {
      std::vector<Value> row;
      row.push_back(maybe_null(20, Value::Bool(pick(2))));
      row.push_back(maybe_null(30, Value::I8(static_cast<int8_t>(pick(256) - 128))));
      row.push_back(maybe_null(30, Value::I16(static_cast<int16_t>(pick(3000)))));
      row.push_back(maybe_null(30, Value::I32(static_cast<int32_t>(pick(200)))));
      row.push_back(Value::I64(pick(256)));
      row.push_back(Value::I64(pick(20000)));
      // Small except a few rows: vectors switch between the direct map and
      // the hash path mid-stream.
      row.push_back(Value::I64(i % 1500 == 7 ? 256 + i : pick(50)));
      row.push_back(maybe_null(40, Value::F64((i % 13) * 0.5 - 3)));
      const int64_t s = pick(12);
      row.push_back(s == 0 ? Value::Null(TypeId::kStr)
                           : s == 1 ? Value::Str("")
                                    : Value::Str(std::string(1, bytes[s % 8])));
      row.push_back(Value::Str("key" + std::to_string(pick(500))));
      row.push_back(maybe_null(15, Value::Bool(pick(2))));
      row.push_back(maybe_null(15, Value::I8(static_cast<int8_t>(pick(256) - 128))));
      row.push_back(maybe_null(15, Value::I16(static_cast<int16_t>(pick(65536) - 32768))));
      row.push_back(maybe_null(15, Value::I32(static_cast<int32_t>(pick(2000001) - 1000000))));
      row.push_back(maybe_null(15, Value::I64(pick(2000000001) - 1000000000)));
      // Quarter multiples: every sum is exact, whatever the order.
      row.push_back(maybe_null(15, Value::F64((pick(20001) - 10000) * 0.25)));
      row.push_back(maybe_null(15, Value::Date(static_cast<int32_t>(8000 + pick(3000)))));
      row.push_back(Value::I32(static_cast<int32_t>(pick(100))));
      ASSERT_TRUE(b->AppendRow(row).ok());
      rows_.push_back(std::move(row));
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    session_ = std::make_unique<Session>(db_.get());
  }

  void TearDown() override {
    db_->config().max_parallelism = 0;
    db_->config().radix_bits = -1;
    db_->config().simd_level = SimdMode::kAuto;
    db_->config().memory_limit = 0;
  }

  int ColIndex(const std::string& name) const {
    for (int c = 0; c < schema_.num_fields(); c++) {
      if (schema_.field(c).name == name) return c;
    }
    return -1;
  }

  /// SELECT keys, COUNT(*), {COUNT,SUM,MIN,MAX,AVG}(v) for every value
  /// column FROM t WHERE fl < 80 GROUP BY keys.
  AlgebraPtr Plan(const std::vector<std::string>& keys) const {
    std::vector<ProjectItem> group_by;
    for (const std::string& k : keys) group_by.push_back({k, Col(k)});
    std::vector<AggItem> aggs;
    aggs.push_back({AggKind::kCount, nullptr, "n"});
    for (const ColSpec& v : kValCols) {
      for (AggKind kind : kKinds) {
        aggs.push_back({kind, Col(v.name),
                        std::string(AggKindName(kind)) + "_" + v.name});
      }
    }
    return AggrNode(SelectNode(ScanNode("t"), Lt(Col("fl"), Lit(Value::I32(80)))),
                    std::move(group_by), std::move(aggs));
  }

  /// Expected result rows keyed by group identity.
  std::map<std::string, std::vector<Value>> Reference(
      const std::vector<std::string>& keys) const {
    std::vector<int> key_idx;
    for (const std::string& k : keys) key_idx.push_back(ColIndex(k));
    std::map<std::string, std::pair<std::vector<Value>, std::vector<RefAgg>>>
        groups;
    const size_t nval = std::size(kValCols);
    for (const auto& row : rows_) {
      if (row.back().AsI64() >= 80) continue;
      std::vector<Value> kv;
      for (int c : key_idx) kv.push_back(row[c]);
      auto& g = groups[KeyOf(kv, kv.size())];
      if (g.second.empty()) {
        g.first = kv;
        g.second.resize(nval + 1);
      }
      g.second[0].Add(Value::I64(0));
      for (size_t v = 0; v < nval; v++) {
        g.second[v + 1].Add(row[ColIndex(kValCols[v].name)]);
      }
    }
    std::map<std::string, std::vector<Value>> out;
    for (const auto& [key, g] : groups) {
      std::vector<Value> r = g.first;
      r.push_back(Value::I64(g.second[0].rows));
      for (size_t v = 0; v < nval; v++) {
        for (AggKind kind : kKinds) {
          r.push_back(g.second[v + 1].Result(kind, kValCols[v].type));
        }
      }
      out[key] = std::move(r);
    }
    return out;
  }

  void ExpectMatches(const std::map<std::string, std::vector<Value>>& want,
                     const QueryResult& got, size_t nkeys,
                     const std::string& what) {
    ASSERT_EQ(got.rows.size(), want.size()) << what;
    for (const auto& row : got.rows) {
      auto it = want.find(KeyOf(row, nkeys));
      ASSERT_NE(it, want.end()) << what << ": unexpected group";
      ASSERT_EQ(row.size(), it->second.size()) << what;
      for (size_t c = nkeys; c < row.size(); c++) {
        ASSERT_TRUE(SameValue(row[c], it->second[c]))
            << what << " group " << it->first << " col "
            << got.schema.field(static_cast<int>(c)).name << ": got " << row[c].ToString()
            << " want " << it->second[c].ToString();
      }
    }
  }

  struct Knobs {
    int workers;
    int radix_bits;
    SimdMode simd;
    int64_t memory_limit;
    std::string Name() const {
      return "workers=" + std::to_string(workers) +
             " radix_bits=" + std::to_string(radix_bits) +
             " simd=" + SimdModeName(simd) +
             " memory_limit=" + std::to_string(memory_limit);
    }
  };

  Result<QueryResult> Run(const std::vector<std::string>& keys,
                          const Knobs& k) {
    db_->config().max_parallelism = k.workers;
    db_->config().radix_bits = k.radix_bits;
    db_->config().simd_level = k.simd;
    db_->config().memory_limit = k.memory_limit;
    return session_->Execute(Plan(keys));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
};

TEST_F(AggParityTest, EveryKeyTypeAndAggregateUnderEveryKnob) {
  const std::vector<std::vector<std::string>> key_sets = {
      {"kb"}, {"ki8"}, {"ki16"}, {"ki32"}, {"ki64"}, {"kwide"}, {"kmix"},
      {"kf"}, {"ks1"}, {"ks"},
      {"ks1", "kb"},            // direct: 2 + 4 bits
      {"ki32", "ki64"},         // direct: 8 + 8 bits, at the limit
      {"kb", "ki8", "ki32"},    // 2 + 8 + 8 bits: past it, hashed
      {"ki16", "ks"}};          // hashed
  // Radix bits are swept at 4 workers on the scalar level; the auto level
  // reruns the default (auto bits).
  std::vector<Knobs> knobs = {{1, -1, SimdMode::kScalar, 0},
                              {1, -1, SimdMode::kAuto, 0},
                              {4, -1, SimdMode::kAuto, 0}};
  for (int bits : {0, -1, 6}) knobs.push_back({4, bits, SimdMode::kScalar, 0});
  for (const auto& keys : key_sets) {
    const auto want = Reference(keys);
    for (const Knobs& k : knobs) {
      const std::string what = "keys=" + keys[0] + (keys.size() > 1 ? "+" : "") +
                               " " + k.Name();
      auto got = Run(keys, k);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      ExpectMatches(want, *got, keys.size(), what);
    }
  }
}

TEST_F(AggParityTest, OutOfCoreAggregationMatches) {
  // A memory limit far below the group tables sends every configuration
  // down the AggSpill path; the reloaded chunks must merge back exactly.
  const std::vector<std::vector<std::string>> key_sets = {{"kwide"},
                                                         {"ki16", "ks"}};
  for (const auto& keys : key_sets) {
    const auto want = Reference(keys);
    for (SimdMode simd : {SimdMode::kScalar, SimdMode::kAuto}) {
      for (const Knobs& k : {Knobs{1, -1, simd, 256 << 10},
                             Knobs{4, 0, simd, 256 << 10},
                             Knobs{4, 6, simd, 256 << 10}}) {
        const std::string what = "keys=" + keys[0] + " " + k.Name();
        auto got = Run(keys, k);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectMatches(want, *got, keys.size(), what);
        int64_t spilled = 0;
        for (const OperatorProfile& p : got->profile.operators) {
          if (p.op == "AggSpill") spilled += p.spill_bytes;
        }
        EXPECT_GT(spilled, 0) << what;
        EXPECT_EQ(db_->memory()->used(), 0) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Operator level: arbitrary doubles at a fixed worker count
// ---------------------------------------------------------------------------

/// Rows (key, x) with `groups` distinct keys and arbitrary doubles; keys
/// repeat in long runs (the Q1 shape) for small group counts.
std::vector<std::vector<Value>> DoubleRows(int n, int groups, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1e6, 1e6);
  std::vector<std::vector<Value>> rows;
  int64_t key = 0;
  for (int i = 0; i < n; i++) {
    if (groups <= 16 ? rng() % 8 == 0 : true) key = rng() % groups;
    rows.push_back({Value::I64(key), Value::F64(u(rng))});
  }
  return rows;
}

Result<QueryResult> RunOneChain(const std::vector<std::vector<Value>>& rows,
                                int radix_bits, SimdLevel simd) {
  const Schema s({Field("k", TypeId::kI64), Field("x", TypeId::kF64)});
  std::vector<OperatorPtr> chains;
  chains.push_back(std::make_unique<ValuesOp>(s, rows));
  std::vector<AggItem> aggs = {{AggKind::kSum, Col("x"), "s"},
                               {AggKind::kAvg, Col("x"), "a"},
                               {AggKind::kMin, Col("x"), "lo"},
                               {AggKind::kCount, nullptr, "n"}};
  HashAggOp op(std::move(chains), {{"k", Col("k")}}, std::move(aggs),
               radix_bits);
  ExecContext ctx;
  ctx.simd = simd;
  return CollectRows(&op, &ctx);
}

TEST(AggOperatorParityTest, ArbitraryDoublesBitIdenticalAcrossRadixAndSimd) {
  for (const int groups : {4, 100, 20000}) {
    const auto rows = DoubleRows(60000, groups, 11 + groups);
    // Row-at-a-time reference: one chain folds rows in input order.
    std::map<int64_t, RefAgg> ref;
    for (const auto& r : rows) ref[r[0].AsI64()].Add(r[1]);
    for (SimdLevel simd : AvailableSimdLevels()) {
      for (const int bits : {0, 6}) {
        const std::string what = "groups=" + std::to_string(groups) +
                                 " simd=" + SimdLevelName(simd) +
                                 " radix_bits=" + std::to_string(bits);
        auto got = RunOneChain(rows, bits, simd);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ASSERT_EQ(got->rows.size(), ref.size()) << what;
        for (const auto& row : got->rows) {
          const RefAgg& g = ref.at(row[0].AsI64());
          ASSERT_TRUE(SameValue(row[1], g.Result(AggKind::kSum, TypeId::kF64)))
              << what;
          ASSERT_TRUE(SameValue(row[2], g.Result(AggKind::kAvg, TypeId::kF64)))
              << what;
          ASSERT_TRUE(SameValue(row[3], g.Result(AggKind::kMin, TypeId::kF64)))
              << what;
          ASSERT_EQ(row[4].AsI64(), g.rows) << what;
        }
      }
    }
  }
}

TEST(AggOperatorParityTest, MidStreamSplitEqualsPartitionedFromStart) {
  // The first vectors carry a handful of keys, then thousands: one worker
  // splits when it passes kTinyBuildRows groups, the other was split
  // before its first row. Their partition tables must be identical.
  std::vector<std::vector<Value>> rows = DoubleRows(5000, 8, 3);
  const auto wide = DoubleRows(40000, 12000, 5);
  rows.insert(rows.end(), wide.begin(), wide.end());
  const Schema s({Field("k", TypeId::kI64), Field("x", TypeId::kF64)});
  const std::vector<ProjectItem> group_by = {{"k", Col("k")}};
  const std::vector<AggItem> aggs = {{AggKind::kSum, Col("x"), "s"},
                                     {AggKind::kMax, Col("x"), "hi"},
                                     {AggKind::kCount, Col("x"), "c"}};
  AggBinding binding;
  ASSERT_TRUE(binding.Bind(s, group_by, aggs).ok());
  constexpr int kBits = 6;
  AggWorkerState late, early;
  for (AggWorkerState* w : {&late, &early}) {
    ASSERT_TRUE(w->Prepare(binding.bound_keys, binding.bound_aggs,
                           binding.key_schema, aggs, binding.in_types,
                           kDefaultVectorSize, kBits)
                    .ok());
  }
  ASSERT_TRUE(early.Split().ok());
  ASSERT_EQ(early.num_partitions(), 1 << kBits);
  for (AggWorkerState* w : {&late, &early}) {
    ExecContext ctx;
    ValuesOp in(s, rows);
    ASSERT_TRUE(in.Open(&ctx).ok());
    ASSERT_TRUE(w->ConsumeAll(&in, &ctx, aggs).ok());
    in.Close();
  }
  ASSERT_EQ(late.num_partitions(), 1 << kBits);
  for (int p = 0; p < (1 << kBits); p++) {
    const GroupTable& a = *late.table(p);
    const GroupTable& b = *early.table(p);
    ASSERT_EQ(a.num_groups(), b.num_groups()) << "partition " << p;
    for (int64_t g = 0; g < a.num_groups(); g++) {
      ASSERT_EQ(a.keys().Col<int64_t>(0)[g], b.keys().Col<int64_t>(0)[g]);
      ASSERT_EQ(a.rows()[g], b.rows()[g]);
    }
    for (size_t x = 0; x < aggs.size(); x++) {
      const GroupTable::Accum& aa = a.accum(x);
      const GroupTable::Accum& bb = b.accum(x);
      EXPECT_EQ(aa.i64, bb.i64);
      EXPECT_EQ(aa.wraps, bb.wraps);
      EXPECT_EQ(aa.nulls, bb.nulls);
      ASSERT_EQ(aa.f64.size(), bb.f64.size());
      EXPECT_TRUE(aa.f64.empty() ||
                  std::memcmp(aa.f64.data(), bb.f64.data(),
                              aa.f64.size() * sizeof(double)) == 0)
          << "partition " << p << " aggregate " << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Integer SUM overflow
// ---------------------------------------------------------------------------

class SumOverflowTest : public ::testing::Test {
 protected:
  /// Table `name`(g, v) from (group, value) pairs, 4 rows per row group so
  /// that 4 workers each fold a share of every group.
  void MakeTable(const std::string& name,
                 const std::vector<std::pair<int64_t, int64_t>>& rows) {
    auto b = db_.CreateTable(
        name, Schema({Field("g", TypeId::kI64), Field("v", TypeId::kI64)}),
        Layout::kDsm, 4);
    for (const auto& [g, v] : rows) {
      ASSERT_TRUE(b->AppendRow({Value::I64(g), Value::I64(v)}).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_.RegisterTable(std::move(t).value()).ok());
  }

  void TearDown() override {
    db_.config().max_parallelism = 0;
    db_.config().simd_level = SimdMode::kAuto;
    db_.config().memory_limit = 0;
  }

  /// Every (SIMD level, workers) configuration.
  template <typename Fn>
  void ForEachKnob(Fn fn) {
    for (SimdLevel l : AvailableSimdLevels()) {
      for (int workers : {1, 4}) {
        db_.config().simd_level = l == SimdLevel::kScalar ? SimdMode::kScalar
                                  : l == SimdLevel::kAvx2 ? SimdMode::kAvx2
                                                          : SimdMode::kNeon;
        db_.config().max_parallelism = workers;
        fn(std::string(SimdLevelName(l)) + " workers=" +
           std::to_string(workers));
      }
    }
  }

  Database db_;
  Session session_{&db_};
};

TEST_F(SumOverflowTest, KeylessAndGroupedSumsReportOverflow) {
  // 64 rows of INT64_MAX / 40 per group: each worker's share may fit,
  // the total (1.6 x INT64_MAX) does not — the merged sum must still
  // report it.
  const int64_t v = std::numeric_limits<int64_t>::max() / 40;
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 128; i++) rows.push_back({i % 2, v});
  MakeTable("ovf", rows);
  ForEachKnob([&](const std::string& what) {
    auto keyless = session_.ExecuteSql("SELECT SUM(v) AS s FROM ovf");
    ASSERT_FALSE(keyless.ok()) << what;
    EXPECT_TRUE(keyless.status().IsOverflow()) << what;
    auto grouped = session_.ExecuteSql("SELECT g, SUM(v) AS s FROM ovf GROUP BY g");
    ASSERT_FALSE(grouped.ok()) << what;
    EXPECT_TRUE(grouped.status().IsOverflow()) << what;
    // AVG keeps its f64 result.
    auto avg = session_.ExecuteSql("SELECT AVG(v) AS a FROM ovf");
    ASSERT_TRUE(avg.ok()) << what << ": " << avg.status().ToString();
    EXPECT_NEAR(avg->rows[0][0].AsF64(), static_cast<double>(v), v * 1e-12);
  });
}

TEST_F(SumOverflowTest, PartialsThatWrapButCancelAreExact) {
  // Runs of +big then -big: running and per-worker partial sums pass
  // INT64_MAX, the exact total is 6 — no overflow, exact result.
  const int64_t big = std::numeric_limits<int64_t>::max() / 2 + 2;
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 32; i++) rows.push_back({0, big});
  for (int i = 0; i < 32; i++) rows.push_back({0, -big});
  for (int i = 0; i < 6; i++) rows.push_back({0, 1});
  MakeTable("wrap", rows);
  ForEachKnob([&](const std::string& what) {
    auto keyless = session_.ExecuteSql("SELECT SUM(v) AS s FROM wrap");
    ASSERT_TRUE(keyless.ok()) << what << ": " << keyless.status().ToString();
    EXPECT_EQ(keyless->rows[0][0].AsI64(), 6) << what;
    auto grouped =
        session_.ExecuteSql("SELECT g, SUM(v) AS s FROM wrap GROUP BY g");
    ASSERT_TRUE(grouped.ok()) << what << ": " << grouped.status().ToString();
    EXPECT_EQ(grouped->rows[0][1].AsI64(), 6) << what;
  });
}

TEST_F(SumOverflowTest, OverflowSurvivesAggSpill) {
  // Thousands of small groups push the group tables past a tight memory
  // limit; group 0 overflows in one table and cancels in the other. Its
  // partial sums travel through spill chunks either way.
  const int64_t big = std::numeric_limits<int64_t>::max() / 2 + 2;
  std::vector<std::pair<int64_t, int64_t>> over, cancel;
  for (int i = 0; i < 6000; i++) {
    over.push_back({i, i});
    cancel.push_back({i, i});
    if (i % 1000 == 0) {
      over.push_back({0, big});
      cancel.push_back({0, i < 3000 ? big : -big});
    }
  }
  MakeTable("over", over);
  MakeTable("cancel", cancel);
  db_.config().memory_limit = 128 << 10;
  ForEachKnob([&](const std::string& what) {
    auto ok = session_.ExecuteSql(
        "SELECT g, SUM(v) AS s FROM cancel GROUP BY g");
    ASSERT_TRUE(ok.ok()) << what << ": " << ok.status().ToString();
    int64_t spilled = 0;
    for (const OperatorProfile& p : ok->profile.operators) {
      if (p.op == "AggSpill") spilled += p.spill_bytes;
    }
    EXPECT_GT(spilled, 0) << what;
    for (const auto& row : ok->rows) {
      if (row[0].AsI64() == 0) {
        EXPECT_EQ(row[1].AsI64(), 0) << what;
      }
    }
    auto bad =
        session_.ExecuteSql("SELECT g, SUM(v) AS s FROM over GROUP BY g");
    ASSERT_FALSE(bad.ok()) << what;
    EXPECT_TRUE(bad.status().IsOverflow()) << what;
    EXPECT_EQ(db_.memory()->used(), 0) << what;
  });
}

}  // namespace
}  // namespace x100
