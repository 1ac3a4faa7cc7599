// E1 — §1 headline claim: vectorized execution "allows modern CPU to
// process queries more than 10 times faster than conventional query
// engines". Experiments:
//  1. Per-primitive ns/row sweeps of the hot kernels (selection compares,
//     mask compaction, hashing, keyless aggregation) at every SIMD
//     dispatch level this machine supports, scalar speedup column — the
//     kernels behind the dispatch layer in src/simd/.
//  2. Grouped aggregation split into its two halves — group lookup
//     (direct map or hash + compare + fix-up) and the update kernels —
//     for a 4-group and a 64k-group key at every level, with a result
//     checksum per level (CI diffs scalar against auto).
//  3. TPC-H Q1 and Q6 through the vectorized engine (per level) vs the
//     Volcano tuple-at-a-time baseline, same memory-resident data, and
//     Q1's HashAgg self time per row at SF 0.1 on one worker, read from
//     the query profile.
// `--json <path>` writes every measurement as BENCH_E1.json for CI.
#include <algorithm>
#include <cinttypes>
#include <random>

#include "bench_util.h"
#include "common/hash.h"
#include "engine/session.h"
#include "exec/hash_agg.h"
#include "primitives/agg_kernels.h"
#include "primitives/hash_kernels.h"
#include "primitives/primitive_registry.h"
#include "simd/simd_kernels.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

constexpr int kN = 1024;
constexpr int kIters = 20000;

double NsPerRow(double seconds) {
  return seconds * 1e9 / (static_cast<double>(kN) * kIters);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("E1", "hot primitives + vectorized vs tuple-at-a-time");
  bench::JsonReport json("E1", argc, argv);
  EnsureKernelsRegistered();
  auto* reg = PrimitiveRegistry::Get();
  const auto levels = AvailableSimdLevels();

  // ---- per-primitive sweeps -----------------------------------------------
  std::mt19937_64 rng(17);
  std::vector<int32_t> i32(kN);
  std::vector<int64_t> i64(kN);
  std::vector<double> f64(kN);
  std::vector<uint8_t> boolv(kN), nulls(kN);
  for (int i = 0; i < kN; i++) {
    i32[i] = static_cast<int32_t>(rng() % 1000);
    i64[i] = static_cast<int64_t>(rng() % 1000);
    f64[i] = static_cast<double>(rng() % 1000) * 0.5;
    boolv[i] = rng() & 1;
    nulls[i] = (rng() % 10) == 0;
  }
  std::vector<sel_t> sel_out(kN);
  std::vector<uint64_t> hashes(kN);
  Vector vi64(TypeId::kI64, kN);
  std::memcpy(vi64.RawData(), i64.data(), kN * sizeof(int64_t));
  Vector vf64(TypeId::kF64, kN);
  std::memcpy(vf64.RawData(), f64.data(), kN * sizeof(double));

  const int32_t c32 = 500;
  const double c64 = 250.0;
  const void* sel_i32_args[2] = {i32.data(), &c32};
  const void* sel_f64_args[2] = {f64.data(), &c64};

  struct Prim {
    const char* name;
    std::function<double(SimdLevel)> run;  // returns min seconds
  };
  std::vector<Prim> prims;
  prims.push_back({"select_lt_i32_vec_val", [&](SimdLevel l) {
    SelectFn fn = reg->FindSelect(
        "lt", {{TypeId::kI32, false}, {TypeId::kI32, true}}, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, sel_i32_args, sel_out.data());
      }
    });
  }});
  prims.push_back({"select_lt_f64_vec_val", [&](SimdLevel l) {
    SelectFn fn = reg->FindSelect(
        "lt", {{TypeId::kF64, false}, {TypeId::kF64, true}}, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, sel_f64_args, sel_out.data());
      }
    });
  }});
  prims.push_back({"compact_true_bool", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        simd::CompactTrue(kN, boolv.data(), sel_out.data(), l);
      }
    });
  }});
  prims.push_back({"compact_true_notnull", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        simd::CompactTrueNotNull(kN, boolv.data(), nulls.data(),
                                 sel_out.data(), l);
      }
    });
  }});
  prims.push_back({"hash_i64", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        hashk::HashColumn(vi64, kN, nullptr, hashes.data(), false, l);
      }
    });
  }});
  prims.push_back({"hash_f64_combine", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        hashk::HashColumn(vf64, kN, nullptr, hashes.data(), true, l);
      }
    });
  }});
  prims.push_back({"agg_sum_i64_keyless", [&](SimdLevel l) {
    int64_t sum = 0, wraps = 0, null_count = 0;
    const agg::Slots acc{&sum, nullptr, &wraps, &null_count};
    const void* cols[1] = {i64.data()};
    const agg::UpdateFn fn =
        agg::FindUpdate(AggKind::kSum, TypeId::kI64, 1, true, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, nullptr, cols, nulls.data(), &acc);
      }
    });
  }});
  prims.push_back({"agg_max_i32_keyless", [&](SimdLevel l) {
    int64_t best = INT64_MIN, null_count = 0;
    const agg::Slots acc{&best, nullptr, nullptr, &null_count};
    const void* cols[1] = {i32.data()};
    const agg::UpdateFn fn =
        agg::FindUpdate(AggKind::kMax, TypeId::kI32, 1, true, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, nullptr, cols, nulls.data(), &acc);
      }
    });
  }});

  std::printf("\nper-primitive ns/row (%d-row vectors):\n", kN);
  std::printf("%-24s", "primitive");
  for (SimdLevel l : levels) std::printf(" %12s", SimdLevelName(l));
  std::printf(" %10s\n", "speedup");
  for (const Prim& p : prims) {
    std::printf("%-24s", p.name);
    double scalar_ns = 0, best_ns = 0;
    for (SimdLevel l : levels) {
      const double ns = NsPerRow(p.run(l));
      if (l == SimdLevel::kScalar) scalar_ns = ns;
      best_ns = ns;
      std::printf(" %12.3f", ns);
      json.Add(std::string(p.name) + " " + SimdLevelName(l), ns);
    }
    if (levels.size() > 1) {
      std::printf(" %9.2fx", scalar_ns / best_ns);
    } else {
      std::printf(" %10s", "n/a");
    }
    std::printf("\n");
  }

  // ---- grouped aggregation: lookup vs update -------------------------------
  // 256 vectors of i64 keys: 4 groups in long runs (the Q1 shape: direct
  // map, back-to-back rows of one group) and 64k uniform groups (hash
  // lookup, cache-missing accumulators). Each vector folds SUM(f64),
  // SUM(i64) and COUNT(*).
  constexpr int kVecs = 256;
  const Schema key_schema({Field("k", TypeId::kI64)});
  const std::vector<AggKind> gkinds = {AggKind::kSum, AggKind::kSum,
                                       AggKind::kCount};
  const std::vector<TypeId> gtypes = {TypeId::kF64, TypeId::kI64,
                                      TypeId::kI64};
  std::printf("\ngrouped aggregation ns/row (%d x %d-row vectors):\n", kVecs,
              kN);
  std::printf("%-12s %10s %12s %12s\n", "groups", "level", "lookup",
              "update");
  std::vector<uint64_t> checksum(kNumSimdLevels, 0);
  for (const int groups : {4, 65536}) {
    std::vector<std::unique_ptr<Vector>> keys;
    int64_t run_key = 0;
    for (int v = 0; v < kVecs; v++) {
      keys.push_back(std::make_unique<Vector>(TypeId::kI64, kN));
      for (int i = 0; i < kN; i++) {
        if (groups > 4 || rng() % 8 == 0) {
          run_key = static_cast<int64_t>(rng() % groups);
        }
        keys.back()->Data<int64_t>()[i] = run_key;
      }
    }
    std::vector<std::vector<uint32_t>> gids(kVecs,
                                            std::vector<uint32_t>(kN));
    for (SimdLevel l : levels) {
      const agg::UpdateFn sum_f64 =
          agg::FindUpdate(AggKind::kSum, TypeId::kF64, 1, false, l);
      const agg::UpdateFn sum_i64 =
          agg::FindUpdate(AggKind::kSum, TypeId::kI64, 1, false, l);
      const void* f64_col[1] = {f64.data()};
      const void* i64_col[1] = {i64.data()};
      double lookup_s = 1e30, update_s = 1e30;
      std::unique_ptr<GroupTable> table;
      for (int rep = 0; rep < 5; rep++) {
        table = std::make_unique<GroupTable>(key_schema, gkinds, gtypes);
        bench::Timer t;
        for (int v = 0; v < kVecs; v++) {
          std::vector<const Vector*> kv = {keys[v].get()};
          auto direct = table->DirectLookup(kv, kN, nullptr, gids[v].data());
          if (!direct.ok()) std::abort();
          if (*direct) continue;
          hashk::HashColumn(*keys[v], kN, nullptr, hashes.data(), false, l);
          if (!table->Lookup(kv, kN, nullptr, hashes.data(), gids[v].data())
                   .ok()) {
            std::abort();
          }
        }
        lookup_s = std::min(lookup_s, t.Seconds());
        t.Reset();
        for (int v = 0; v < kVecs; v++) {
          const agg::Slots f = table->accum(0).slots();
          const agg::Slots i = table->accum(1).slots();
          sum_f64(kN, nullptr, gids[v].data(), f64_col, nullptr, &f);
          sum_i64(kN, nullptr, gids[v].data(), i64_col, nullptr, &i);
          agg::CountRows(kN, gids[v].data(), table->rows(),
                         table->num_groups());
        }
        update_s = std::min(update_s, t.Seconds());
      }
      // Checksum of the last repetition's table, in group-id order.
      uint64_t h = HashMix(static_cast<uint64_t>(table->num_groups()));
      for (int64_t g = 0; g < table->num_groups(); g++) {
        uint64_t bits;
        std::memcpy(&bits, &table->accum(0).f64[g], sizeof bits);
        h = HashCombine(h, HashInt(table->keys().Col<int64_t>(0)[g]));
        h = HashCombine(h, bits);
        h = HashCombine(h, HashInt(table->accum(1).i64[g]));
        h = HashCombine(h, HashInt(table->rows()[g]));
      }
      checksum[static_cast<int>(l)] =
          HashCombine(checksum[static_cast<int>(l)], h);
      const double rows_total = static_cast<double>(kVecs) * kN;
      const double lookup_ns = lookup_s * 1e9 / rows_total;
      const double update_ns = update_s * 1e9 / rows_total;
      std::printf("%-12d %10s %12.3f %12.3f\n", groups, SimdLevelName(l),
                  lookup_ns, update_ns);
      const std::string base = "grouped_" + std::to_string(groups) + " ";
      json.Add(base + "lookup " + SimdLevelName(l), lookup_ns);
      json.Add(base + "update " + SimdLevelName(l), update_ns);
    }
  }
  // Every level must fold to the same groups and accumulator bits. CI
  // diffs these two lines.
  std::printf("\ngrouped checksum scalar: %016" PRIx64 "\n",
              checksum[static_cast<int>(SimdLevel::kScalar)]);
  std::printf("grouped checksum auto: %016" PRIx64 "\n",
              checksum[static_cast<int>(ResolveSimdLevel(SimdMode::kAuto))]);

  // ---- end-to-end: Q1/Q6 per level vs the Volcano baseline ----------------
  const double sf = 0.02;
  Database db;
  if (!tpch::Generate(&db, sf).ok()) return 1;
  Session session(&db);
  const int64_t rows = (*db.GetTable("lineitem"))->visible_rows();
  std::printf("\nlineitem rows: %lld (SF %.3f), data memory-resident\n\n",
              static_cast<long long>(rows), sf);

  auto vrows = tpch::MaterializeRows(&db, "lineitem");
  if (!vrows.ok()) return 1;

  // Warm the buffer pool once.
  (void)session.Execute(tpch::Q1Plan());

  std::printf("%-10s %14s %14s %14s\n", "query", "level", "time(ms)",
              "ns/tuple");
  const char* names[2] = {"Q1", "Q6"};
  double vec_best[2] = {0, 0};
  for (int q = 0; q < 2; q++) {
    for (SimdLevel l : levels) {
      db.config().simd_level =
          l == SimdLevel::kScalar
              ? SimdMode::kScalar
              : (l == SimdLevel::kAvx2 ? SimdMode::kAvx2 : SimdMode::kNeon);
      const double t = bench::MinTime(3, [&] {
        auto r = session.Execute(q == 0 ? tpch::Q1Plan() : tpch::Q6Plan());
        if (!r.ok()) std::abort();
      });
      vec_best[q] = t;
      std::printf("%-10s %14s %14.2f %14.2f\n", names[q], SimdLevelName(l),
                  t * 1e3, t * 1e9 / rows);
      json.Add(std::string(names[q]) + " vectorized " + SimdLevelName(l),
               t * 1e9 / rows);
    }
  }
  db.config().simd_level = SimdMode::kAuto;
  double vol_t[2];
  vol_t[0] = bench::MinTime(3, [&] {
    auto plan = tpch::Q1Volcano(&*vrows);
    auto r = volcano::Collect(plan->get());
    if (!r.ok()) std::abort();
  });
  vol_t[1] = bench::MinTime(3, [&] {
    auto plan = tpch::Q6Volcano(&*vrows);
    auto r = volcano::Collect(plan->get());
    if (!r.ok()) std::abort();
  });
  for (int q = 0; q < 2; q++) {
    std::printf("%-10s %14s %14.2f %14.2f   (%.1fx vs vectorized)\n",
                names[q], "volcano", vol_t[q] * 1e3, vol_t[q] * 1e9 / rows,
                vol_t[q] / vec_best[q]);
    json.Add(std::string(names[q]) + " volcano", vol_t[q] * 1e9 / rows);
  }
  std::printf("\npaper claim: >10x over conventional engines — measured %s\n",
              vol_t[0] / vec_best[0] > 10 && vol_t[1] / vec_best[1] > 10
                  ? "CONFIRMED"
                  : "see docs/BENCHMARKS.md");

  // ---- Q1's aggregation layer, from the query profile ---------------------
  // HashAgg self time (exclusive of its children) per input row at SF 0.1
  // on one worker: the per-layer figure the grouped-aggregation work is
  // measured by.
  {
    Database db1;
    if (!tpch::Generate(&db1, 0.1).ok()) return 1;
    db1.config().max_parallelism = 1;
    Session s1(&db1);
    (void)s1.Execute(tpch::Q1Plan());  // warm the buffer pool
    std::vector<double> per_row;
    bool found_agg = false;
    for (int r = 0; r < 7; r++) {
      auto res = s1.Execute(tpch::Q1Plan());
      if (!res.ok()) return 1;
      int64_t agg_ns = 0, agg_rows = 0;
      for (const OperatorProfile& p : res->profile.operators) {
        if (p.op == "HashAgg(1)") {
          agg_ns += p.exclusive_ns();
          found_agg = true;
        }
        if (p.op == "Project") agg_rows += p.rows;  // HashAgg's input
      }
      if (agg_rows > 0) per_row.push_back(static_cast<double>(agg_ns) / agg_rows);
    }
    if (!found_agg) {
      std::fprintf(stderr, "Q1 profile has no HashAgg(1) entry\n");
      return 1;
    }
    std::sort(per_row.begin(), per_row.end());
    const double median = per_row.empty() ? 0 : per_row[per_row.size() / 2];
    std::printf("\nQ1 HashAgg self ns/row (SF 0.1, 1 worker, median of %zu): "
                "%.2f\n",
                per_row.size(), median);
    json.Add("Q1 HashAgg self sf0.1 w1", median);
  }
  return json.Write() ? 0 : 1;
}
