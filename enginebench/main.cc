// Engine benchmark: runs one named workload in a closed loop with one client
// thread, checks every answer against the benchmark's own computation, and
// prints the metrics as one JSON object on the last line of stdout.
//
//   engine_bench --workload analytic-hot --seed 1 --seconds 15 --trace 0
//       --scratch <dir> [--spans <file>]
//
// --trace 0 drives the engine through whole-statement calls (Session) and
// reports the end-to-end metrics. --trace 1 replaces them with the
// decomposed public calls (ParseSql, CrossCompiler::Compile, Rewriter,
// QueryExecutor::Build, QueryExecutor::RunRewritten), records a span around
// each, adds the QueryProfile entries as child spans of the execute span,
// and reports the per-layer metrics. README.md lists both sets.
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "engine/session.h"
#include "frontend/frontend.h"
#include "reference.h"
#include "rewriter/rewriter.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace enginebench {
namespace {

using namespace x100;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// CPU time of the whole process (every thread), in seconds. The timed
/// figures the benchmark bounds are CPU times, not wall times: on a shared
/// virtual machine the hypervisor takes CPU time away in stretches of
/// minutes (the `steal` column of /proc/stat), and a wall time moves with
/// it by far more than any bound a change could be held to (README.md,
/// "Why CPU time"). Time the hypervisor steals is not counted as CPU time.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/// Largest resident set of the process while it runs: a thread reads
/// /proc/self/statm every 10 ms. The process-wide high-water mark
/// (ru_maxrss) would include set-up and the reference pass. Each sample
/// wakes a CPU: at one sample a millisecond the hypervisor's CPU steal over
/// a run about doubled on a shared 4-vCPU virtual machine (README.md), while
/// 10 ms still catches the memory peak of every statement, each of which
/// runs hundreds of times in a run.
class RssSampler {
 public:
  RssSampler() : fd_(open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
    Sample();
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        Sample();
      }
    });
  }
  ~RssSampler() { Stop(); }

  /// Stops sampling and returns the peak in MB (0 where statm is missing).
  double Stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      Sample();
    }
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    return peak_pages_ * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
  }

 private:
  void Sample() {
    char buf[128];
    const ssize_t n = fd_ < 0 ? -1 : pread(fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return;
    buf[n] = 0;
    unsigned long size = 0, resident = 0;
    if (std::sscanf(buf, "%lu %lu", &size, &resident) == 2) {
      peak_pages_ = std::max<int64_t>(peak_pages_, resident);
    }
  }

  int fd_;
  int64_t peak_pages_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// CPU time the hypervisor gave to other guests while this virtual machine
/// had work (the `steal` column of /proc/stat), in seconds; -1 where the
/// kernel does not report it.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  return n == 8 ? t[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : -1;
}

/// Time of a fixed integer loop: printed next to the results as a reading
/// of how fast this host runs at the moment, not as a metric.
double CalibrationSeconds() {
  const auto t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100000000; i++) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const double s = NsSince(t0) * 1e-9;
  if (x == 42) std::fprintf(stderr, "calibration sink\n");
  return s;
}

enum class Query { kQ1, kQ3, kQ6, kJoinAgg, kCount };
constexpr Query kAllQueries[] = {Query::kQ1, Query::kQ3, Query::kQ6,
                                 Query::kJoinAgg, Query::kCount};

const char* QueryName(Query q) {
  switch (q) {
    case Query::kQ1: return "q1";
    case Query::kQ3: return "q3";
    case Query::kQ6: return "q6";
    case Query::kJoinAgg: return "joinagg";
    case Query::kCount: return "count";
  }
  return "?";
}

constexpr const char* kCountSql = "SELECT COUNT(*) FROM lineitem";
constexpr const char* kOverflowGroupedSql =
    "SELECT g, SUM(v) AS s FROM ovf GROUP BY g";
constexpr const char* kOverflowKeylessSql = "SELECT SUM(v) AS s FROM ovf";
constexpr const char* kOverflowMapSql = "SELECT v + v AS w FROM ovf";

/// The E8 join+agg: orders ⋈ lineitem, revenue and items per priority.
AlgebraPtr JoinAggPlan() {
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

/// The algebra plan of an analytic statement; nullptr for COUNT(*), which
/// goes through SQL.
AlgebraPtr QueryPlan(Query q) {
  switch (q) {
    case Query::kQ1: return tpch::Q1Plan(kQ1DeltaDays);
    case Query::kQ3: return tpch::Q3Plan(kQ3Segment);
    case Query::kQ6: return tpch::Q6Plan(kQ6Year);
    case Query::kJoinAgg: return JoinAggPlan();
    case Query::kCount: return nullptr;
  }
  return nullptr;
}

// The serving traffic, the same on every workload. README.md gives the
// source of each value.
constexpr int kWindow = 4;             // lookups in flight: at most nproc
constexpr int kAdHocPerWindow = 1;     // the frontend runs in every window
constexpr int kHotKeys = 32;           // one shard of the default plan cache
constexpr double kZipfTheta = 0.99;    // YCSB's Zipfian constant
constexpr int kWindowsPerWrite = 5;    // 20 reads per write: YCSB B and D
constexpr int kCheckpointEvery = 4;    // commits: 2 updates, 2 appends
constexpr int kIntervalsPerCycle = 2;  // append, then delete the same rows
constexpr int kSetupReps = 5;
constexpr int kMinPointSamples = 1000;  // ten samples beyond the p99
constexpr int kMinCheckpoints = 3;

// Data, the same on every workload: TPC-H at this scale factor and the
// keyed table kv, sized so every checkpoint rewrites three of its groups.
constexpr double kScaleFactor = 0.1;
constexpr int64_t kKvRows = 16384;
constexpr int64_t kKvGroupRows = 1024;

/// One workload: where the data lives, how big the pool and memory limit
/// are against it, and how many analytic rotations one cycle runs.
struct Spec {
  const char* name;
  bool durable;               // tables and spill files on the file store
  int64_t pool_bytes;         // buffer pool capacity
  int64_t bandwidth;          // modelled device channel, bytes/s (0 = none)
  int64_t memory_limit;       // query memory budget (0 = unlimited)
  std::vector<Query> analytic;  // one rotation, each run alone, in order
  bool overflow_probe;        // grouped + keyless SUM over ovf, each rotation
  int rotations;              // analytic rotations per cycle
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"analytic-hot", false, 1ll << 30, 0, 0,
       {Query::kQ1, Query::kQ3, Query::kQ6, Query::kJoinAgg, Query::kCount},
       true, 12},
      {"cold-spill", true, 8ll << 20, 400ll * 1000 * 1000, 8ll << 20,
       {Query::kQ6, Query::kQ1, Query::kJoinAgg, Query::kQ3, Query::kCount},
       false, 3},
  };
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string scratch;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->scratch.empty();
}

/// Public counters of every layer, read around operations.
struct Counters {
  int64_t pool_hits = 0, pool_misses = 0, evictions = 0, sf_waits = 0;
  int64_t pf_issued = 0, pf_hits = 0, pf_wasted = 0;
  int64_t dev_read = 0, dev_written = 0, spill_written = 0, spill_read = 0;
  int64_t tasks = 0, steals = 0, cache_hits = 0, rebalances = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.pool_hits = pool_hits - o.pool_hits;
    d.pool_misses = pool_misses - o.pool_misses;
    d.evictions = evictions - o.evictions;
    d.sf_waits = sf_waits - o.sf_waits;
    d.pf_issued = pf_issued - o.pf_issued;
    d.pf_hits = pf_hits - o.pf_hits;
    d.pf_wasted = pf_wasted - o.pf_wasted;
    d.dev_read = dev_read - o.dev_read;
    d.dev_written = dev_written - o.dev_written;
    d.spill_written = spill_written - o.spill_written;
    d.spill_read = spill_read - o.spill_read;
    d.tasks = tasks - o.tasks;
    d.steals = steals - o.steals;
    d.cache_hits = cache_hits - o.cache_hits;
    d.rebalances = rebalances - o.rebalances;
    return d;
  }

  Counters& operator+=(const Counters& o) {
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    evictions += o.evictions;
    sf_waits += o.sf_waits;
    pf_issued += o.pf_issued;
    pf_hits += o.pf_hits;
    pf_wasted += o.pf_wasted;
    dev_read += o.dev_read;
    dev_written += o.dev_written;
    spill_written += o.spill_written;
    spill_read += o.spill_read;
    tasks += o.tasks;
    steals += o.steals;
    cache_hits += o.cache_hits;
    rebalances += o.rebalances;
    return *this;
  }
};

/// Self time per exec layer, summed over QueryProfile instances.
enum ExecLayer { kScan, kSelect, kProject, kAgg, kJoinBuild, kJoinProbe,
                 kSort, kOther, kNumExecLayers };

ExecLayer ClassifyOperator(const std::string& op) {
  auto starts = [&](const char* p) { return op.rfind(p, 0) == 0; };
  if (starts("Scan")) return kScan;
  if (starts("Select")) return kSelect;
  if (starts("Project")) return kProject;
  if (starts("HashAgg") || starts("ParallelHashAgg") || starts("Agg")) {
    return kAgg;
  }
  if (starts("JoinBuild") || starts("HashJoin")) return kJoinBuild;
  if (starts("JoinProbe") || starts("JoinPair")) return kJoinProbe;
  if (starts("Sort") || starts("TopN") || starts("ParallelSort") ||
      starts("ParallelTopN")) {
    return kSort;
  }
  return kOther;
}

/// Totals the traced run turns into per-layer metrics.
struct LayerTotals {
  int64_t parse_ns = 0, compile_ns = 0, rewrite_ns = 0, build_ns = 0;
  int64_t exec_ns = 0;
  int64_t layer_ns[kNumExecLayers] = {};
  int64_t rows_scanned = 0;
  int64_t point_rows_scanned = 0, point_groups_skipped = 0;
  int64_t queries_with_sort = 0;
  std::vector<double> begin_us, commit_us;
  int64_t checkpoint_bytes = 0, dirty_groups = 0;
  double checkpoint_s = 0;
  // Counter deltas of the analytic statements alone (RunQuery), which the
  // storage, spill and scheduler per-query figures divide.
  Counters analytic;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Spec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        tracer_(args.trace),
        workers_(std::max(
            1, std::min(4, static_cast<int>(
                               std::thread::hardware_concurrency())))) {}

  int Main();

 private:
  EngineConfig Config(const std::string& data_dir) const;
  Status SetUp(const std::string& data_dir, double* generate_s,
               double* warm_s);
  Status CreateTables(Database* db);
  Status Warm();
  void RunCycle();
  void RunQuery(Query q);
  void RunProbe(const char* sql);
  void RunWindow();
  void RunWrite(bool grow);
  void RunCheckpoint();
  void CheckProperties(const char* after);
  void FinalChecks();
  void Fail(const std::string& why);

  Result<QueryResult> RunDecomposed(const std::string& sql, AlgebraPtr plan,
                                    const std::string& label, int64_t span,
                                    int64_t op);
  int64_t TimeBuild(const AlgebraPtr& plan, int64_t span, int64_t op);
  Result<AlgebraPtr> Compile(const std::string& sql, int64_t span,
                             int64_t op);
  void AddProfile(const QueryProfile& p, int64_t span, int64_t op,
                  bool point);
  Counters Snapshot();
  void AddCounters(int64_t span, const Counters& before);
  void ChooseDirtyGroups();
  std::string PointSql(int64_t key) const {
    return "SELECT a, b FROM kv WHERE k = " + std::to_string(key);
  }
  std::string Pad(int64_t key) const {
    return "kv-payload-" + std::to_string(key * 7919 % 1000003);
  }
  size_t HotKeyIndex();
  void CheckPoint(const Result<QueryResult>& r, int64_t key);
  std::vector<Metric> EndToEndMetrics(double cpu_s, double peak_rss_mb) const;
  std::vector<Metric> WallMetrics(double loop_s) const;
  std::vector<Metric> LayerMetrics(double loop_s, double cpu_s,
                                   const Counters& delta) const;

  const Spec& spec_;
  const Args& args_;
  Tracer tracer_;
  const int workers_;
  std::mt19937_64 rng_;
  Reference ref_;
  std::string data_dir_, spill_dir_;

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  UpdatableTable* kv_ = nullptr;
  std::vector<int64_t> hot_keys_;
  std::vector<double> hot_cdf_;
  std::vector<std::string> hot_sql_;

  // The keyed table as the benchmark expects it: column `a` per key (b and
  // pad are functions of the key), live and as of the last checkpoint.
  std::vector<int64_t> shadow_a_;
  std::vector<int64_t> durable_a_;
  std::vector<int64_t> update_groups_;  // one per update of the interval
  int interval_writes_ = 0;

  bool correct_ = true;
  int64_t attempted_ = 0, failed_ = 0, op_id_ = 0;
  // Set-up and operation costs: process CPU time (bounded metrics) and
  // wall time (printed, and reported by the traced run).
  std::vector<double> setup_s_, generate_s_, warm_s_, setup_wall_s_;
  std::vector<double> query_cpu_ms_[5], query_ms_[5];
  std::vector<double> point_cpu_us_, point_us_;  // CPU per window / kWindow
  std::vector<double> commit_cpu_us_, commit_us_;
  std::vector<double> checkpoint_cpu_ms_, checkpoint_s_;
  // Loop time per kind of operation, printed as shares of the loop.
  int64_t analytic_ns_ = 0, window_ns_ = 0, write_ns_ = 0,
          checkpoint_ns_ = 0;
  LayerTotals layers_;
};

EngineConfig Bench::Config(const std::string& data_dir) const {
  EngineConfig cfg;
  cfg.scheduler_workers = workers_;
  cfg.max_parallelism = workers_;
  cfg.buffer_pool_bytes = spec_.pool_bytes;
  cfg.disk_bandwidth = spec_.bandwidth;
  cfg.memory_limit = spec_.memory_limit;
  cfg.data_path = data_dir;
  cfg.spill_path = spec_.durable ? spill_dir_ : "";
  return cfg;
}

Status Bench::CreateTables(Database* db) {
  std::mt19937_64 data_rng(args_.seed * 1000003 + 17);
  auto kv = db->CreateTable(
      "kv",
      Schema({Field("k", TypeId::kI64), Field("a", TypeId::kI64),
              Field("b", TypeId::kF64), Field("pad", TypeId::kStr)}),
      Layout::kDsm, kKvGroupRows);
  shadow_a_.assign(kKvRows, 0);
  for (int64_t k = 0; k < kKvRows; k++) {
    shadow_a_[k] = static_cast<int64_t>(data_rng() % 1000000);
    X100_RETURN_IF_ERROR(kv->AppendRow({Value::I64(k), Value::I64(shadow_a_[k]),
                                        Value::F64(k * 0.25),
                                        Value::Str(Pad(k))}));
  }
  std::unique_ptr<Table> kv_table;
  X100_ASSIGN_OR_RETURN(kv_table, kv->Finish());
  X100_ASSIGN_OR_RETURN(kv_, db->RegisterTable(std::move(kv_table)));
  durable_a_ = shadow_a_;

  // ovf: SUM(v) exceeds INT64_MAX both per group and over the whole
  // table; the true sums are 2^63, 2^63 + 8 and 2^64 + 8.
  auto ovf = db->CreateTable(
      "ovf", Schema({Field("g", TypeId::kI64), Field("v", TypeId::kI64)}),
      Layout::kDsm);
  const int64_t big = int64_t{1} << 62;
  for (auto [g, v] : std::vector<std::pair<int64_t, int64_t>>{
           {1, big}, {1, big}, {2, big}, {2, big}, {2, 8}}) {
    X100_RETURN_IF_ERROR(ovf->AppendRow({Value::I64(g), Value::I64(v)}));
  }
  std::unique_ptr<Table> ovf_table;
  X100_ASSIGN_OR_RETURN(ovf_table, ovf->Finish());
  return db->RegisterTable(std::move(ovf_table)).status();
}

Status Bench::SetUp(const std::string& data_dir, double* generate_s,
                    double* warm_s) {
  session_.reset();
  db_.reset();
  const double cpu0 = CpuSeconds();
  db_ = std::make_unique<Database>(Config(data_dir));
  X100_RETURN_IF_ERROR(db_->open_status());
  X100_RETURN_IF_ERROR(tpch::Generate(db_.get(), kScaleFactor));
  X100_RETURN_IF_ERROR(CreateTables(db_.get()));
  session_ = std::make_unique<Session>(db_.get());
  const double cpu1 = CpuSeconds();
  *generate_s = cpu1 - cpu0;
  X100_RETURN_IF_ERROR(Warm());
  *warm_s = CpuSeconds() - cpu1;
  return Status::OK();
}

/// Runs every read statement once so plans are cached and lazy set-up is
/// done before timing.
Status Bench::Warm() {
  for (Query q : kAllQueries) {
    AlgebraPtr plan = QueryPlan(q);
    X100_RETURN_IF_ERROR((plan ? session_->Execute(std::move(plan))
                               : session_->ExecuteSql(kCountSql))
                             .status());
  }
  for (const std::string& sql : hot_sql_) {
    PreparedStatement stmt;
    X100_ASSIGN_OR_RETURN(stmt, session_->Prepare(sql));
    X100_RETURN_IF_ERROR(session_->ExecutePrepared(stmt).status());
  }
  X100_RETURN_IF_ERROR(session_->ExecuteSql(PointSql(0)).status());
  // The probe's premise: per-row arithmetic on these rows does report
  // overflow, so a wrapped SUM is the aggregate's fault alone.
  auto map = session_->ExecuteSql(kOverflowMapSql);
  if (map.ok() || !map.status().IsOverflow()) {
    return Status::Internal("v + v over ovf did not report overflow");
  }
  if (spec_.overflow_probe) {
    (void)session_->ExecuteSql(kOverflowGroupedSql);
    (void)session_->ExecuteSql(kOverflowKeylessSql);
  }
  return Status::OK();
}

void Bench::Fail(const std::string& why) {
  if (correct_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  correct_ = false;
}

Counters Bench::Snapshot() {
  Counters c;
  BufferManager* bm = db_->buffers();
  c.pool_hits = bm->hits();
  c.pool_misses = bm->misses();
  c.evictions = bm->evictions();
  c.sf_waits = bm->single_flight_waits();
  c.pf_hits = bm->prefetch_hits();
  c.pf_wasted = bm->prefetch_wasted();
  c.pf_issued = bm->prefetch_issued();
  c.dev_read = bm->device()->bytes_read();
  c.dev_written = bm->device()->bytes_written();
  auto spill = db_->spill_device();
  if (spill.ok()) {
    c.spill_written = (*spill)->spill_bytes_written();
    c.spill_read = (*spill)->spill_bytes_read();
  }
  c.tasks = db_->scheduler()->tasks_run();
  c.steals = db_->scheduler()->tasks_stolen();
  c.cache_hits = db_->plan_cache()->hits();
  c.rebalances = db_->quota_controller()->rebalances();
  return c;
}

void Bench::AddCounters(int64_t span, const Counters& before) {
  if (!tracer_.on()) return;
  const Counters d = Snapshot() - before;
  tracer_.AddCounter(span, "pool_hits", d.pool_hits);
  tracer_.AddCounter(span, "pool_misses", d.pool_misses);
  tracer_.AddCounter(span, "device_bytes_read", d.dev_read);
  tracer_.AddCounter(span, "device_bytes_written", d.dev_written);
  tracer_.AddCounter(span, "spill_bytes_written", d.spill_written);
  tracer_.AddCounter(span, "tasks", d.tasks);
  tracer_.AddCounter(span, "plan_cache_hits", d.cache_hits);
}

void Bench::CheckProperties(const char* after) {
  const std::string where = std::string(" after ") + after;
  if (db_->memory()->used() != 0) {
    Fail("memory tracker holds " + std::to_string(db_->memory()->used()) +
         " bytes" + where);
  }
  BufferManager* bm = db_->buffers();
  const int64_t cached = bm->bytes_cached();
  if (cached > bm->capacity_bytes() + bm->pinned_bytes()) {
    Fail("buffer pool caches " + std::to_string(cached) +
         " bytes, over capacity + pinned" + where);
  }
  auto spill = db_->spill_device();
  if (!spill.ok()) {
    Fail("spill device unavailable" + where);
  } else if ((*spill)->spill_bytes_in_use() != 0) {
    Fail(std::to_string((*spill)->spill_bytes_in_use()) +
         " spill bytes still in use" + where);
  }
  // Read the outcomes before the issue count: both only grow, so a
  // concurrent prefetch cannot make a correct pool look wrong.
  const int64_t hits = bm->prefetch_hits(), wasted = bm->prefetch_wasted();
  const int64_t issued = bm->prefetch_issued();
  if (hits + wasted > issued) {
    Fail("prefetch hits + wasted exceed issued" + where);
  }
}

Result<AlgebraPtr> Bench::Compile(const std::string& sql, int64_t span,
                                  int64_t op) {
  int64_t s = tracer_.Begin("frontend.parse", span, op);
  auto rel = ParseSql(sql);
  layers_.parse_ns += tracer_.End(s);
  X100_RETURN_IF_ERROR(rel.status());
  s = tracer_.Begin("frontend.compile", span, op);
  Database* db = db_.get();
  CrossCompiler compiler([db](const std::string& name) -> Result<Schema> {
    UpdatableTable* t;
    X100_ASSIGN_OR_RETURN(t, db->GetTable(name));
    return t->base()->schema();
  });
  auto plan = compiler.Compile(*rel);
  layers_.compile_ns += tracer_.End(s);
  return plan;
}

/// Times QueryExecutor::Build on its own; the operators are dropped
/// unopened. RunRewritten builds again, and its time minus this one is the
/// execute time.
int64_t Bench::TimeBuild(const AlgebraPtr& plan, int64_t span, int64_t op) {
  const int64_t s = tracer_.Begin("engine.build", span, op);
  {
    ExecContext ctx;
    ctx.scheduler = db_->scheduler();
    auto built = session_->executor()->Build(plan, &ctx);
    if (!built.ok()) Fail("build failed: " + built.status().ToString());
  }
  const int64_t ns = tracer_.End(s);
  layers_.build_ns += ns;
  return ns;
}

void Bench::AddProfile(const QueryProfile& p, int64_t span, int64_t op,
                       bool point) {
  bool sorted = false;
  for (const OperatorProfile& e : p.operators) {
    const int64_t ns = e.exclusive_ns();
    tracer_.AddChild(e.op, span, op, ns);
    const ExecLayer layer = ClassifyOperator(e.op);
    layers_.layer_ns[layer] += ns;
    sorted |= layer == kSort;
  }
  layers_.queries_with_sort += sorted;
  layers_.rows_scanned += p.tuples_scanned;
  if (point) {
    layers_.point_rows_scanned += p.tuples_scanned;
    layers_.point_groups_skipped += p.groups_skipped;
  }
}

Result<QueryResult> Bench::RunDecomposed(const std::string& sql,
                                         AlgebraPtr plan,
                                         const std::string& label,
                                         int64_t span, int64_t op) {
  if (!sql.empty()) X100_ASSIGN_OR_RETURN(plan, Compile(sql, span, op));
  int64_t s = tracer_.Begin("rewriter.rewrite", span, op);
  Rewriter rewriter;
  auto rewritten = rewriter.Rewrite(std::move(plan));
  layers_.rewrite_ns += tracer_.End(s);
  X100_RETURN_IF_ERROR(rewritten.status());
  const int64_t build_ns = TimeBuild(*rewritten, span, op);
  s = tracer_.Begin("engine.execute", span, op);
  auto r = session_->executor()->RunRewritten(*rewritten, label);
  const int64_t run_ns = tracer_.End(s);
  layers_.exec_ns += std::max<int64_t>(0, run_ns - build_ns);
  if (r.ok()) AddProfile(r->profile, s, op, /*point=*/false);
  return r;
}

void Bench::RunQuery(Query q) {
  const int64_t op = op_id_++;
  attempted_++;
  const int64_t span = tracer_.Begin(std::string("op.") + QueryName(q), -1, op);
  const Counters before = tracer_.on() ? Snapshot() : Counters();
  AlgebraPtr plan = QueryPlan(q);
  const std::string sql = plan ? "" : kCountSql;
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  Result<QueryResult> r =
      tracer_.on() ? RunDecomposed(sql, plan, QueryName(q), span, op)
      : sql.empty() ? session_->Execute(plan)
                    : session_->ExecuteSql(sql);
  const int64_t ns = NsSince(t0);
  query_cpu_ms_[static_cast<int>(q)].push_back((CpuSeconds() - cpu0) * 1e3);
  query_ms_[static_cast<int>(q)].push_back(ns * 1e-6);
  analytic_ns_ += ns;
  tracer_.End(span);
  AddCounters(span, before);
  if (tracer_.on()) layers_.analytic += Snapshot() - before;
  if (!r.ok()) {
    failed_++;
    Fail(std::string(QueryName(q)) + " failed: " + r.status().ToString());
    return;
  }
  const Rows* want = nullptr;
  switch (q) {
    case Query::kQ1: want = &ref_.q1; break;
    case Query::kQ3: want = &ref_.q3; break;
    case Query::kQ6: want = &ref_.q6; break;
    case Query::kJoinAgg: want = &ref_.joinagg; break;
    case Query::kCount: want = &ref_.count; break;
  }
  // Q3 is ordered by revenue, a double the engine sums in its own order:
  // rows whose revenues tie within the tolerance may come in either order.
  std::string why;
  const bool same = q == Query::kQ3
                        ? SameRowsUpToTies(*r, *want, kQ3RevenueColumn, &why)
                        : SameRows(*r, *want, /*sort_before_compare=*/false,
                                   &why);
  if (!same) {
    Fail(std::string(QueryName(q)) + " answer differs from reference: " + why);
  }
  CheckProperties(QueryName(q));
}

/// The overflow probe passes when the engine reports the overflow; a
/// wrapped sum (or any other outcome) counts the operation as failed.
void Bench::RunProbe(const char* sql) {
  const int64_t op = op_id_++;
  attempted_++;
  const int64_t span = tracer_.Begin("op.overflow_probe", -1, op);
  const auto t0 = Clock::now();
  auto r = tracer_.on() ? RunDecomposed(sql, nullptr, sql, span, op)
                        : session_->ExecuteSql(sql);
  analytic_ns_ += NsSince(t0);
  tracer_.End(span);
  if (!r.ok() && r.status().IsOverflow()) return;
  failed_++;
  static bool logged[2] = {false, false};
  const bool grouped = std::strcmp(sql, kOverflowGroupedSql) == 0;
  if (!logged[grouped]) {
    logged[grouped] = true;
    std::fprintf(stderr, "overflow probe failed (%s): %s\n", sql,
                 r.ok() ? ("returned " + std::to_string(r->rows.size()) +
                           " row(s), first " +
                           (r->rows.empty() ? std::string("-")
                                            : r->rows[0].back().ToString()))
                              .c_str()
                        : r.status().ToString().c_str());
  }
  CheckProperties("overflow probe");
}

size_t Bench::HotKeyIndex() {
  const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
  const size_t i = std::lower_bound(hot_cdf_.begin(), hot_cdf_.end(), u) -
                   hot_cdf_.begin();
  return std::min(i, hot_keys_.size() - 1);
}

void Bench::CheckPoint(const Result<QueryResult>& r, int64_t key) {
  if (!r.ok()) {
    failed_++;
    Fail("point lookup k=" + std::to_string(key) +
         " failed: " + r.status().ToString());
    return;
  }
  const int64_t want_a = shadow_a_[key];
  if (r->rows.size() != 1 || r->rows[0].size() != 2 ||
      r->rows[0][0].AsI64() != want_a ||
      r->rows[0][1].AsF64() != key * 0.25) {
    Fail("point lookup k=" + std::to_string(key) + " returned " +
         std::to_string(r->rows.size()) + " row(s), want a=" +
         std::to_string(want_a));
  }
}

/// kWindow lookups submitted together (in flight at once, at most the
/// worker count), then collected in submission order.
void Bench::RunWindow() {
  struct InFlight {
    PendingQuery query;
    int64_t key;
    Clock::time_point t0;
    int64_t op, span, exec_span, build_ns;
  };
  std::vector<InFlight> window;
  const double cpu0 = CpuSeconds();
  const auto window_t0 = Clock::now();
  const int64_t rows = static_cast<int64_t>(shadow_a_.size());
  const Counters before = tracer_.on() ? Snapshot() : Counters();
  const int64_t window_span = tracer_.Begin("op.window", -1, op_id_);
  for (int i = 0; i < kWindow; i++) {
    InFlight f{};
    f.op = op_id_++;
    attempted_++;
    const bool prepared = i < kWindow - kAdHocPerWindow;
    const size_t hot = prepared ? HotKeyIndex() : 0;
    f.key = prepared
                ? hot_keys_[hot]
                : std::uniform_int_distribution<int64_t>(0, rows - 1)(rng_);
    const std::string sql = prepared ? hot_sql_[hot] : PointSql(f.key);
    f.span = tracer_.Begin(prepared ? "op.point_prepared" : "op.point_adhoc",
                           window_span, f.op);
    f.t0 = Clock::now();
    Result<PendingQuery> pq = Status::Internal("not submitted");
    if (!tracer_.on()) {
      if (prepared) {
        auto stmt = session_->Prepare(sql);
        pq = stmt.ok() ? session_->Submit(*stmt)
                       : Result<PendingQuery>(stmt.status());
      } else {
        pq = session_->SubmitSql(sql);
      }
    } else {
      PreparedStatement stmt;
      if (prepared) {
        const int64_t s =
            tracer_.Begin("engine.plan_cache_lookup", f.span, f.op);
        stmt = db_->plan_cache()->Lookup(sql, db_->catalog_version());
        tracer_.End(s);
        if (stmt == nullptr) {
          auto p = session_->Prepare(sql);
          if (p.ok()) stmt = *p;
        }
      } else {
        auto plan = Compile(sql, f.span, f.op);
        if (plan.ok()) {
          const int64_t s = tracer_.Begin("rewriter.rewrite", f.span, f.op);
          Rewriter rewriter;
          auto rewritten = rewriter.Rewrite(std::move(*plan));
          layers_.rewrite_ns += tracer_.End(s);
          if (rewritten.ok()) {
            auto p = std::make_shared<PreparedPlan>();
            p->sql = sql;
            p->rewritten = std::move(*rewritten);
            p->stats = rewriter.stats();
            p->catalog_version = db_->catalog_version();
            stmt = std::move(p);
          }
        }
      }
      if (stmt == nullptr) {
        pq = Status::Internal("could not plan " + sql);
      } else {
        f.build_ns = TimeBuild(stmt->rewritten, f.span, f.op);
        f.exec_span = tracer_.Begin("engine.execute", f.span, f.op);
        pq = session_->Submit(stmt);
      }
    }
    if (!pq.ok()) {
      failed_++;
      Fail("point lookup submit failed: " + pq.status().ToString());
      tracer_.End(f.span);
      continue;
    }
    f.query = *pq;
    window.push_back(std::move(f));
  }
  for (InFlight& f : window) {
    auto r = f.query.Wait();
    point_us_.push_back(NsSince(f.t0) * 1e-3);
    if (tracer_.on()) {
      tracer_.End(f.exec_span);
      if (r.ok()) {
        layers_.exec_ns +=
            std::max<int64_t>(0, r->profile.wall_ns - f.build_ns);
        AddProfile(r->profile, f.exec_span, f.op, /*point=*/true);
      }
      tracer_.End(f.span);
    }
    CheckPoint(r, f.key);
  }
  window_ns_ += NsSince(window_t0);
  point_cpu_us_.push_back((CpuSeconds() - cpu0) * 1e6 / kWindow);
  tracer_.End(window_span);
  AddCounters(window_span, before);
  CheckProperties("point window");
}

/// Picks the row groups this checkpoint interval updates: one distinct
/// group per update, never the last group, which the appends and deletes
/// dirty. Every checkpoint then rewrites the same number of groups.
void Bench::ChooseDirtyGroups() {
  const int64_t groups = kKvRows / kKvGroupRows;
  std::vector<int64_t> all(groups - 1);
  for (int64_t g = 0; g + 1 < groups; g++) all[g] = g;
  std::shuffle(all.begin(), all.end(), rng_);
  all.resize(kCheckpointEvery / 2);
  update_groups_ = all;
  interval_writes_ = 0;
}

/// One write transaction, Begin through Commit. Updates of `a` alternate
/// with a change at the end of the table: an append when `grow`, else the
/// deletion of the last row. An interval that appends is followed by one
/// that deletes the same number of rows, so the table returns to its size
/// every cycle and the cost of a write or checkpoint does not grow with
/// the length of the run.
void Bench::RunWrite(bool grow) {
  const int64_t op = op_id_++;
  attempted_++;
  const bool update = interval_writes_ % 2 == 0;
  const int64_t span = tracer_.Begin(
      update ? "op.update" : grow ? "op.append" : "op.delete", -1, op);
  int64_t key = static_cast<int64_t>(shadow_a_.size()) - (grow ? 0 : 1);
  if (update) {
    const int64_t g = update_groups_[interval_writes_ / 2];
    key = g * kKvGroupRows +
          std::uniform_int_distribution<int64_t>(0, kKvGroupRows - 1)(
              rng_);
  }
  const int64_t a = static_cast<int64_t>(rng_() % 1000000);
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  int64_t s = tracer_.Begin("pdt.begin", span, op);
  std::unique_ptr<Transaction> txn = db_->txn_manager()->Begin(kv_);
  const int64_t begin_ns = tracer_.End(s);
  Status st = update ? txn->Update(key, 1, Value::I64(a))
              : grow ? txn->Append({Value::I64(key), Value::I64(a),
                                    Value::F64(key * 0.25),
                                    Value::Str(Pad(key))})
                     : txn->Delete(key);
  const auto t1 = Clock::now();
  s = tracer_.Begin("pdt.commit", span, op);
  if (st.ok()) st = db_->txn_manager()->Commit(txn.get());
  tracer_.End(s);
  const int64_t commit_ns = NsSince(t1);
  const int64_t write_ns = NsSince(t0);
  commit_cpu_us_.push_back((CpuSeconds() - cpu0) * 1e6);
  commit_us_.push_back(write_ns * 1e-3);
  write_ns_ += write_ns;
  tracer_.End(span);
  if (tracer_.on()) {
    layers_.begin_us.push_back(begin_ns * 1e-3);
    layers_.commit_us.push_back(commit_ns * 1e-3);
  }
  interval_writes_++;
  if (!st.ok()) {
    failed_++;
    Fail("write transaction failed: " + st.ToString());
    return;
  }
  if (update) {
    shadow_a_[key] = a;
  } else if (grow) {
    shadow_a_.push_back(a);
  } else {
    shadow_a_.pop_back();
  }
  CheckProperties("write transaction");
}

/// Database::Checkpoint of the keyed table. Always runs between windows,
/// so no query is in flight (the quiesce contract of
/// TransactionManager::Checkpoint).
void Bench::RunCheckpoint() {
  const int64_t op = op_id_++;
  attempted_++;
  const int64_t span = tracer_.Begin("op.checkpoint", -1, op);
  const Counters before = Snapshot();
  std::vector<BlockId> old_ids = kv_->base()->CollectBlockIds();
  const std::unordered_set<BlockId> old_blocks(old_ids.begin(), old_ids.end());
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  const Status st = db_->Checkpoint("kv");
  const int64_t ns = NsSince(t0);
  checkpoint_cpu_ms_.push_back((CpuSeconds() - cpu0) * 1e3);
  const double secs = ns * 1e-9;
  checkpoint_s_.push_back(secs);
  checkpoint_ns_ += ns;
  tracer_.End(span);
  AddCounters(span, before);
  if (!st.ok()) {
    failed_++;
    Fail("checkpoint failed: " + st.ToString());
    return;
  }
  const Table* base = kv_->base();
  int64_t dirty = 0;
  for (int g = 0; g < base->num_groups(); g++) {
    std::vector<BlockId> ids;
    Table::AppendGroupBlockIds(base->group(g), &ids);
    dirty += std::any_of(ids.begin(), ids.end(), [&](BlockId id) {
      return old_blocks.count(id) == 0;
    });
  }
  layers_.dirty_groups += dirty;
  layers_.checkpoint_s += secs;
  layers_.checkpoint_bytes += (Snapshot() - before).dev_written;
  durable_a_ = shadow_a_;
  ChooseDirtyGroups();
  CheckProperties("checkpoint");
}

/// One cycle: the analytic rotations, each statement run alone, then two
/// checkpoint intervals of point-lookup windows and writes, the first
/// appending rows and the second deleting them.
void Bench::RunCycle() {
  for (int r = 0; r < spec_.rotations; r++) {
    for (Query q : spec_.analytic) RunQuery(q);
    if (spec_.overflow_probe) {
      RunProbe(kOverflowGroupedSql);
      RunProbe(kOverflowKeylessSql);
    }
  }
  for (int interval = 0; interval < kIntervalsPerCycle; interval++) {
    for (int c = 0; c < kCheckpointEvery; c++) {
      for (int w = 0; w < kWindowsPerWrite; w++) RunWindow();
      RunWrite(/*grow=*/interval == 0);
    }
    RunCheckpoint();
  }
}

/// After the loop: the committed image equals the shadow; a durable store
/// reopened from its files holds exactly the image of the last checkpoint
/// (later commits live only in memory); no engine file is left behind.
void Bench::FinalChecks() {
  auto check_kv = [&](Session* s, const std::vector<int64_t>& want,
                      const char* what) {
    auto r = s->ExecuteSql("SELECT k, a, b FROM kv");
    if (!r.ok()) {
      Fail(std::string(what) + ": scan failed: " + r.status().ToString());
      return;
    }
    Rows rows;
    for (size_t k = 0; k < want.size(); k++) {
      rows.push_back({Value::I64(static_cast<int64_t>(k)), Value::I64(want[k]),
                      Value::F64(k * 0.25)});
    }
    std::string why;
    if (!SameRows(*r, rows, /*sort_before_compare=*/true, &why)) {
      Fail(std::string(what) + ": " + why);
    }
  };
  check_kv(session_.get(), shadow_a_, "committed kv image");
  const EngineConfig cfg = db_->config();
  session_.reset();
  db_.reset();
  if (spec_.durable) {
    Database reopened(cfg);
    if (!reopened.open_status().ok()) {
      Fail("reopen failed: " + reopened.open_status().ToString());
    } else {
      Session s(&reopened);
      check_kv(&s, durable_a_, "reopened kv image");
      auto count = s.ExecuteSql(kCountSql);
      std::string why;
      if (!count.ok() || !SameRows(*count, ref_.count, false, &why)) {
        Fail("reopened lineitem count differs");
      }
    }
  }
  auto leftovers = [&]() {
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto& e : fs::recursive_directory_iterator(args_.scratch, ec)) {
      if (e.path().filename().string().rfind("x100-", 0) == 0) {
        found.push_back(e.path().string());
      }
    }
    return found;
  };
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(spill_dir_, ec)) {
    Fail("spill file left behind: " + e.path().string());
  }
  fs::remove_all(data_dir_, ec);
  for (const std::string& f : leftovers()) Fail("file left behind: " + f);
}

std::vector<Metric> Bench::EndToEndMetrics(double cpu_s,
                                           double peak_rss_mb) const {
  std::vector<Metric> m = {
      {"setup_s", Median(setup_s_), "s"},
      {"cpu_ms_per_op", cpu_s * 1e3 / attempted_, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  for (Query q : kAllQueries) {
    m.push_back({std::string(QueryName(q)) + "_cpu_ms",
                 Median(query_cpu_ms_[static_cast<int>(q)]), "ms"});
  }
  m.push_back({"point_cpu_us", Median(point_cpu_us_), "us"});
  m.push_back({"commit_cpu_us", Median(commit_cpu_us_), "us"});
  m.push_back({"checkpoint_cpu_ms", Median(checkpoint_cpu_ms_), "ms"});
  return m;
}

/// Wall-clock medians of the same operations: what a user waits for on
/// this host at this moment. Printed by every run and reported as trace.*
/// metrics by the traced run, but not bounded (see CpuSeconds).
std::vector<Metric> Bench::WallMetrics(double loop_s) const {
  std::vector<Metric> m = {
      {"setup_s", Median(setup_wall_s_), "s"},
      {"ops_per_s", attempted_ / loop_s, "1/s"},
  };
  for (Query q : kAllQueries) {
    m.push_back({std::string(QueryName(q)) + "_ms",
                 Median(query_ms_[static_cast<int>(q)]), "ms"});
  }
  m.push_back({"point_p50_us", Median(point_us_), "us"});
  m.push_back({"commit_p50_us", Median(commit_us_), "us"});
  m.push_back({"checkpoint_s", Median(checkpoint_s_), "s"});
  return m;
}

std::vector<Metric> Bench::LayerMetrics(double loop_s, double cpu_s,
                                        const Counters& d) const {
  const double ops = static_cast<double>(attempted_);
  double queries = 0;
  for (const auto& ms : query_ms_) queries += ms.size();
  queries = std::max(1.0, queries);
  const Counters& a = layers_.analytic;
  const double points = static_cast<double>(point_us_.size());
  const double rows = std::max<double>(1, layers_.rows_scanned);
  const double ckpts = std::max<double>(1, checkpoint_s_.size());
  auto per_row = [&](ExecLayer l) { return layers_.layer_ns[l] / rows; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  return {
      {"frontend.parse_us", layers_.parse_ns * 1e-3 / ops, "us/op"},
      {"frontend.compile_us", layers_.compile_ns * 1e-3 / ops, "us/op"},
      {"rewriter.rewrite_us", layers_.rewrite_ns * 1e-3 / ops, "us/op"},
      {"engine.build_us", layers_.build_ns * 1e-3 / ops, "us/op"},
      {"engine.exec_us", layers_.exec_ns * 1e-3 / ops, "us/op"},
      {"engine.plan_cache_hits_per_op", d.cache_hits / ops, "1/op"},
      {"exec.scan_ns_per_row", per_row(kScan), "ns/row"},
      {"exec.select_ns_per_row", per_row(kSelect), "ns/row"},
      {"exec.project_ns_per_row", per_row(kProject), "ns/row"},
      {"exec.agg_ns_per_row", per_row(kAgg), "ns/row"},
      {"exec.join_build_ns_per_row", per_row(kJoinBuild), "ns/row"},
      {"exec.join_probe_ns_per_row", per_row(kJoinProbe), "ns/row"},
      {"exec.sort_us", ratio(layers_.layer_ns[kSort] * 1e-3,
                             layers_.queries_with_sort),
       "us/query"},
      {"exec.rows_scanned_per_point",
       ratio(layers_.point_rows_scanned, points), "rows"},
      {"exec.groups_skipped_per_point",
       ratio(layers_.point_groups_skipped, points), "groups"},
      {"sched.tasks_per_query", a.tasks / queries, "tasks"},
      {"sched.steals_per_query", a.steals / queries, "tasks"},
      {"sched.cpu_per_wall", cpu_s / loop_s, "ratio"},
      {"quota.rebalances_per_op", d.rebalances / ops, "1/op"},
      {"storage.pool_hit_ratio",
       ratio(a.pool_hits, a.pool_hits + a.pool_misses), "ratio"},
      {"storage.device_mb_per_query", a.dev_read / queries / 1e6, "MB"},
      {"storage.prefetch_hit_ratio", ratio(a.pf_hits, a.pf_issued), "ratio"},
      {"storage.prefetch_wasted_per_query", a.pf_wasted / queries, "blocks"},
      {"storage.single_flight_waits_per_query", a.sf_waits / queries,
       "waits"},
      {"storage.evictions_per_query", a.evictions / queries, "blocks"},
      {"storage.spill_mb_written", a.spill_written / queries / 1e6,
       "MB/query"},
      {"storage.spill_mb_read", a.spill_read / queries / 1e6, "MB/query"},
      {"memory.peak_mb", db_ ? db_->memory()->peak() / 1e6 : 0, "MB"},
      {"storage.checkpoint_mb_written", layers_.checkpoint_bytes / ckpts / 1e6,
       "MB"},
      {"pdt.dirty_groups_per_checkpoint", layers_.dirty_groups / ckpts,
       "groups"},
      {"pdt.checkpoint_s_per_dirty_group",
       ratio(layers_.checkpoint_s, layers_.dirty_groups), "s"},
      {"pdt.begin_us", Median(layers_.begin_us), "us"},
      {"pdt.commit_us", Median(layers_.commit_us), "us"},
      {"setup.generate_s", Median(generate_s_), "s"},
      {"setup.warm_s", Median(warm_s_), "s"},
  };
}

int Bench::Main() {
  rng_.seed(args_.seed);
  // Hot keys: kHotKeys distinct keys, the i-th requested with probability
  // proportional to 1 / i^kZipfTheta.
  std::unordered_set<int64_t> seen;
  while (static_cast<int>(hot_keys_.size()) < kHotKeys) {
    const int64_t k = static_cast<int64_t>(rng_() % kKvRows);
    if (seen.insert(k).second) hot_keys_.push_back(k);
  }
  double total = 0;
  for (int i = 1; i <= kHotKeys; i++) total += std::pow(i, -kZipfTheta);
  double acc = 0;
  for (int i = 1; i <= kHotKeys; i++) {
    acc += std::pow(i, -kZipfTheta) / total;
    hot_cdf_.push_back(acc);
  }
  for (int64_t k : hot_keys_) hot_sql_.push_back(PointSql(k));

  std::printf("workload %s seed %" PRIu64 " seconds %d trace %d\n",
              spec_.name, args_.seed, args_.seconds, args_.trace ? 1 : 0);
  std::printf(
      "fixed: workers=%d pipeline_width=%d sf=%g pool=%lldMiB "
      "bandwidth=%lldMB/s memory_limit=%lldMiB spill=%s store=%s "
      "kv_rows=%lld kv_group_rows=%lld rotations/cycle=%d window=%d "
      "adhoc/window=%d hot_keys=%d zipf=%g windows/write=%d "
      "checkpoint_every=%d intervals/cycle=%d\n",
      workers_, workers_, kScaleFactor,
      static_cast<long long>(spec_.pool_bytes >> 20),
      static_cast<long long>(spec_.bandwidth / 1000000),
      static_cast<long long>(spec_.memory_limit >> 20),
      spec_.durable ? "file" : "ram", spec_.durable ? "file" : "ram",
      static_cast<long long>(kKvRows),
      static_cast<long long>(kKvGroupRows), spec_.rotations, kWindow,
      kAdHocPerWindow, kHotKeys, kZipfTheta, kWindowsPerWrite,
      kCheckpointEvery, kIntervalsPerCycle);
  std::printf("calibration: cpu_loop_s=%.4f\n", CalibrationSeconds());
  std::fflush(stdout);

  std::error_code ec;
  spill_dir_ = args_.scratch + "/spill";
  fs::create_directories(spill_dir_, ec);
  for (int rep = 0; rep < kSetupReps; rep++) {
    const std::string dir =
        spec_.durable ? args_.scratch + "/data-" + std::to_string(rep) : "";
    if (!dir.empty()) fs::create_directories(dir, ec);
    double gen_s = 0, warm_s = 0;
    const auto t0 = Clock::now();
    const Status st = SetUp(dir, &gen_s, &warm_s);
    setup_wall_s_.push_back(NsSince(t0) * 1e-9);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!data_dir_.empty()) fs::remove_all(data_dir_, ec);
    data_dir_ = dir;
    generate_s_.push_back(gen_s);
    warm_s_.push_back(warm_s);
    setup_s_.push_back(gen_s + warm_s);
  }
  auto ref = ComputeReference(db_.get());
  if (!ref.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 ref.status().ToString().c_str());
    return 1;
  }
  ref_ = std::move(*ref);
  ChooseDirtyGroups();
  int64_t tpch_bytes = 0;
  for (const char* t : {"lineitem", "orders", "customer", "part", "supplier",
                        "nation", "region"}) {
    auto table = db_->GetTable(t);
    if (table.ok()) tpch_bytes += (*table)->base()->compressed_bytes();
  }
  std::printf("data: tpch_mb=%.1f lineitem_rows=%s kv_mb=%.2f\n",
              tpch_bytes / 1e6, ref_.count[0][0].ToString().c_str(),
              kv_->base()->compressed_bytes() / 1e6);

  // The loop ends only after whole cycles, so every run is made of the
  // same operations in the same proportions.
  const int points_per_cycle =
      kIntervalsPerCycle * kCheckpointEvery * kWindowsPerWrite * kWindow;
  const int min_cycles = std::max(
      (kMinCheckpoints + kIntervalsPerCycle - 1) / kIntervalsPerCycle,
      (kMinPointSamples + points_per_cycle - 1) / points_per_cycle);
  db_->memory()->ResetPeak();
  const Counters c0 = Snapshot();
  const double cpu0 = CpuSeconds();
  const double steal0 = StealSeconds();
  RssSampler rss;
  const auto t0 = Clock::now();
  int cycles = 0;
  while (correct_) {
    RunCycle();
    cycles++;
    if (cycles >= min_cycles && NsSince(t0) >= args_.seconds * 1000000000ll) {
      break;
    }
  }
  const double loop_s = NsSince(t0) * 1e-9;
  const double peak_rss_mb = rss.Stop();
  const double cpu_s = CpuSeconds() - cpu0;
  const double steal_s = StealSeconds() - steal0;
  const Counters delta = Snapshot() - c0;
  const std::vector<Metric> wall = WallMetrics(loop_s);
  std::vector<Metric> metrics;
  if (tracer_.on()) {
    metrics = LayerMetrics(loop_s, cpu_s, delta);
    for (const Metric& w : wall) {
      metrics.push_back({"trace." + w.name, w.value, w.unit});
    }
  } else {
    metrics = EndToEndMetrics(cpu_s, peak_rss_mb);
  }
  std::printf("wall:");
  for (const Metric& w : wall) {
    std::printf(" %s=%.4g", w.name.c_str(), w.value);
  }
  std::printf("\n");
  // The tail is printed, not reported as a metric: on a shared virtual
  // machine it follows the hypervisor's CPU steal more than the engine
  // (README.md).
  std::printf("points: n=%zu p50_us=%.1f p90_us=%.1f p99_us=%.1f\n",
              point_us_.size(), Percentile(point_us_, 0.50),
              Percentile(point_us_, 0.90), Percentile(point_us_, 0.99));
  std::printf("loop: cycles=%d ops=%lld seconds=%.3f host_steal_s=%.2f\n",
              cycles, static_cast<long long>(attempted_), loop_s, steal_s);
  const double loop_ns = std::max(1.0, loop_s * 1e9);
  std::printf(
      "share of loop: analytic=%.3f lookups=%.3f writes=%.3f "
      "checkpoints=%.3f\n",
      analytic_ns_ / loop_ns, window_ns_ / loop_ns, write_ns_ / loop_ns,
      checkpoint_ns_ / loop_ns);

  FinalChecks();
  if (tracer_.on() && !args_.spans.empty() && !tracer_.Write(args_.spans)) {
    std::fprintf(stderr, "could not write spans to %s\n", args_.spans.c_str());
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace enginebench

int main(int argc, char** argv) {
  enginebench::Args args;
  if (!enginebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --scratch <dir> [--spans <file>]\n");
    return 2;
  }
  for (const enginebench::Spec& spec : enginebench::Specs()) {
    if (args.workload == spec.name) {
      enginebench::Bench bench(spec, args);
      return bench.Main();
    }
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
