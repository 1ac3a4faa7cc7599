// Hash join — build/probe with the join flavors whose SQL semantics the
// paper calls out (§"NULL intricacies"): "While most operators are NULL
// oblivious, one of the exceptions were join operators. Here, intricacies
// of the SQL semantics of anti-joins added significant complexity."
//
// Flavors:
//  * kInner, kLeftOuter, kSemi
//  * kAnti           — NOT EXISTS semantics: probe rows with NULL keys
//                      vacuously survive (NULL = x is unknown, EXISTS false)
//  * kAntiNullAware  — NOT IN semantics: a NULL anywhere poisons the
//                      predicate: any NULL build key -> empty result; a
//                      NULL probe key -> row dropped.
//
// Pipeline decomposition (docs/EXECUTION.md): the build side is its own
// pipeline. JoinBuildState owns N cloned build chains, drains them with
// scheduler tasks into per-worker, per-partition row buffers — rows are
// radix-partitioned by the TOP `radix_bits` bits of the key hash as they
// arrive — then merges + hash-indexes each of the 2^radix_bits
// partitions with an independent scheduler task (no cross-partition
// synchronization; radix_bits = 0 degenerates to the single-table path).
// After the merge fan-out's barrier the table is immutable and any
// number of probe pipelines read it concurrently:
//  * JoinProbeOp  — one probe worker chain against the shared table; the
//                   physical planner clones it per pipeline worker. A
//                   serial join is one JoinProbeOp over a one-chain build.
//
// Partition-wise (Grace) probe, docs/EXECUTION.md §"Partition-wise
// probe": a merge task whose partition does not FIT the memory budget
// leaves that partition on disk ("deferred") instead of force-charging it
// resident. Probe rows hashing into a deferred partition are not probed;
// each prober routes them — same RadixPartitionOf bits, so build and
// probe agree bit-for-bit — into probe-side SpillFiles under its own
// memory reservation. When the LAST registered prober exhausts its probe
// child it takes over the partition-pair phase: one deferred partition at
// a time, it reloads the build side (chunks + index, force-charged as the
// pair's minimum working set), streams every prober's probe chunks back
// through the ordinary probe loop, and emits the joined rows up its own
// chain — sinks union/merge worker output anyway, so which chain carries
// the deferred rows is as immaterial as which worker steals a morsel.
// Peak memory is thereby bounded by ONE partition pair instead of the
// whole build table.
#ifndef X100_EXEC_HASH_JOIN_H_
#define X100_EXEC_HASH_JOIN_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/memory_tracker.h"
#include "common/task_scheduler.h"
#include "exec/operator.h"
#include "exec/row_buffer.h"
#include "simd/prefetch.h"
#include "storage/spill_file.h"

namespace x100 {

enum class JoinType : uint8_t {
  kInner,
  kLeftOuter,
  kSemi,
  kAnti,
  kAntiNullAware,
};

const char* JoinTypeName(JoinType t);

/// The shared, immutable-after-build side of a hash join, radix-
/// partitioned by the top `radix_bits` bits of the key hash. Built
/// exactly once per query by whichever caller reaches EnsureBuilt first;
/// concurrent callers help run the build's own scheduler tasks (drain +
/// per-partition merge, all tagged with this state) while they wait.
/// Records one "JoinBuildMerge" entry per partition merge task in the
/// query profile so merge parallelism — and partition skew — is visible
/// per-operator (replacing the old serial "JoinBuild(N)" entry).
class JoinBuildState {
 public:
  /// One radix partition of the built table: rows whose key hash has the
  /// same top `radix_bits` bits, with a private chained hash index.
  struct Partition {
    std::unique_ptr<RowBuffer> rows;
    std::vector<int64_t> buckets;  // head index per bucket, -1 empty
    std::vector<int64_t> next;     // chain (partition-local row ids)
    std::vector<uint64_t> hashes;
    uint64_t bucket_mask = 0;
    /// Charge for the merged, probe-resident partition. RESERVED (not
    /// forced) at the merge: a partition that does not fit is deferred
    /// to the partition-pair phase instead of overcommitting. Released
    /// when the build state is destroyed (or the pair completes).
    MemoryReservation mem;
    /// Grace probe: the build side of this partition stayed on disk; the
    /// probe phase routes matching rows to probe-side spill and a later
    /// partition-pair task joins the two.
    bool deferred = false;

    int64_t Head(uint64_t hash) const { return buckets[hash & bucket_mask]; }

    /// Hints the bucket head for `hash` into cache ahead of the probe.
    /// Deferred partitions have no resident index (buckets is empty) —
    /// nothing useful to prefetch there.
    void PrefetchBucket(uint64_t hash) const {
      if (!buckets.empty()) PrefetchRead(&buckets[hash & bucket_mask]);
    }
  };

  /// `radix_bits` = 0 keeps the single-table path (one partition, one
  /// merge task) — the fallback for width-1 plans and tiny builds.
  /// `estimated_rows` (>= 0) is the planner's scan-spine bound on the
  /// build cardinality; with `allow_radix_resize` (AUTO radix sizing),
  /// a drain observing >= kRadixResizeFactor x the estimate re-sizes the
  /// merge fan-out to RadixBitsForObserved — the tiny-build skip only
  /// sees base-table spines, and a mispredicted build (PDT-inserted
  /// rows, say) must not collapse onto one merge task / one Grace
  /// partition.
  JoinBuildState(std::vector<OperatorPtr> chains, std::vector<int> build_keys,
                 int radix_bits = 0, int64_t estimated_rows = -1,
                 bool allow_radix_resize = false);

  /// Runs the build pipeline if it has not run yet: N scheduler tasks
  /// drain the chains into per-worker, per-partition buffers, then
  /// 2^radix_bits merge tasks concatenate and hash-index one partition
  /// each. Safe to call from any thread; every caller observes the
  /// build's status, and callers that lose the build race help run the
  /// build's tagged tasks instead of blocking.
  Status EnsureBuilt(ExecContext* ctx);

  /// Closes any chain the build tasks did not get to (cancellation /
  /// sibling error paths). Idempotent, thread-safe.
  void CloseChains();

  const Schema& schema() const { return build_schema_; }

  // Probe-side accessors; valid only after EnsureBuilt returned OK.
  int radix_bits() const { return radix_bits_; }
  int num_partitions() const { return 1 << radix_bits_; }
  size_t PartitionOf(uint64_t hash) const {
    return RadixPartitionOf(hash, radix_bits_);
  }
  const Partition& partition(uint64_t hash) const {
    return partitions_[PartitionOf(hash)];
  }
  bool partition_deferred(size_t p) const { return partitions_[p].deferred; }
  bool any_deferred() const {
    return any_deferred_.load(std::memory_order_relaxed);
  }
  bool has_null_key() const { return has_null_key_; }
  const std::vector<int>& build_keys() const { return build_keys_; }

  // --- Partition-wise (Grace) probe protocol -------------------------------
  //
  // Every probing operator registers at CONSTRUCTION time (all probe
  // clones of a plan exist before any of them drains), finishes exactly
  // once when its probe child hits end-of-stream, and the LAST finisher
  // runs the partition-pair phase single-threaded — by then every other
  // prober has returned end-of-stream to its sink, so the deferred
  // partitions have exactly one owner and pairs are processed one at a
  // time (the documented memory floor).

  void RegisterProber() {
    probers_registered_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Hands a finished prober's probe-side spill chunks (per partition) to
  /// the shared state. Returns true iff this was the last registered
  /// prober — the caller then owns the partition-pair phase.
  bool FinishProber(std::vector<std::vector<SpillFile>> probe_chunks);

  /// The deferred partitions that received probe rows, in partition
  /// order. Call only as the last finisher.
  std::vector<int> DeferredPairList() const;

  /// Loads deferred partition `p` resident: merges its build spill
  /// chunks, indexes them, and force-charges the result as the pair's
  /// minimum working set. Returns the resident bytes charged. Call only
  /// as the last finisher, one partition at a time. `preloaded`, when
  /// non-null and sized like build_chunks(p), supplies the chunk blobs
  /// already read ahead (the pair prefetcher) — they are consumed in
  /// chunk order instead of re-reading the spill device.
  Result<int64_t> LoadDeferredPartition(
      int p, ExecContext* ctx,
      std::vector<std::vector<uint8_t>>* preloaded = nullptr);

  /// This pair's probe chunks (every prober's, concatenated). Valid
  /// between LoadDeferredPartition(p) and ReleaseDeferredPartition(p).
  const std::vector<SpillFile>& probe_chunks(int p) const {
    return probe_spilled_[p];
  }

  /// Partition `p`'s build-side spill chunks (read-ahead peeks at the
  /// next pair's files while the current pair probes). Safe without
  /// spill_mu_ in the pair phase: the drain barrier has long passed and
  /// the last finisher is the only thread left touching spill state.
  const std::vector<SpillFile>& build_chunks(int p) const {
    return spilled_[p];
  }

  /// Drops partition `p`'s resident build side, its reservation and its
  /// build + probe spill chunks — the pair is done, its disk space and
  /// memory return before the next pair loads.
  void ReleaseDeferredPartition(int p);

 private:
  Status Build(ExecContext* ctx);
  static void IndexPartition(Partition* part);

  std::vector<OperatorPtr> chains_;
  std::vector<int> build_keys_;
  Schema build_schema_;
  int radix_bits_;
  const int64_t estimated_rows_;
  const bool allow_radix_resize_;

  std::mutex mu_;
  std::condition_variable built_cv_;
  enum class State { kIdle, kBuilding, kBuilt } state_ = State::kIdle;
  /// Lock-free fast path for the probe hot loop: set (release) once the
  /// build completed successfully; probes then skip mu_ entirely.
  std::atomic<bool> built_ok_{false};
  Status build_status_;
  bool chains_closed_ = false;

  std::vector<Partition> partitions_;  // 2^radix_bits, built in parallel
  bool has_null_key_ = false;  // poison for NOT IN semantics
  /// Set by merge tasks (concurrently, hence atomic), read by probes.
  std::atomic<bool> any_deferred_{false};

  /// Out-of-core drain (Grace-style): when a drain worker's memory
  /// reservation fails it writes its largest radix partition (rows +
  /// hashes, one self-contained blob) to a SpillFile and continues with a
  /// fresh buffer; the partition's merge task re-reads every spilled
  /// chunk before indexing — or leaves them on disk when the partition
  /// is deferred. `spill_mu_` guards the per-partition chunk lists
  /// during the concurrent drain; `spilled_rows_` sizes the merge task's
  /// up-front reservation.
  std::mutex spill_mu_;
  std::vector<std::vector<SpillFile>> spilled_;  // [partition][chunk]
  std::vector<int64_t> spilled_rows_;            // rows per partition on disk
  std::vector<int64_t> spilled_bytes_;           // blob bytes per partition

  /// Grace probe hand-off (guarded by probe_mu_): probe-side chunks per
  /// partition, deposited by finishing probers; the counters implement
  /// the last-finisher election.
  std::mutex probe_mu_;
  std::vector<std::vector<SpillFile>> probe_spilled_;  // [partition][chunk]
  std::atomic<int> probers_registered_{0};
  int probers_finished_ = 0;
};

using JoinBuildStatePtr = std::shared_ptr<JoinBuildState>;

/// Probe machinery against a built JoinBuildState: vectorized key hashing,
/// chain walking with output-overflow resume, the per-flavor emit rules,
/// and the Grace probe-side spill + partition-pair streaming. One instance
/// per probing operator (it owns the output batch and resume cursor), so
/// cloned probe pipelines never share mutable state.
class JoinProber {
 public:
  void Init(JoinBuildState* state, std::vector<int> probe_keys,
            JoinType type, const Schema* probe_schema,
            const Schema* out_schema);
  Status Open(ExecContext* ctx);
  /// Pulls probe batches from `child` and emits joined output; nullptr at
  /// end-of-stream. When the build deferred partitions, rows routed to
  /// them surface later: the last prober to finish streams the deferred
  /// partition pairs before reporting end-of-stream.
  Result<Batch*> Next(Operator* child, ExecContext* ctx);
  /// Flushes Grace probe bookkeeping (a "JoinProbeSpill" profile entry)
  /// and releases any pair working set. Called from the owning
  /// operator's Close.
  void Close(ExecContext* ctx);

 private:
  bool ProbeKeyHasNull(const Batch& probe, int i) const;
  bool KeysEqual(const Batch& probe, int probe_i, const RowBuffer& build,
                 int64_t build_row) const;
  void EmitPair(const Batch& probe, int probe_i, const RowBuffer& build,
                int64_t build_row, int out_i);
  void EmitProbeOnly(const Batch& probe, int probe_i, int out_i,
                     bool null_build_side);

  // Grace probe-side machinery (see the header comment).
  Status DeferRow(const Batch& probe, int i, size_t partition);
  Status EnsureDeferReservation(ExecContext* ctx);
  Result<int64_t> SpillDeferredPartition(ExecContext* ctx, int victim);
  Status SpillAllDeferred(ExecContext* ctx);
  /// The probe feed: the child's stream, then — for the last finisher —
  /// synthetic batches materialized from each deferred pair's probe
  /// chunks.
  Result<Batch*> NextProbeBatch(Operator* child, ExecContext* ctx);
  Status StartPair(ExecContext* ctx);
  Status FinishPair(ExecContext* ctx);
  Result<bool> NextPairChunk(ExecContext* ctx);  // false: pair exhausted
  /// Overlap: after pair_idx_'s build is resident, read the NEXT pair's
  /// build chunks + first probe chunk on a background task so its IO
  /// hides behind this pair's probing. The bytes are charged against the
  /// buffer pool's read-ahead budget (ctx->buffers) — NOT the query
  /// memory limit, whose documented floor is one resident pair; when the
  /// charge is refused the next pair simply loads synchronously.
  void MaybePrefetchNextPair(ExecContext* ctx);
  /// Cancels + joins any in-flight pair prefetch and returns its budget
  /// charge. Safe to call at any point (Close, error unwind).
  void DropPairPrefetch();

  JoinBuildState* state_ = nullptr;
  std::vector<int> probe_keys_;
  JoinType type_ = JoinType::kInner;
  const Schema* probe_schema_ = nullptr;
  const Schema* out_schema_ = nullptr;

  std::unique_ptr<Batch> out_;
  // Probe resume state (a probe batch can overflow the output vector).
  /// Resolved dispatch level (batched hash kernels) and the derived
  /// prefetch gate — kScalar keeps the exact reference memory behavior.
  SimdLevel simd_ = SimdLevel::kScalar;
  bool prefetch_ = false;
  Batch* probe_batch_ = nullptr;
  int probe_pos_ = 0;        // index into the probe batch's live rows
  int64_t chain_pos_ = -1;   // current chain node (inner/outer continue)
  bool row_matched_ = false; // left outer bookkeeping
  std::vector<uint64_t> probe_hashes_;
  bool eos_ = false;

  // Grace probe-side state: per-partition buffers of rows routed away
  // from deferred partitions, spilled as chunks under defer_mem_.
  std::vector<std::unique_ptr<RowBuffer>> defer_rows_;
  std::vector<std::vector<SpillFile>> defer_chunks_;
  MemoryReservation defer_mem_;
  int64_t probe_spill_bytes_ = 0;
  int64_t probe_spill_chunks_ = 0;
  int64_t probe_spill_rows_ = 0;
  bool finished_ = false;    // FinishProber already ran

  // Partition-pair streaming (last finisher only).
  bool pair_mode_ = false;
  std::vector<int> pair_parts_;
  size_t pair_idx_ = 0;
  size_t pair_chunk_ = 0;
  int64_t pair_row_ = 0;
  std::unique_ptr<RowBuffer> pair_probe_rows_;  // current reloaded chunk
  std::unique_ptr<Batch> pair_batch_;
  MemoryReservation pair_mem_;
  int64_t pair_build_bytes_ = 0;
  int64_t pair_mem_hwm_ = 0;
  int64_t pair_rows_ = 0;
  int64_t pair_t0_ = 0;

  /// One in-flight read-ahead of a deferred pair's spill chunks. The
  /// TaskGroup owns the background read; the blobs are adopted by the
  /// next StartPair (build) and its first NextPairChunk (probe).
  struct PairPrefetch {
    int part = -1;
    std::unique_ptr<TaskGroup> tasks;
    std::vector<std::vector<uint8_t>> build_blobs;
    std::vector<uint8_t> probe_blob;
    bool has_probe_blob = false;
    int64_t charged_bytes = 0;
    BufferManager* buffers = nullptr;  // budget to refund on release
  };
  PairPrefetch next_pair_;
  std::vector<uint8_t> adopted_probe_blob_;  // chunk 0, read ahead
  bool has_adopted_probe_blob_ = false;
  int64_t pair_prefetch_issued_ = 0;
  int64_t pair_prefetch_adopted_ = 0;
};

/// Output schema of a join: probe columns, then (inner/left-outer) build
/// columns — nullable for the padded left-outer side.
Schema JoinOutputSchema(const Schema& probe, const Schema& build,
                        JoinType type);

/// One probe pipeline worker: probes the shared build table with its own
/// source chain. The planner creates N of these per parallel join,
/// embedded in the worker chains of the pipeline's sink (aggregation,
/// sort, or an exchange union at the plan root), and one for a serial
/// join.
class JoinProbeOp : public Operator {
 public:
  JoinProbeOp(OperatorPtr probe, JoinBuildStatePtr state,
              std::vector<int> probe_keys, JoinType type);
  ~JoinProbeOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override { return out_schema_; }
  std::string name() const override {
    return std::string("JoinProbe[") + JoinTypeName(type_) + "]";
  }

 private:
  OperatorPtr probe_child_;
  JoinBuildStatePtr state_;
  JoinType type_;
  Schema out_schema_;
  ExecContext* ctx_ = nullptr;
  JoinProber prober_;
};

}  // namespace x100

#endif  // X100_EXEC_HASH_JOIN_H_
