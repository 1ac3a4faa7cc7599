// Hash group-by aggregation as a pipeline sink.
//
//  * GroupTable      — group store (key rows + chained hash index + one
//                      accumulator set per aggregate) with a vectorized
//                      lookup, a direct map for small-domain keys, and an
//                      aggregate-aware MergeFrom (the barrier operation of
//                      parallel aggregation).
//  * AggWorkerState  — one worker chain's thread-local state: compiled
//                      key/aggregate programs, the resolved update
//                      kernels and private GroupTables.
//  * HashAggOp       — N source chains (N = the pipeline width, 1 for a
//                      serial plan) drained by scheduler tasks into
//                      per-worker GroupTables, merged at the pipeline
//                      barrier (Leis-style morsel parallelism: no
//                      partial/final plan rewrite, no exchange).
//
// Per vector, every step is one primitive over the whole vector (the X100
// pattern): evaluate and hash the keys, resolve group ids (direct map, or
// candidate gids → one typed compare per key column → fix-up of misses
// and inserts), count rows per group, then one typed update kernel per
// (kind, type) of aggregate (primitives/agg_kernels.h).
//
// Radix partitions on demand: a worker starts with one table and splits
// it into 2^radix_bits partition tables (routed by the top bits of the key
// hash) only once it holds more than kTinyBuildRows groups, or when it
// must spill. The barrier merges 2^radix_bits independent partitions when
// any worker split, and one table in one task otherwise — a query with a
// handful of groups never pays for partitioning.
#ifndef X100_EXEC_HASH_AGG_H_
#define X100_EXEC_HASH_AGG_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/expression.h"
#include "exec/operator.h"
#include "exec/row_buffer.h"
#include "exec/select_project.h"
#include "primitives/agg_kernels.h"
#include "storage/spill_file.h"

namespace x100 {

struct AggItem {
  AggKind kind;
  /// Input expression (ignored for COUNT(*): nullptr).
  ExprPtr input;
  std::string name;
};

/// Group store: key rows + chained hash index + per-group row counts +
/// one accumulator set per aggregate. Single-writer; parallel aggregation
/// gives each worker its own table and merges them at the barrier.
class GroupTable {
 public:
  /// One aggregate's accumulator arrays; only those agg::LayoutOf names
  /// for its (kind, input type) are kept.
  struct Accum {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int64_t> wraps;
    /// NULL inputs per group, kept from the aggregate's first NULL input
    /// on (`counts_nulls`); until then every folded row was non-NULL.
    std::vector<int64_t> nulls;
    bool counts_nulls = false;

    agg::Slots slots() {
      return {i64.empty() ? nullptr : i64.data(),
              f64.empty() ? nullptr : f64.data(),
              wraps.empty() ? nullptr : wraps.data(),
              counts_nulls ? nulls.data() : nullptr};
    }
  };

  /// `kinds`/`in_types`: one entry per aggregate (merge semantics).
  GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
             std::vector<TypeId> in_types);

  /// Vectorized group lookup: gids[j] for the key row sel ? sel[j] : j
  /// with precomputed hashes[j]. Candidate gids come from the bucket
  /// heads, one typed compare per key column confirms them, mismatches
  /// follow the chain, and a final in-order fix-up inserts new groups (so
  /// gids are assigned in first-occurrence order).
  Status Lookup(const std::vector<const Vector*>& keys, int n,
                const sel_t* sel, const uint64_t* hashes, uint32_t* gids);

  /// Direct-mapped lookup for small-domain keys: when every live key of
  /// the vector is a byte-sized code (bool/i8, an integer in [0, 256), a
  /// string of at most one byte, or NULL), gids come from a dense map
  /// indexed by the combined codes, without hashing. Returns false (gids
  /// untouched) when the vector does not fit; the caller then takes
  /// Lookup. Misses insert through the hash index, so both paths always
  /// agree on a key's group.
  Result<bool> DirectLookup(const std::vector<const Vector*>& keys, int n,
                            const sel_t* sel, uint32_t* gids);

  /// Materializes the single group of a keyless aggregation so an empty
  /// input still yields one output row.
  void EnsureGlobalGroup();

  /// The parallel-aggregation barrier: folds every group of `src` into
  /// this table, combining accumulators by aggregate kind (agg::Combine).
  /// `src` must share this table's construction.
  Status MergeFrom(const GroupTable& src);

  /// Moves every group into one of 2^bits fresh tables by the top `bits`
  /// of its key hash (RadixPartitionOf), keeping group order and copying
  /// accumulators bit for bit.
  Result<std::vector<std::unique_ptr<GroupTable>>> SplitByRadix(
      int bits) const;

  /// Starts counting NULL inputs of aggregate `a` (all groups so far: 0).
  void EnsureNullCounts(size_t a);

  int64_t num_groups() const { return keys_->rows(); }
  const RowBuffer& keys() const { return *keys_; }
  /// Rows folded per group: COUNT(*), and the base of every non-NULL count.
  int64_t* rows() { return rows_.data(); }
  const int64_t* rows() const { return rows_.data(); }
  Accum& accum(size_t a) { return accums_[a]; }
  const Accum& accum(size_t a) const { return accums_[a]; }
  const agg::Layout& layout(size_t a) const { return layouts_[a]; }

  /// Footprint for memory accounting: key rows, index, accumulators.
  size_t MemoryBytes() const;

  /// Spill serialization: key rows + hashes + row counts + accumulator
  /// arrays (the index is rebuilt on reload). kinds/in_types are NOT
  /// serialized — the reloader constructs the table and merges it back
  /// via MergeFrom.
  void SerializeTo(std::vector<uint8_t>* out) const;
  static Result<std::unique_ptr<GroupTable>> Deserialize(
      const Schema& key_schema, std::vector<AggKind> kinds,
      std::vector<TypeId> in_types, const uint8_t* data, size_t size);

 private:
  /// Appends a group row (already added to keys_) to the index +
  /// accumulators; rehashes at ~0.7 load factor.
  Result<uint32_t> FinishNewGroup(uint64_t hash);
  /// Scalar chain walk for one key row; inserts when absent.
  Result<uint32_t> FindOrAddRow(const std::vector<const Vector*>& keys,
                                int row, uint64_t hash);
  void RebuildIndex();

  std::vector<AggKind> kinds_;
  std::vector<TypeId> in_types_;
  std::vector<agg::Layout> layouts_;
  std::unique_ptr<RowBuffer> keys_;
  std::vector<int64_t> buckets_;
  std::vector<int64_t> chain_;
  std::vector<uint64_t> key_hashes_;
  std::vector<int64_t> rows_;
  uint64_t bucket_mask_ = 0;
  std::vector<Accum> accums_;

  // Lookup scratch (candidate gid, pending row, match flag per row).
  std::vector<int64_t> cand_;
  std::vector<int32_t> todo_;
  std::vector<uint8_t> match_;
  std::vector<uint8_t> miss_;

  // Direct map. Each key column maps its byte code (0..255, 256 = empty
  // string, 257 = NULL) to a dense local code in first-seen order, packed
  // into `bits` bits; the concatenated codes index dm_map_ (gid, or -1
  // when not yet seen). A column that outgrows its bits re-packs the
  // map; past kDirectMapBits in total the map is switched off.
  static constexpr int kDirectCodes = 258;
  static constexpr int kDirectMapBits = 16;
  static constexpr uint32_t kDirectUnseen = 1u << 31;
  struct DirectColumn {
    std::array<int16_t, kDirectCodes> local;
    /// local code << the column's shift, or kDirectUnseen.
    std::array<uint32_t, kDirectCodes> shifted;
    int distinct = 0;
    int bits = 0;
  };
  std::vector<DirectColumn> dm_cols_;
  std::vector<int32_t> dm_map_;
  bool dm_off_ = false;
  std::vector<uint32_t> dm_comb_;  // scratch: combined code per row
};

/// One aggregation worker: the thread-local state that drains one source
/// chain (compiled programs, resolved kernels, scratch, private
/// GroupTables), driven by a scheduler task and partitioned on demand.
class AggWorkerState {
 public:
  /// Compiles programs, resolves the update kernels and allocates the
  /// private table. `radix_bits` is forced to 0 for keyless aggregation
  /// (a single global group cannot be partitioned).
  Status Prepare(const std::vector<ExprPtr>& bound_keys,
                 const std::vector<ExprPtr>& bound_aggs,
                 const Schema& key_schema,
                 const std::vector<AggItem>& aggs,
                 const std::vector<TypeId>& in_types, int vector_size,
                 int radix_bits = 0,
                 SimdLevel simd = SimdLevel::kScalar);

  /// Drains `child` (already open) to exhaustion into the private
  /// tables, splitting into 2^radix_bits partitions once the groups
  /// outgrow kTinyBuildRows.
  Status ConsumeAll(Operator* child, ExecContext* ctx,
                    const std::vector<AggItem>& aggs);

  /// Splits the single table into 2^radix_bits partition tables (no-op
  /// when already split or radix_bits is 0).
  Status Split();

  GroupTable* table(int partition = 0) const {
    return partition < static_cast<int>(tables_.size())
               ? tables_[partition].get()
               : nullptr;
  }
  /// 1 until the worker splits, then 2^radix_bits.
  int num_partitions() const { return static_cast<int>(tables_.size()); }

  /// Hands the partition tables to the caller and releases their charge
  /// (the caller re-charges them): the barrier adopts the first worker's
  /// tables as the final tables instead of copying them.
  std::vector<std::unique_ptr<GroupTable>> TakeTables();

  /// Reloads every chunk this worker spilled for `partition` and folds it
  /// into `dst` via MergeFrom — the merge-on-reload half of out-of-core
  /// aggregation, run by the partition's merge task at the barrier.
  Status MergeSpilled(int partition, GroupTable* dst,
                      CancellationToken* cancel) const;

  /// Records an "AggSpill" profile entry when this worker went out of
  /// core (rows = groups spilled).
  void RecordSpillProfile(ExecContext* ctx) const;


 private:
  /// Grows the reservation to the tables' footprint; on failure spills
  /// the largest partition table (whole-partition chunks; an unsplit
  /// worker splits first) or surfaces kResourceExhausted when ctx has no
  /// spill device.
  Status EnsureReservation(ExecContext* ctx);

  /// Resolves group ids for the vector's live rows and folds them into
  /// the tables (per partition once split).
  Status ConsumeBatch(Batch* in, const std::vector<AggItem>& aggs);
  /// Runs every update step over n rows (sel/gid as in agg::UpdateFn)
  /// into table `t`.
  void Update(GroupTable* t, int n, const sel_t* sel, const uint32_t* gid);

  /// Aggregates sharing one single-column kernel, folded by its fused
  /// variant.
  struct UpdateStep {
    std::vector<int> members;  // aggregate indices, at most kMaxFused
    agg::UpdateFn fused;       // all members at once, no NULLs
    agg::UpdateFn single;      // one member, no NULLs
    agg::UpdateFn with_nulls;  // one member, NULL-skipping
  };

  std::vector<std::unique_ptr<ExprProgram>> key_progs_;
  std::vector<std::unique_ptr<ExprProgram>> agg_progs_;  // null: COUNT(*)
  std::vector<UpdateStep> steps_;
  int radix_bits_ = 0;
  /// Resolved dispatch level: picks hash/agg kernel variants
  /// (kScalar = reference behavior).
  SimdLevel simd_ = SimdLevel::kScalar;
  std::vector<std::unique_ptr<GroupTable>> tables_;  // one per partition

  // Per-vector scratch.
  std::vector<const Vector*> key_vecs_;
  std::vector<const Vector*> agg_vecs_;
  std::vector<uint32_t> gids_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> hash_tmp_;
  std::vector<uint32_t> parts_;
  std::vector<int> part_start_;
  std::vector<sel_t> part_sel_;
  std::vector<uint64_t> part_hash_;

  // Spill construction state (what a fresh table needs) + results.
  Schema key_schema_;
  std::vector<AggKind> kinds_;
  std::vector<TypeId> in_types_;
  MemoryReservation reserv_;
  std::vector<std::vector<SpillFile>> spilled_;  // [partition][chunk]
  int64_t spill_bytes_ = 0;
  int64_t spill_chunks_ = 0;
  int64_t spill_rows_ = 0;
};

/// Operator binding: resolves group-by and aggregate expressions against
/// the input schema and derives the key and output schemas.
struct AggBinding {
  Status Bind(const Schema& in, const std::vector<ProjectItem>& group_by,
              const std::vector<AggItem>& aggs);

  Schema key_schema;
  Schema out_schema;
  std::vector<ExprPtr> bound_keys;
  std::vector<ExprPtr> bound_aggs;  // nullptr for COUNT(*)
  std::vector<AggKind> kinds;
  std::vector<TypeId> in_types;
};

/// Hash aggregation, the sink of a scan→[probe→]aggregate pipeline. Each
/// of the N source chains (clones sharing morsel sources and join build
/// states underneath, or one chain over any input) is drained by a
/// scheduler task into a per-worker GroupTable, split into 2^radix_bits
/// partitions once the worker's groups outgrow kTinyBuildRows. At the
/// TaskGroup barrier the first worker's tables become the final tables
/// and each partition folds the other workers in with an independent
/// scheduler task — one table and one merge task when no worker split —
/// then groups stream out partition by partition. One chain therefore
/// emits from the table it built.
class HashAggOp : public Operator {
 public:
  /// `group_by`: expressions evaluated as grouping keys (usually column
  /// refs); their names become output columns, followed by the
  /// aggregates. A keyless aggregation never partitions.
  HashAggOp(std::vector<OperatorPtr> chains,
            std::vector<ProjectItem> group_by, std::vector<AggItem> aggs,
            int radix_bits = 0);
  ~HashAggOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override {
    return binding_.out_schema;
  }
  std::string name() const override {
    return "HashAgg(" + std::to_string(chains_.size()) + ")";
  }

 private:
  /// Runs the pipeline: spawn tasks (bounded by the query's TaskQuota),
  /// barrier, then a per-partition merge fan-out into `final_`.
  Status Consume();

  std::vector<OperatorPtr> chains_;
  std::vector<ProjectItem> group_items_;
  std::vector<AggItem> agg_items_;
  int radix_bits_;
  AggBinding binding_;
  Status init_status_;
  ExecContext* ctx_ = nullptr;

  std::vector<std::unique_ptr<AggWorkerState>> workers_;
  std::vector<std::unique_ptr<GroupTable>> final_;  // one per partition
  /// Charges for the final tables (force-reserved: they must be resident
  /// to emit; the drain phase is what spilling bounds).
  std::vector<MemoryReservation> final_mem_;
  bool consumed_ = false;
  std::unique_ptr<Batch> out_;
  int emit_part_ = 0;
  int64_t emit_pos_ = 0;
};

}  // namespace x100

#endif  // X100_EXEC_HASH_AGG_H_
