// SortOp: full materializing sort and bounded top-N, the pipeline-
// executor sink for ORDER BY. NULLs order last ascending, first
// descending (documented engine rule).
//
// Per-worker sorted runs are built by scheduler tasks and merged at the
// pipeline barrier (docs/EXECUTION.md):
//  * N cloned input chains (morsel-parallel input): each task drains and
//    sorts its own run.
//  * one input chain (a serial plan, or a non-clonable input such as an
//    aggregation's output): one task drains it, then the materialized
//    rows are range-split and sorted by `split_ways` parallel tasks.
// A LIMIT truncates each run to the limit before the merge, so top-N never
// materializes more than runs x limit rows for the merge phase.
//
// Out-of-core (docs/EXECUTION.md §"Memory accounting & spill"): when a
// drain worker's memory reservation fails it sorts what it holds and
// writes it as a SPILLED RUN — rows serialized in sorted order, chunked so
// the merge can stream them — then continues with an empty buffer. The
// k-way merge treats resident and spilled runs uniformly: resident runs
// iterate their sorted index, spilled runs hold one reloaded chunk at a
// time, so emit-phase memory is bounded by (resident rows + one chunk per
// spilled run). With spilling disabled a failed reservation surfaces
// kResourceExhausted through the pipeline's cancellation machinery.
#ifndef X100_EXEC_SORT_H_
#define X100_EXEC_SORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/operator.h"
#include "exec/row_buffer.h"
#include "storage/spill_file.h"

namespace x100 {

struct SortKey {
  int col;
  bool ascending = true;
};

/// One sorted run. Exactly one representation is populated:
///  * resident — `order` indexes into `rows` (range-split runs of a
///    single materialized input share one buffer);
///  * spilled  — `chunks` hold the rows serialized in sorted order.
struct SortRun {
  const RowBuffer* rows = nullptr;
  std::vector<int64_t> order;
  std::vector<SpillFile> chunks;

  bool spilled() const { return !chunks.empty(); }
};

/// Streaming k-way merge over sorted runs (SortOp's emit phase). Ties
/// pick the lowest run index; runs are few, so linear selection beats a
/// heap in simplicity and is cache-friendly for small k. Spilled runs
/// stream chunk-by-chunk from disk; the resident chunk is force-charged
/// against the query tracker and released when the cursor advances past
/// it.
class SortRunMerger {
 public:
  /// `limit` < 0: merge everything; otherwise stop after `limit` rows.
  Status Init(const Schema* schema, const std::vector<SortKey>* keys,
              int64_t limit, ExecContext* ctx, std::vector<SortRun>* runs);

  /// Gathers up to `out`'s capacity rows in merge order; `*n` = 0 at end
  /// of stream.
  Status NextBatch(Batch* out, int* n);

 private:
  struct Cursor {
    SortRun* run = nullptr;
    size_t pos = 0;                          // resident: index into order
    size_t chunk = 0;                        // spilled: next chunk to load
    std::unique_ptr<RowBuffer> chunk_rows;   // spilled: resident chunk
    int64_t chunk_pos = 0;                   // spilled: row within chunk
    MemoryReservation mem;
    bool done = false;
  };

  /// Loads the cursor's next spilled chunk (releasing the previous one);
  /// marks the cursor done when chunks are exhausted.
  Status AdvanceChunk(Cursor* c);
  /// Current row of a cursor; false when the cursor is exhausted.
  bool CurrentRow(const Cursor& c, const RowBuffer** rows,
                  int64_t* row) const;

  const Schema* schema_ = nullptr;
  const std::vector<SortKey>* keys_ = nullptr;
  int64_t limit_ = -1;
  int64_t emitted_ = 0;
  ExecContext* ctx_ = nullptr;
  std::vector<Cursor> cursors_;
};

/// Materializing sort and bounded top-N: run-per-chain, k-way merge at
/// the barrier.
class SortOp : public Operator {
 public:
  /// `chains`: >= 1 input chains (clones sharing morsel sources / join
  /// build states underneath). With a single chain, `split_ways` controls
  /// how many range-sort tasks run after materialization; with multiple
  /// chains it is ignored (one run per chain). limit < 0: full sort;
  /// otherwise top-`limit` rows.
  SortOp(std::vector<OperatorPtr> chains, std::vector<SortKey> keys,
         int64_t limit = -1, int split_ways = 1);
  ~SortOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override {
    return chains_[0]->output_schema();
  }
  std::string name() const override {
    return (limit_ < 0 ? "Sort(" : "TopN(") + std::to_string(num_runs()) +
           ")";
  }

 private:
  /// Planned width before the pipeline ran; the achieved run count after
  /// (a range-split sort caps its ways by the data size, so the profile
  /// must report what actually executed).
  int num_runs() const {
    if (materialized_) return static_cast<int>(runs_.size());
    return chains_.size() > 1 ? static_cast<int>(chains_.size())
                              : split_ways_;
  }
  /// Phase 1: drain input(s) into per-run buffers + sorted index runs
  /// (scheduler tasks, barrier), spilling sorted runs under memory
  /// pressure. Phase 2 is the streaming merge in NextImpl.
  Status Materialize();

  std::vector<OperatorPtr> chains_;
  std::vector<SortKey> keys_;
  int64_t limit_;
  int split_ways_;
  ExecContext* ctx_ = nullptr;

  std::vector<std::unique_ptr<RowBuffer>> buffers_;  // one per worker
  std::vector<MemoryReservation> buffer_mem_;
  std::vector<SortRun> runs_;
  SortRunMerger merger_;
  bool materialized_ = false;
  std::unique_ptr<Batch> out_;
};

}  // namespace x100

#endif  // X100_EXEC_SORT_H_
