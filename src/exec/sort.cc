#include "exec/sort.h"

#include <algorithm>
#include <atomic>

#include "common/task_scheduler.h"

namespace x100 {

namespace {

/// Rows per spilled-run chunk: large enough to amortize the per-chunk
/// disk blocks, small enough that the merge holds only a modest slice of
/// each spilled run in memory.
constexpr int64_t kSortSpillChunkRows = 4096;

/// -1 / 0 / +1 three-way compare of two cells, possibly from different
/// row buffers of the same schema; NULLs compare greater (NULLS LAST
/// ascending).
int CompareCellAB(const RowBuffer& ra, int64_t a, const RowBuffer& rb,
                  int64_t b, int col) {
  const bool an = ra.IsNull(col, a), bn = rb.IsNull(col, b);
  if (an || bn) return an == bn ? 0 : (an ? 1 : -1);
  switch (ra.schema().field(col).type) {
    case TypeId::kBool: {
      const auto x = ra.Col<uint8_t>(col)[a], y = rb.Col<uint8_t>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kI8: {
      const auto x = ra.Col<int8_t>(col)[a], y = rb.Col<int8_t>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kI16: {
      const auto x = ra.Col<int16_t>(col)[a], y = rb.Col<int16_t>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kI32:
    case TypeId::kDate: {
      const auto x = ra.Col<int32_t>(col)[a], y = rb.Col<int32_t>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kI64: {
      const auto x = ra.Col<int64_t>(col)[a], y = rb.Col<int64_t>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kF64: {
      const auto x = ra.Col<double>(col)[a], y = rb.Col<double>(col)[b];
      return x < y ? -1 : x > y ? 1 : 0;
    }
    case TypeId::kStr: {
      const StrRef& x = ra.Col<StrRef>(col)[a];
      const StrRef& y = rb.Col<StrRef>(col)[b];
      return x < y ? -1 : y < x ? 1 : 0;
    }
  }
  return 0;
}

inline int CompareCell(const RowBuffer& rows, int col, int64_t a,
                       int64_t b) {
  return CompareCellAB(rows, a, rows, b, col);
}

/// Keyed three-way compare across (possibly distinct) run buffers.
int CompareRowsAB(const RowBuffer& ra, int64_t a, const RowBuffer& rb,
                  int64_t b, const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    int c = CompareCellAB(ra, a, rb, b, k.col);
    if (!k.ascending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

/// Sorts `order` (indexes into `rows`) by `keys`; a non-negative limit
/// keeps only the first `limit` entries (top-N runs).
void SortIndexRun(const RowBuffer& rows, const std::vector<SortKey>& keys,
                  int64_t limit, std::vector<int64_t>* order) {
  auto cmp = [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      int c = CompareCell(rows, k.col, a, b);
      if (!k.ascending) c = -c;
      if (c != 0) return c < 0;
    }
    return a < b;  // stable tie-break within one run
  };
  if (limit >= 0 && limit < static_cast<int64_t>(order->size())) {
    std::partial_sort(order->begin(), order->begin() + limit, order->end(),
                      cmp);
    order->resize(limit);
  } else {
    std::sort(order->begin(), order->end(), cmp);
  }
}

/// Per-drain-worker run construction under a memory budget: batches
/// append into `*buffer` and grow `*reserv`; a failed reservation sorts
/// what the buffer holds and writes it out as a spilled run (rows
/// serialized in sorted order, kSortSpillChunkRows per chunk), then the
/// worker continues with an empty buffer. No spill device means the
/// failure surfaces as kResourceExhausted and fails the pipeline task.
struct RunBuildState {
  const Schema* schema = nullptr;
  const std::vector<SortKey>* keys = nullptr;
  int64_t limit = -1;
  ExecContext* ctx = nullptr;
  std::unique_ptr<RowBuffer>* buffer = nullptr;  // owned by the operator
  MemoryReservation* reserv = nullptr;

  std::vector<SortRun> spilled_runs;
  int64_t spill_bytes = 0, spill_chunks = 0, spill_rows = 0;

  Status Append(const Batch& b) {
    (*buffer)->AppendBatch(b);
    const auto footprint = [this]() {
      return static_cast<int64_t>((*buffer)->MemoryBytes());
    };
    // The whole resident buffer is the spill unit; buffers under the
    // kMinSpillBytes floor (the pressure comes from other operators)
    // free nothing, so GrowOrSpill force-admits them instead of
    // micro-spilling a few rows per run.
    const auto spill_some = [this]() -> Result<int64_t> {
      const int64_t bytes = static_cast<int64_t>((*buffer)->MemoryBytes());
      if ((*buffer)->rows() == 0 || bytes < kMinSpillBytes) return int64_t{0};
      X100_RETURN_IF_ERROR(SpillResident());
      return bytes;
    };
    return GrowOrSpill(reserv, ctx->spill_device != nullptr, footprint,
                       spill_some);
  }

  /// Sorts the resident rows and writes them as one spilled run. A
  /// failed chunk write (the device filling up) surfaces the IO error;
  /// the chunks already written are owned by the run and freed with it.
  Status SpillResident() {
    RowBuffer& rows = **buffer;
    std::vector<int64_t> order(rows.rows());
    for (int64_t i = 0; i < rows.rows(); i++) order[i] = i;
    SortIndexRun(rows, *keys, limit, &order);
    SortRun run;
    const int64_t n = static_cast<int64_t>(order.size());
    for (int64_t begin = 0; begin < n; begin += kSortSpillChunkRows) {
      const int64_t end = std::min(n, begin + kSortSpillChunkRows);
      std::vector<uint8_t> blob;
      rows.SerializeRowsTo(order, begin, end, &blob);
      SpillFile file;
      X100_ASSIGN_OR_RETURN(file, SpillFile::Write(ctx->spill_device, blob));
      spill_bytes += file.bytes();
      spill_chunks++;
      run.chunks.push_back(std::move(file));
    }
    spill_rows += n;
    spilled_runs.push_back(std::move(run));
    *buffer = std::make_unique<RowBuffer>(*schema);
    reserv->ShrinkTo(static_cast<int64_t>((*buffer)->MemoryBytes()));
    return Status::OK();
  }

  /// Sorts the remaining resident rows into a run referencing `*buffer`;
  /// no run when the buffer is empty (everything already spilled).
  bool FinishResident(SortRun* out) {
    if ((*buffer)->rows() == 0) return false;
    out->rows = buffer->get();
    out->order.resize((*buffer)->rows());
    for (int64_t i = 0; i < (*buffer)->rows(); i++) out->order[i] = i;
    SortIndexRun(**buffer, *keys, limit, &out->order);
    return true;
  }

  void RecordProfile() const {
    if (spill_chunks == 0) return;
    OperatorProfile prof;
    prof.op = "SortSpill";
    prof.rows = spill_rows;
    prof.spill_bytes = spill_bytes;
    prof.spills = spill_chunks;
    ctx->RecordOperator(std::move(prof));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SortRunMerger
// ---------------------------------------------------------------------------

Status SortRunMerger::Init(const Schema* schema,
                           const std::vector<SortKey>* keys, int64_t limit,
                           ExecContext* ctx, std::vector<SortRun>* runs) {
  schema_ = schema;
  keys_ = keys;
  limit_ = limit;
  emitted_ = 0;
  ctx_ = ctx;
  cursors_.clear();
  cursors_.resize(runs->size());
  for (size_t i = 0; i < runs->size(); i++) {
    Cursor& c = cursors_[i];
    c.run = &(*runs)[i];
    if (c.run->spilled()) {
      X100_RETURN_IF_ERROR(AdvanceChunk(&c));
    } else if (c.run->order.empty()) {
      c.done = true;
    }
  }
  return Status::OK();
}

Status SortRunMerger::AdvanceChunk(Cursor* c) {
  c->chunk_rows.reset();
  c->mem.Init(ctx_ != nullptr ? ctx_->memory : nullptr);
  c->mem.ShrinkTo(0);
  while (c->chunk < c->run->chunks.size()) {
    std::vector<uint8_t> blob;
    X100_ASSIGN_OR_RETURN(
        blob, c->run->chunks[c->chunk].ReadAll(
                  ctx_ != nullptr ? ctx_->cancel : nullptr));
    c->chunk++;
    std::unique_ptr<RowBuffer> rows;
    X100_ASSIGN_OR_RETURN(
        rows, RowBuffer::Deserialize(*schema_, blob.data(), blob.size()));
    if (rows->rows() == 0) continue;
    c->chunk_rows = std::move(rows);
    c->chunk_pos = 0;
    // One resident chunk per spilled run is the merge's minimum working
    // set — force-charged, released when the cursor advances past it.
    c->mem.ForceGrowTo(static_cast<int64_t>(c->chunk_rows->MemoryBytes()));
    return Status::OK();
  }
  c->done = true;
  return Status::OK();
}

bool SortRunMerger::CurrentRow(const Cursor& c, const RowBuffer** rows,
                               int64_t* row) const {
  if (c.done) return false;
  if (c.run->spilled()) {
    *rows = c.chunk_rows.get();
    *row = c.chunk_pos;
  } else {
    *rows = c.run->rows;
    *row = c.run->order[c.pos];
  }
  return true;
}

Status SortRunMerger::NextBatch(Batch* out, int* n) {
  *n = 0;
  if (ctx_ != nullptr) X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  const int cap = ctx_ != nullptr ? ctx_->vector_size : kDefaultVectorSize;
  while (*n < cap && (limit_ < 0 || emitted_ < limit_)) {
    int best = -1;
    const RowBuffer* best_rows = nullptr;
    int64_t best_row = 0;
    for (size_t i = 0; i < cursors_.size(); i++) {
      const RowBuffer* rows;
      int64_t row;
      if (!CurrentRow(cursors_[i], &rows, &row)) continue;
      if (best < 0 ||
          CompareRowsAB(*rows, row, *best_rows, best_row, *keys_) < 0) {
        best = static_cast<int>(i);
        best_rows = rows;
        best_row = row;
      }
    }
    if (best < 0) break;  // every run exhausted
    for (int c = 0; c < out->num_columns(); c++) {
      best_rows->GatherCell(c, best_row, out->column(c), *n);
    }
    (*n)++;
    emitted_++;
    Cursor& bc = cursors_[best];
    if (bc.run->spilled()) {
      bc.chunk_pos++;
      if (bc.chunk_pos >= bc.chunk_rows->rows()) {
        X100_RETURN_IF_ERROR(AdvanceChunk(&bc));
      }
    } else {
      bc.pos++;
      if (bc.pos >= bc.run->order.size()) bc.done = true;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(std::vector<OperatorPtr> chains, std::vector<SortKey> keys,
               int64_t limit, int split_ways)
    : chains_(std::move(chains)),
      keys_(std::move(keys)),
      limit_(limit),
      split_ways_(split_ways < 1 ? 1 : split_ways) {}

Status SortOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  if (chains_.empty()) {
    return Status::InvalidArgument("sort needs >= 1 input chain");
  }
  // Chains open inside their pipeline tasks, not here.
  out_ = std::make_unique<Batch>(chains_[0]->output_schema(),
                                 ctx->vector_size);
  return Status::OK();
}

void SortOp::CloseImpl() {
  for (OperatorPtr& c : chains_) {
    if (c) c->Close();
  }
}

Status SortOp::Materialize() {
  TaskScheduler* sched =
      ctx_->scheduler != nullptr ? ctx_->scheduler : TaskScheduler::Global();
  const int W = static_cast<int>(chains_.size());
  const Schema& schema = chains_[0]->output_schema();
  buffers_.clear();
  buffers_.resize(W);
  buffer_mem_.clear();
  buffer_mem_.resize(W);
  runs_.clear();

  // One run builder per input chain: each task drains its chain, spilling
  // sorted runs when its reservation fails, and sorts what stays resident
  // (the input pipeline and the sort overlap). A single chain that
  // spilled nothing leaves its rows unsorted for the range split below.
  std::vector<std::vector<SortRun>> worker_runs(W);
  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx_->quota, ctx_->cancel, W,
      [this, W, &schema, &worker_runs](int w, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        buffers_[w] = std::make_unique<RowBuffer>(schema);
        buffer_mem_[w].Init(ctx_->memory);
        RunBuildState st;
        st.schema = &schema;
        st.keys = &keys_;
        st.limit = limit_;
        st.ctx = ctx_;
        st.buffer = &buffers_[w];
        st.reserv = &buffer_mem_[w];
        Operator* chain = chains_[w].get();
        Status s = chain->Open(ctx_);
        while (s.ok()) {
          s = group.CheckCancel();
          if (!s.ok()) break;
          auto b = chain->Next();
          if (!b.ok()) {
            s = b.status();
            break;
          }
          if (*b == nullptr) break;
          s = st.Append(**b);
        }
        chain->Close();
        X100_RETURN_IF_ERROR(s);
        st.RecordProfile();
        worker_runs[w] = std::move(st.spilled_runs);
        if (W == 1 && worker_runs[w].empty()) return Status::OK();
        SortRun resident;
        if (st.FinishResident(&resident)) {
          worker_runs[w].push_back(std::move(resident));
        }
        return Status::OK();
      }));
  for (std::vector<SortRun>& wr : worker_runs) {
    for (SortRun& r : wr) runs_.push_back(std::move(r));
  }

  if (W == 1 && runs_.empty()) {
    // One materialized input: range-split it across sort tasks. (Once
    // anything spilled, range splitting is moot — the merge is streaming
    // anyway — so the drain task already made the remainder one run.)
    const int64_t n = buffers_[0]->rows();
    // Don't spawn more range tasks than vectors of data to sort.
    const int ways = static_cast<int>(std::max<int64_t>(
        1, std::min<int64_t>(split_ways_, (n + 1023) / 1024)));
    runs_.resize(ways);
    X100_RETURN_IF_ERROR(RunPipelineTasks(
        sched, ctx_->quota, ctx_->cancel, ways,
        [this, n, ways](int r, TaskGroup& group) -> Status {
          X100_RETURN_IF_ERROR(group.CheckCancel());
          const int64_t lo = n * r / ways, hi = n * (r + 1) / ways;
          SortRun& run = runs_[r];
          run.rows = buffers_[0].get();
          run.order.resize(hi - lo);
          for (int64_t i = lo; i < hi; i++) run.order[i - lo] = i;
          SortIndexRun(*buffers_[0], keys_, limit_, &run.order);
          return Status::OK();
        }));
  }

  X100_RETURN_IF_ERROR(
      merger_.Init(&schema, &keys_, limit_, ctx_, &runs_));
  materialized_ = true;
  return Status::OK();
}

Result<Batch*> SortOp::NextImpl() {
  if (!materialized_) X100_RETURN_IF_ERROR(Materialize());
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  out_->Reset();
  int n;
  X100_RETURN_IF_ERROR(merger_.NextBatch(out_.get(), &n));
  if (n == 0) return nullptr;
  out_->set_rows(n);
  return out_.get();
}

}  // namespace x100
