#include "exec/hash_agg.h"

#include <chrono>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/pod_serde.h"
#include "common/task_scheduler.h"
#include "primitives/hash_kernels.h"

namespace x100 {

namespace {

/// Typed equality of one cell between two row buffers (group merge).
bool CellsEqual(const RowBuffer& a, int col, int64_t ra, const RowBuffer& b,
                int64_t rb) {
  const bool an = a.IsNull(col, ra), bn = b.IsNull(col, rb);
  if (an || bn) return an == bn;
  switch (a.schema().field(col).type) {
    case TypeId::kBool:
      return a.Col<uint8_t>(col)[ra] == b.Col<uint8_t>(col)[rb];
    case TypeId::kI8:
      return a.Col<int8_t>(col)[ra] == b.Col<int8_t>(col)[rb];
    case TypeId::kI16:
      return a.Col<int16_t>(col)[ra] == b.Col<int16_t>(col)[rb];
    case TypeId::kI32:
    case TypeId::kDate:
      return a.Col<int32_t>(col)[ra] == b.Col<int32_t>(col)[rb];
    case TypeId::kI64:
      return a.Col<int64_t>(col)[ra] == b.Col<int64_t>(col)[rb];
    case TypeId::kF64:
      return a.Col<double>(col)[ra] == b.Col<double>(col)[rb];
    case TypeId::kStr:
      return a.Col<StrRef>(col)[ra] == b.Col<StrRef>(col)[rb];
  }
  return false;
}

/// The compare primitive of the vectorized lookup: match[t] &= (input key
/// of row todo[t] == stored key of group cand[t]) for one key column,
/// NULL equal to NULL.
template <typename T>
void MatchColumnT(int m, const int32_t* todo, const int64_t* cand,
                  const sel_t* sel, const Vector& v, const RowBuffer& keys,
                  int col, uint8_t* match) {
  const T* in = v.Data<T>();
  const T* stored = keys.Col<T>(col);
  const uint8_t* in_nulls = v.has_nulls() ? v.nulls() : nullptr;
  const uint8_t* st_nulls = keys.Nulls(col);
  if (in_nulls == nullptr && st_nulls == nullptr) {
    for (int t = 0; t < m; t++) {
      const int i = sel ? sel[todo[t]] : todo[t];
      match[t] &= static_cast<uint8_t>(in[i] == stored[cand[t]]);
    }
    return;
  }
  for (int t = 0; t < m; t++) {
    const int i = sel ? sel[todo[t]] : todo[t];
    const bool a = in_nulls != nullptr && in_nulls[i];
    const bool b = st_nulls != nullptr && st_nulls[cand[t]];
    match[t] &= static_cast<uint8_t>(a == b &&
                                     (a || in[i] == stored[cand[t]]));
  }
}

void MatchColumn(int m, const int32_t* todo, const int64_t* cand,
                 const sel_t* sel, const Vector& v, const RowBuffer& keys,
                 int col, uint8_t* match) {
  switch (v.type()) {
    case TypeId::kBool:
      return MatchColumnT<uint8_t>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kI8:
      return MatchColumnT<int8_t>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kI16:
      return MatchColumnT<int16_t>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kI32:
    case TypeId::kDate:
      return MatchColumnT<int32_t>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kI64:
      return MatchColumnT<int64_t>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kF64:
      return MatchColumnT<double>(m, todo, cand, sel, v, keys, col, match);
    case TypeId::kStr:
      return MatchColumnT<StrRef>(m, todo, cand, sel, v, keys, col, match);
  }
}

/// Hash of a NULL key cell: the hash of the type's zero value, whatever
/// the NULL slot holds, so every NULL key lands in one group.
uint64_t NullKeyHash(TypeId t) {
  switch (t) {
    case TypeId::kF64: return hashk::HashValue(0.0);
    case TypeId::kStr: return hashk::HashValue(StrRef());
    default: return hashk::HashValue(int64_t{0});
  }
}

/// hashes[j] = combined key hash of row sel ? sel[j] : j, one hash
/// primitive per key column; NULL cells hash as NullKeyHash.
void HashKeys(const std::vector<const Vector*>& keys, int n, const sel_t* sel,
              uint64_t* hashes, uint64_t* tmp, SimdLevel simd) {
  for (size_t k = 0; k < keys.size(); k++) {
    const Vector& v = *keys[k];
    if (!v.has_nulls()) {
      hashk::HashColumn(v, n, sel, hashes, k > 0, simd);
      continue;
    }
    hashk::HashColumn(v, n, sel, tmp, false, simd);
    const uint64_t null_hash = NullKeyHash(v.type());
    const uint8_t* nulls = v.nulls();
    for (int j = 0; j < n; j++) {
      const uint64_t hv = nulls[sel ? sel[j] : j] ? null_hash : tmp[j];
      hashes[j] = k == 0 ? hv : HashCombine(hashes[j], hv);
    }
  }
}

/// One row's key hash, identical to HashKeys for that row.
uint64_t HashKeyRow(const std::vector<const Vector*>& keys, int i) {
  const sel_t row = i;
  uint64_t h = 0, tmp = 0;
  HashKeys(keys, 1, &row, &h, &tmp, SimdLevel::kScalar);
  return h;
}

constexpr unsigned kEmptyStrCode = 256;
constexpr unsigned kNullCode = 257;

/// Runs body(j, i, null) over the live rows j (input row i), instantiated
/// per selection/NULL shape so the common dense, NULL-free loop carries
/// no per-row test for either.
template <typename Body>
void ForEachRow(int n, const sel_t* sel, const uint8_t* nulls, Body body) {
  if (sel == nullptr && nulls == nullptr) {
    for (int j = 0; j < n; j++) body(j, j, false);
  } else if (nulls == nullptr) {
    for (int j = 0; j < n; j++) body(j, sel[j], false);
  } else {
    for (int j = 0; j < n; j++) {
      const int i = sel ? sel[j] : j;
      body(j, i, nulls[i] != 0);
    }
  }
}

template <typename T, typename Fn>
bool ForEachIntCode(const Vector& v, int n, const sel_t* sel, Fn fn) {
  const T* d = v.Data<T>();
  bool bad = false;
  // NULL slots may hold anything: their code is kNullCode regardless.
  ForEachRow(n, sel, v.has_nulls() ? v.nulls() : nullptr,
             [&](int j, int i, bool null) {
               const int64_t x = d[i];
               bad |= !null && (x < 0 || x > 255);
               fn(j, null ? kNullCode : static_cast<unsigned>(x & 0xFF));
             });
  return !bad;
}

/// Calls fn(j, code) with the direct-map byte code of every live row of
/// one key column (0..255, kEmptyStrCode, kNullCode). Returns false when
/// some non-NULL value has no byte-sized code (fn still ran on every row,
/// with an in-range placeholder code).
template <typename Fn>
bool ForEachByteCode(const Vector& v, int n, const sel_t* sel, Fn fn) {
  switch (v.type()) {
    case TypeId::kBool:
    case TypeId::kI8:
      return ForEachIntCode<uint8_t>(v, n, sel, fn);
    case TypeId::kI16: return ForEachIntCode<int16_t>(v, n, sel, fn);
    case TypeId::kI32:
    case TypeId::kDate: return ForEachIntCode<int32_t>(v, n, sel, fn);
    case TypeId::kI64: return ForEachIntCode<int64_t>(v, n, sel, fn);
    case TypeId::kStr: {
      const StrRef* d = v.Data<StrRef>();
      bool bad = false;
      ForEachRow(n, sel, v.has_nulls() ? v.nulls() : nullptr,
                 [&](int j, int i, bool null) {
                   const uint32_t len = d[i].len;
                   bad |= !null && len > 1;
                   fn(j, null ? kNullCode
                              : len == 0
                                    ? kEmptyStrCode
                                    : static_cast<uint8_t>(d[i].data[0]));
                 });
      return !bad;
    }
    case TypeId::kF64:
      return false;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// GroupTable
// ---------------------------------------------------------------------------

GroupTable::GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
                       std::vector<TypeId> in_types)
    : kinds_(std::move(kinds)), in_types_(std::move(in_types)) {
  keys_ = std::make_unique<RowBuffer>(key_schema);
  buckets_.assign(1024, -1);
  bucket_mask_ = buckets_.size() - 1;
  accums_.resize(kinds_.size());
  for (size_t a = 0; a < kinds_.size(); a++) {
    layouts_.push_back(agg::LayoutOf(kinds_[a], in_types_[a]));
  }
}

Result<uint32_t> GroupTable::FinishNewGroup(uint64_t hash) {
  const int64_t gid = keys_->rows() - 1;  // key row appended by the caller
  if (gid >= static_cast<int64_t>(UINT32_MAX)) {
    return Status::ResourceExhausted("too many groups");
  }
  key_hashes_.push_back(hash);
  chain_.push_back(buckets_[hash & bucket_mask_]);
  buckets_[hash & bucket_mask_] = gid;
  rows_.push_back(0);
  for (size_t a = 0; a < accums_.size(); a++) {
    Accum& acc = accums_[a];
    const agg::Layout& l = layouts_[a];
    if (l.i64) acc.i64.push_back(l.i64_init);
    if (l.f64) acc.f64.push_back(l.f64_init);
    if (l.wraps) acc.wraps.push_back(0);
    if (acc.counts_nulls) acc.nulls.push_back(0);
  }
  // Rehash when load factor exceeds ~0.7.
  if (keys_->rows() * 10 > static_cast<int64_t>(buckets_.size()) * 7) {
    buckets_.assign(buckets_.size() * 2, -1);
    RebuildIndex();
  }
  return static_cast<uint32_t>(gid);
}

void GroupTable::RebuildIndex() {
  bucket_mask_ = buckets_.size() - 1;
  chain_.resize(key_hashes_.size());
  for (size_t r = 0; r < key_hashes_.size(); r++) {
    const uint64_t slot = key_hashes_[r] & bucket_mask_;
    chain_[r] = buckets_[slot];
    buckets_[slot] = static_cast<int64_t>(r);
  }
}

void GroupTable::EnsureNullCounts(size_t a) {
  Accum& acc = accums_[a];
  if (acc.counts_nulls) return;
  acc.nulls.assign(static_cast<size_t>(num_groups()), 0);
  acc.counts_nulls = true;
}

Result<uint32_t> GroupTable::FindOrAddRow(
    const std::vector<const Vector*>& keys, int row, uint64_t hash) {
  for (int64_t node = buckets_[hash & bucket_mask_]; node >= 0;
       node = chain_[node]) {
    if (key_hashes_[node] != hash) continue;
    uint8_t eq = 1;
    const int32_t at = row;
    for (size_t k = 0; k < keys.size(); k++) {
      MatchColumn(1, &at, &node, nullptr, *keys[k], *keys_,
                  static_cast<int>(k), &eq);
    }
    if (eq) return static_cast<uint32_t>(node);
  }
  keys_->AppendRowFromVectors(keys, row);
  return FinishNewGroup(hash);
}

Status GroupTable::Lookup(const std::vector<const Vector*>& keys, int n,
                          const sel_t* sel, const uint64_t* hashes,
                          uint32_t* gids) {
  cand_.resize(n);
  todo_.resize(n);
  match_.resize(n);
  miss_.resize(n);
  // 1) Candidate gids: the bucket head of every row.
  int m = 0;
  int misses = 0;
  for (int j = 0; j < n; j++) {
    const int64_t c = buckets_[hashes[j] & bucket_mask_];
    todo_[m] = j;
    cand_[m] = c;
    m += c >= 0;
    miss_[j] = c < 0;
    misses += c < 0;
  }
  while (m > 0) {
    // 2) Compare: stored hash first, then one typed primitive per column.
    for (int t = 0; t < m; t++) {
      match_[t] = key_hashes_[cand_[t]] == hashes[todo_[t]];
    }
    for (size_t k = 0; k < keys.size(); k++) {
      MatchColumn(m, todo_.data(), cand_.data(), sel, *keys[k], *keys_,
                  static_cast<int>(k), match_.data());
    }
    // 3) Matches resolve; mismatches follow the chain or become misses.
    int next = 0;
    for (int t = 0; t < m; t++) {
      const int j = todo_[t];
      if (match_[t]) {
        gids[j] = static_cast<uint32_t>(cand_[t]);
        continue;
      }
      const int64_t c = chain_[cand_[t]];
      if (c >= 0) {
        todo_[next] = j;
        cand_[next] = c;
        next++;
      } else {
        miss_[j] = 1;
        misses++;
      }
    }
    m = next;
  }
  // 4) Fix-up in row order: insert new keys (a key seen twice in this
  // vector is found by its second row's chain walk).
  for (int j = 0; misses > 0 && j < n; j++) {
    if (!miss_[j]) continue;
    misses--;
    X100_ASSIGN_OR_RETURN(gids[j],
                          FindOrAddRow(keys, sel ? sel[j] : j, hashes[j]));
  }
  return Status::OK();
}

Result<bool> GroupTable::DirectLookup(const std::vector<const Vector*>& keys,
                                      int n, const sel_t* sel,
                                      uint32_t* gids) {
  if (dm_off_ || keys.empty()) return false;
  const size_t nk = keys.size();
  if (dm_cols_.empty()) {
    dm_cols_.resize(nk);
    for (DirectColumn& c : dm_cols_) {
      c.local.fill(-1);
      c.shifted.fill(kDirectUnseen);
    }
    dm_map_.assign(1, -1);
  }
  dm_comb_.resize(n);
  uint32_t* comb = dm_comb_.data();
  // One pass per key column ORs its shifted local code into the combined
  // code; the last pass also reads the map. Returns -1 when a column does
  // not fit, 0 when some value has no local code yet (kDirectUnseen), 1
  // when every row is coded.
  const auto probe = [&]() -> int {
    const int32_t* map = dm_map_.data();
    const uint32_t mask = static_cast<uint32_t>(dm_map_.size() - 1);
    uint32_t seen = 0;
    for (size_t k = 0; k < nk; k++) {
      const uint32_t* tab = dm_cols_[k].shifted.data();
      const bool first = k == 0, last = k + 1 == nk;
      const bool fits = ForEachByteCode(
          *keys[k], n, sel, [&](int j, unsigned c) {
            const uint32_t x = first ? tab[c] : comb[j] | tab[c];
            comb[j] = x;
            if (last) {
              seen |= x;
              gids[j] = static_cast<uint32_t>(map[x & mask]);
            }
          });
      if (!fits) return -1;
    }
    return (seen & kDirectUnseen) != 0 ? 0 : 1;
  };
  int coded = probe();
  if (coded < 0) return false;
  if (coded == 0) {
    // New values take the next local code of their column; a column whose
    // distinct count outgrows its bits widens, which re-packs the map.
    bool repack = false;
    for (size_t k = 0; k < nk; k++) {
      DirectColumn& c = dm_cols_[k];
      ForEachByteCode(*keys[k], n, sel, [&](int, unsigned code) {
        if (c.local[code] >= 0) return;
        c.local[code] = static_cast<int16_t>(c.distinct++);
        if (c.distinct > (1 << c.bits)) {
          c.bits++;
          repack = true;
        }
      });
    }
    int shift = 0;
    for (DirectColumn& c : dm_cols_) {
      for (int code = 0; code < kDirectCodes; code++) {
        c.shifted[code] = c.local[code] < 0
                              ? kDirectUnseen
                              : static_cast<uint32_t>(c.local[code]) << shift;
      }
      shift += c.bits;
    }
    if (shift > kDirectMapBits) {
      dm_off_ = true;
      dm_map_ = {};
      return false;
    }
    if (repack) dm_map_.assign(size_t{1} << shift, -1);
    coded = probe();
  }
  bool miss = false;
  for (int j = 0; j < n; j++) miss |= static_cast<int32_t>(gids[j]) < 0;
  if (!miss) return true;
  for (int j = 0; j < n; j++) {
    if (static_cast<int32_t>(gids[j]) >= 0) continue;
    int32_t& slot = dm_map_[comb[j]];
    if (slot < 0) {
      const int i = sel ? sel[j] : j;
      uint32_t g;
      X100_ASSIGN_OR_RETURN(g, FindOrAddRow(keys, i, HashKeyRow(keys, i)));
      slot = static_cast<int32_t>(g);
    }
    gids[j] = static_cast<uint32_t>(slot);
  }
  return true;
}

size_t GroupTable::MemoryBytes() const {
  size_t b = keys_->MemoryBytes();
  b += (buckets_.capacity() + chain_.capacity()) * sizeof(int64_t);
  b += key_hashes_.capacity() * sizeof(uint64_t);
  b += rows_.capacity() * sizeof(int64_t);
  for (const Accum& a : accums_) {
    b += (a.i64.capacity() + a.wraps.capacity() + a.nulls.capacity()) *
             sizeof(int64_t) +
         a.f64.capacity() * sizeof(double);
  }
  b += dm_map_.capacity() * sizeof(int32_t) +
       dm_cols_.size() * sizeof(DirectColumn);
  return b;
}

void GroupTable::SerializeTo(std::vector<uint8_t>* out) const {
  // [u64 keys blob size][keys RowBuffer][hashes][rows], then per accum the
  // arrays its layout keeps and [u8 counts_nulls][nulls]. The chained
  // index is rebuilt on reload — hashes are enough.
  std::vector<uint8_t> keys_blob;
  keys_->SerializeTo(&keys_blob);
  serde::AppendPod<uint64_t>(out, keys_blob.size());
  out->insert(out->end(), keys_blob.begin(), keys_blob.end());
  serde::AppendPodVec(out, key_hashes_);
  serde::AppendPodVec(out, rows_);
  for (const Accum& a : accums_) {
    serde::AppendPodVec(out, a.i64);
    serde::AppendPodVec(out, a.f64);
    serde::AppendPodVec(out, a.wraps);
    serde::AppendPod<uint8_t>(out, a.counts_nulls ? 1 : 0);
    serde::AppendPodVec(out, a.nulls);
  }
}

Result<std::unique_ptr<GroupTable>> GroupTable::Deserialize(
    const Schema& key_schema, std::vector<AggKind> kinds,
    std::vector<TypeId> in_types, const uint8_t* data, size_t size) {
  const Status corrupt = Status::IoError("corrupt agg spill chunk");
  serde::Reader in{data, size};
  uint64_t keys_bytes;
  const uint8_t* keys_blob;
  if (!in.TakePod(&keys_bytes) ||
      !in.Take(static_cast<size_t>(keys_bytes), &keys_blob)) {
    return corrupt;
  }
  auto t = std::make_unique<GroupTable>(key_schema, std::move(kinds),
                                        std::move(in_types));
  auto keys = RowBuffer::Deserialize(key_schema, keys_blob,
                                     static_cast<size_t>(keys_bytes));
  X100_RETURN_IF_ERROR(keys.status());
  t->keys_ = std::move(keys).value();
  const size_t n = static_cast<size_t>(t->keys_->rows());
  if (!in.TakePodVec(n, &t->key_hashes_) || !in.TakePodVec(n, &t->rows_)) {
    return corrupt;
  }
  for (size_t a = 0; a < t->accums_.size(); a++) {
    Accum& acc = t->accums_[a];
    const agg::Layout& l = t->layouts_[a];
    uint8_t counts_nulls;
    if (!in.TakePodVec(l.i64 ? n : 0, &acc.i64) ||
        !in.TakePodVec(l.f64 ? n : 0, &acc.f64) ||
        !in.TakePodVec(l.wraps ? n : 0, &acc.wraps) ||
        !in.TakePod(&counts_nulls) || counts_nulls > 1 ||
        !in.TakePodVec(counts_nulls ? n : 0, &acc.nulls)) {
      return corrupt;
    }
    acc.counts_nulls = counts_nulls != 0;
  }
  t->buckets_.assign(std::max<size_t>(1024, NextPow2(n * 2)), -1);
  t->RebuildIndex();
  return t;
}

void GroupTable::EnsureGlobalGroup() {
  if (keys_->rows() > 0) return;
  std::vector<const Vector*> no_keys;
  keys_->AppendRowFromVectors(no_keys, 0);
  (void)FinishNewGroup(0);
}

Status GroupTable::MergeFrom(const GroupTable& src) {
  for (size_t a = 0; a < accums_.size(); a++) {
    if (src.accums_[a].counts_nulls) EnsureNullCounts(a);
  }
  std::vector<agg::Slots> from(accums_.size());
  for (size_t a = 0; a < accums_.size(); a++) {
    from[a] = const_cast<Accum&>(src.accums_[a]).slots();
  }
  for (int64_t g = 0; g < src.num_groups(); g++) {
    const uint64_t h = src.key_hashes_[g];
    int64_t node = buckets_[h & bucket_mask_];
    while (node >= 0) {
      if (key_hashes_[node] == h) {
        bool eq = true;
        for (int k = 0; k < keys_->schema().num_fields() && eq; k++) {
          eq = CellsEqual(*keys_, k, node, *src.keys_, g);
        }
        if (eq) break;
      }
      node = chain_[node];
    }
    if (node < 0) {
      keys_->AppendRowFromBuffer(*src.keys_, g);
      uint32_t gid;
      X100_ASSIGN_OR_RETURN(gid, FinishNewGroup(h));
      node = gid;
    }
    rows_[node] += src.rows_[g];
    for (size_t a = 0; a < accums_.size(); a++) {
      agg::Combine(kinds_[a], layouts_[a], accums_[a].slots(),
                   static_cast<uint32_t>(node), from[a],
                   static_cast<uint32_t>(g));
    }
  }
  return Status::OK();
}

Result<std::vector<std::unique_ptr<GroupTable>>> GroupTable::SplitByRadix(
    int bits) const {
  std::vector<std::unique_ptr<GroupTable>> parts;
  for (int p = 0; p < (1 << bits); p++) {
    parts.push_back(
        std::make_unique<GroupTable>(keys_->schema(), kinds_, in_types_));
    for (size_t a = 0; a < accums_.size(); a++) {
      if (accums_[a].counts_nulls) parts[p]->EnsureNullCounts(a);
    }
  }
  for (int64_t g = 0; g < num_groups(); g++) {
    const uint64_t h = key_hashes_[g];
    GroupTable& dst = *parts[RadixPartitionOf(h, bits)];
    dst.keys_->AppendRowFromBuffer(*keys_, g);
    uint32_t ng;
    X100_ASSIGN_OR_RETURN(ng, dst.FinishNewGroup(h));
    dst.rows_[ng] = rows_[g];
    for (size_t a = 0; a < accums_.size(); a++) {
      const Accum& s = accums_[a];
      Accum& d = dst.accums_[a];
      if (!s.i64.empty()) d.i64[ng] = s.i64[g];
      if (!s.f64.empty()) d.f64[ng] = s.f64[g];
      if (!s.wraps.empty()) d.wraps[ng] = s.wraps[g];
      if (s.counts_nulls) d.nulls[ng] = s.nulls[g];
    }
  }
  return parts;
}

// ---------------------------------------------------------------------------
// AggBinding
// ---------------------------------------------------------------------------

Status AggBinding::Bind(const Schema& in,
                        const std::vector<ProjectItem>& group_by,
                        const std::vector<AggItem>& aggs) {
  for (const ProjectItem& g : group_by) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(g.expr, in));
    key_schema.AddField(Field(g.name, bound->type, bound->nullable));
    out_schema.AddField(Field(g.name, bound->type, bound->nullable));
    bound_keys.push_back(std::move(bound));
  }
  for (const AggItem& a : aggs) {
    TypeId in_type = TypeId::kI64;
    if (a.input != nullptr) {
      ExprPtr bound;
      X100_ASSIGN_OR_RETURN(bound, BindExpr(a.input, in));
      if (a.kind != AggKind::kCount && bound->type == TypeId::kStr) {
        return Status::NotImplemented("string aggregates not supported");
      }
      in_type = bound->type;
      bound_aggs.push_back(std::move(bound));
    } else {
      if (a.kind != AggKind::kCount) {
        return Status::InvalidArgument("only COUNT(*) may omit its input");
      }
      bound_aggs.push_back(nullptr);
    }
    TypeId out_type;
    switch (a.kind) {
      case AggKind::kCount: out_type = TypeId::kI64; break;
      case AggKind::kAvg: out_type = TypeId::kF64; break;
      case AggKind::kSum:
        out_type = in_type == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64;
        break;
      default: out_type = in_type; break;
    }
    // Aggregates over empty groups / all-NULL inputs yield NULL (except
    // COUNT), hence nullable.
    out_schema.AddField(Field(a.name, out_type, a.kind != AggKind::kCount));
    kinds.push_back(a.kind);
    in_types.push_back(in_type);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AggWorkerState
// ---------------------------------------------------------------------------

Status AggWorkerState::Prepare(const std::vector<ExprPtr>& bound_keys,
                               const std::vector<ExprPtr>& bound_aggs,
                               const Schema& key_schema,
                               const std::vector<AggItem>& aggs,
                               const std::vector<TypeId>& in_types,
                               int vector_size, int radix_bits,
                               SimdLevel simd) {
  simd_ = simd;
  key_progs_.clear();
  agg_progs_.clear();
  for (const ExprPtr& bound : bound_keys) {
    auto prog = ExprProgram::Compile(bound, vector_size, simd);
    X100_RETURN_IF_ERROR(prog.status());
    key_progs_.push_back(std::move(prog).value());
  }
  for (const ExprPtr& bound : bound_aggs) {
    if (bound == nullptr) {
      agg_progs_.push_back(nullptr);
      continue;
    }
    auto prog = ExprProgram::Compile(bound, vector_size, simd);
    X100_RETURN_IF_ERROR(prog.status());
    agg_progs_.push_back(std::move(prog).value());
  }
  // Keyless aggregation has exactly one global group — nothing to
  // partition.
  radix_bits_ = bound_keys.empty() || radix_bits < 0 ? 0 : radix_bits;
  kinds_.clear();
  for (const AggItem& a : aggs) kinds_.push_back(a.kind);
  key_schema_ = key_schema;
  in_types_ = in_types;

  // Update steps: aggregates that resolve to the same single-column
  // kernel (same kind family and input type) fold together, up to
  // kMaxFused per pass. COUNT(*) has no step: the table's row counts are
  // its result.
  steps_.clear();
  for (size_t a = 0; a < aggs.size(); a++) {
    if (agg_progs_[a] == nullptr) continue;
    const agg::UpdateFn one =
        agg::FindUpdate(kinds_[a], in_types[a], 1, false, simd);
    size_t s = 0;
    while (s < steps_.size() &&
           (steps_[s].single != one ||
            static_cast<int>(steps_[s].members.size()) >= agg::kMaxFused)) {
      s++;
    }
    if (s == steps_.size()) {
      steps_.push_back(
          {{}, nullptr, one,
           agg::FindUpdate(kinds_[a], in_types[a], 1, true, simd)});
    }
    steps_[s].members.push_back(static_cast<int>(a));
  }
  for (UpdateStep& st : steps_) {
    const int a = st.members[0];
    st.fused = agg::FindUpdate(kinds_[a], in_types[a],
                               static_cast<int>(st.members.size()), false,
                               simd);
  }

  tables_.clear();
  tables_.push_back(std::make_unique<GroupTable>(key_schema, kinds_, in_types));
  spilled_.clear();
  spilled_.resize(size_t{1} << radix_bits_);
  spill_bytes_ = spill_chunks_ = spill_rows_ = 0;
  reserv_.ReleaseAll();
  key_vecs_.clear();
  agg_vecs_.assign(aggs.size(), nullptr);
  gids_.resize(vector_size);
  hashes_.resize(vector_size);
  hash_tmp_.resize(vector_size);
  parts_.resize(vector_size);
  part_sel_.resize(vector_size);
  part_hash_.resize(vector_size);
  return Status::OK();
}

Status AggWorkerState::Split() {
  if (tables_.size() > 1 || radix_bits_ == 0) return Status::OK();
  X100_ASSIGN_OR_RETURN(tables_, tables_[0]->SplitByRadix(radix_bits_));
  return Status::OK();
}

Status AggWorkerState::EnsureReservation(ExecContext* ctx) {
  reserv_.Init(ctx->memory);
  const auto footprint = [this]() {
    int64_t b = 0;
    for (const auto& t : tables_) {
      b += static_cast<int64_t>(t->MemoryBytes());
    }
    return b;
  };
  // Spill victims largest-first until one pressure event has freed at
  // least kMinSpillBytes: per-partition tables can individually be
  // small, and one tiny spill per batch degrades into micro-spill churn
  // (serialize + write + reload + merge per few KB). Each spilled
  // partition starts over with a fresh table; the barrier merge folds
  // the chunks back via MergeFrom, so a group split across chunks
  // recombines exactly. Freeing nothing when the total spillable state
  // is itself below the floor makes GrowOrSpill force-admit it.
  const auto spill_some = [this, ctx]() -> Result<int64_t> {
    // Chunks are whole partitions, so an unsplit worker splits first.
    X100_RETURN_IF_ERROR(Split());
    int64_t spillable = 0;
    for (const auto& t : tables_) {
      if (t->num_groups() > 0) {
        spillable += static_cast<int64_t>(t->MemoryBytes());
      }
    }
    if (spillable < kMinSpillBytes) return int64_t{0};
    int64_t freed = 0;
    while (freed < kMinSpillBytes) {
      int victim = -1;
      size_t best = 0;
      for (int p = 0; p < num_partitions(); p++) {
        if (tables_[p]->num_groups() == 0) continue;
        const size_t b = tables_[p]->MemoryBytes();
        if (victim < 0 || b > best) {
          best = b;
          victim = p;
        }
      }
      if (victim < 0) break;
      freed += static_cast<int64_t>(tables_[victim]->MemoryBytes());
      std::vector<uint8_t> blob;
      tables_[victim]->SerializeTo(&blob);
      SpillFile file;
      X100_ASSIGN_OR_RETURN(file, SpillFile::Write(ctx->spill_device, blob));
      spill_bytes_ += file.bytes();
      spill_chunks_++;
      spill_rows_ += tables_[victim]->num_groups();
      spilled_[victim].push_back(std::move(file));
      tables_[victim] =
          std::make_unique<GroupTable>(key_schema_, kinds_, in_types_);
      if (key_progs_.empty()) tables_[victim]->EnsureGlobalGroup();
    }
    return freed;
  };
  return GrowOrSpill(&reserv_, ctx->spill_device != nullptr, footprint,
                     spill_some);
}

Status AggWorkerState::MergeSpilled(int partition, GroupTable* dst,
                                    CancellationToken* cancel) const {
  if (partition >= static_cast<int>(spilled_.size())) return Status::OK();
  for (const SpillFile& file : spilled_[partition]) {
    std::vector<uint8_t> blob;
    X100_ASSIGN_OR_RETURN(blob, file.ReadAll(cancel));
    std::unique_ptr<GroupTable> chunk;
    X100_ASSIGN_OR_RETURN(
        chunk, GroupTable::Deserialize(key_schema_, kinds_, in_types_,
                                       blob.data(), blob.size()));
    X100_RETURN_IF_ERROR(dst->MergeFrom(*chunk));
  }
  return Status::OK();
}

void AggWorkerState::RecordSpillProfile(ExecContext* ctx) const {
  if (spill_chunks_ == 0) return;
  OperatorProfile prof;
  prof.op = "AggSpill";
  prof.rows = spill_rows_;
  prof.spill_bytes = spill_bytes_;
  prof.spills = spill_chunks_;
  ctx->RecordOperator(std::move(prof));
}

std::vector<std::unique_ptr<GroupTable>> AggWorkerState::TakeTables() {
  reserv_.ReleaseAll();
  return std::move(tables_);
}

void AggWorkerState::Update(GroupTable* t, int n, const sel_t* sel,
                            const uint32_t* gid) {
  agg::Slots acc[agg::kMaxFused];
  const void* cols[agg::kMaxFused];
  for (const UpdateStep& st : steps_) {
    const int k = static_cast<int>(st.members.size());
    bool nulls = false;
    for (int m = 0; m < k; m++) {
      const Vector* v = agg_vecs_[st.members[m]];
      cols[m] = v->RawData();
      acc[m] = t->accum(st.members[m]).slots();
      nulls |= v->has_nulls();
    }
    if (!nulls) {
      st.fused(n, sel, gid, cols, nullptr, acc);
      continue;
    }
    // A member with NULLs runs alone with the NULL-skipping kernel.
    for (int m = 0; m < k; m++) {
      const Vector* v = agg_vecs_[st.members[m]];
      if (!v->has_nulls()) {
        st.single(n, sel, gid, &cols[m], nullptr, &acc[m]);
        continue;
      }
      t->EnsureNullCounts(st.members[m]);
      const agg::Slots slots = t->accum(st.members[m]).slots();
      st.with_nulls(n, sel, gid, &cols[m], v->nulls(), &slots);
    }
  }
  agg::CountRows(n, gid, t->rows(), t->num_groups());
}

Status AggWorkerState::ConsumeBatch(Batch* in,
                                    const std::vector<AggItem>& aggs) {
  const int n = in->ActiveRows();
  const sel_t* sel = in->sel();
  key_vecs_.clear();
  for (auto& prog : key_progs_) {
    const Vector* v;
    X100_ASSIGN_OR_RETURN(v, prog->Eval(*in));
    key_vecs_.push_back(v);
  }
  for (size_t a = 0; a < aggs.size(); a++) {
    if (agg_progs_[a] == nullptr) continue;
    X100_ASSIGN_OR_RETURN(agg_vecs_[a], agg_progs_[a]->Eval(*in));
  }
  if (key_vecs_.empty()) {
    Update(tables_[0].get(), n, sel, nullptr);
    return Status::OK();
  }
  if (tables_.size() == 1) {
    GroupTable* t = tables_[0].get();
    bool direct;
    X100_ASSIGN_OR_RETURN(direct, t->DirectLookup(key_vecs_, n, sel,
                                                  gids_.data()));
    if (!direct) {
      HashKeys(key_vecs_, n, sel, hashes_.data(), hash_tmp_.data(), simd_);
      X100_RETURN_IF_ERROR(
          t->Lookup(key_vecs_, n, sel, hashes_.data(), gids_.data()));
    }
    Update(t, n, sel, gids_.data());
    return Status::OK();
  }
  // Partitioned: a stable counting sort of the rows by the top hash bits
  // gives every partition its own selection list, hashes and gids; each
  // partition then runs the same lookup and kernels over its list. Group
  // ids are partition-local, so each partition merges without ever seeing
  // another partition's keys.
  HashKeys(key_vecs_, n, sel, hashes_.data(), hash_tmp_.data(), simd_);
  const int np = num_partitions();
  part_start_.assign(np + 1, 0);
  for (int j = 0; j < n; j++) {
    parts_[j] = static_cast<uint32_t>(RadixPartitionOf(hashes_[j],
                                                       radix_bits_));
    part_start_[parts_[j] + 1]++;
  }
  for (int p = 0; p < np; p++) part_start_[p + 1] += part_start_[p];
  for (int j = 0; j < n; j++) {
    const int pos = part_start_[parts_[j]]++;
    part_sel_[pos] = sel ? sel[j] : j;
    part_hash_[pos] = hashes_[j];
  }
  int begin = 0;
  for (int p = 0; p < np; p++) {
    const int end = part_start_[p];  // advanced to the partition's end
    if (end > begin) {
      GroupTable* t = tables_[p].get();
      X100_RETURN_IF_ERROR(t->Lookup(key_vecs_, end - begin,
                                     &part_sel_[begin], &part_hash_[begin],
                                     &gids_[begin]));
      Update(t, end - begin, &part_sel_[begin], &gids_[begin]);
    }
    begin = end;
  }
  return Status::OK();
}

Status AggWorkerState::ConsumeAll(Operator* child, ExecContext* ctx,
                                  const std::vector<AggItem>& aggs) {
  if (key_progs_.empty()) tables_[0]->EnsureGlobalGroup();
  while (true) {
    X100_RETURN_IF_ERROR(ctx->CheckCancel());
    Batch* in;
    X100_ASSIGN_OR_RETURN(in, child->Next());
    if (in == nullptr) break;
    X100_RETURN_IF_ERROR(ConsumeBatch(in, aggs));
    // Partition on demand: one table until the groups outgrow what a
    // single merge task handles cheaply.
    if (tables_.size() == 1 && tables_[0]->num_groups() > kTinyBuildRows) {
      X100_RETURN_IF_ERROR(Split());
    }
    // Memory governance, checked once per batch (group ids stay valid
    // within the batch; a spill swaps tables only between batches).
    X100_RETURN_IF_ERROR(EnsureReservation(ctx));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Emit
// ---------------------------------------------------------------------------

namespace {

Result<Batch*> EmitGroupBatch(GroupTable* t,
                              const std::vector<AggItem>& aggs, int nkeys,
                              int vector_size, int64_t* emit_pos,
                              Batch* out) {
  if (*emit_pos >= t->num_groups()) return nullptr;
  out->Reset();
  const int n = static_cast<int>(
      std::min<int64_t>(vector_size, t->num_groups() - *emit_pos));
  const int64_t* rows = t->rows();
  for (int j = 0; j < n; j++) {
    const int64_t g = *emit_pos + j;
    for (int k = 0; k < nkeys; k++) {
      t->keys().GatherCell(k, g, out->column(k), j);
    }
    for (size_t a = 0; a < aggs.size(); a++) {
      Vector* dst = out->column(nkeys + static_cast<int>(a));
      const agg::Slots acc = t->accum(a).slots();
      const uint32_t ug = static_cast<uint32_t>(g);
      const int64_t nonnull =
          rows[g] - (acc.nulls != nullptr ? acc.nulls[g] : 0);
      const AggKind kind = aggs[a].kind;
      if (kind == AggKind::kCount) {
        dst->Data<int64_t>()[j] = nonnull;
        continue;
      }
      if (nonnull == 0) {
        dst->SetNull(j);  // SQL: aggregate over no (non-NULL) inputs
        continue;
      }
      switch (dst->type()) {
        case TypeId::kF64:
          dst->Data<double>()[j] =
              kind == AggKind::kAvg
                  ? acc.f64[g] / static_cast<double>(nonnull)
                  : acc.f64[g];
          break;
        case TypeId::kI64:
          if (kind == AggKind::kSum) {
            X100_RETURN_IF_ERROR(
                agg::CheckedSum(acc, ug, &dst->Data<int64_t>()[j]));
          } else {
            dst->Data<int64_t>()[j] = acc.i64[g];
          }
          break;
        case TypeId::kI32:
        case TypeId::kDate:
          dst->Data<int32_t>()[j] = static_cast<int32_t>(acc.i64[g]);
          break;
        case TypeId::kI16:
          dst->Data<int16_t>()[j] = static_cast<int16_t>(acc.i64[g]);
          break;
        case TypeId::kI8:
        case TypeId::kBool:
          dst->Data<int8_t>()[j] = static_cast<int8_t>(acc.i64[g]);
          break;
        default:
          return Status::Internal("unexpected aggregate output type");
      }
      if (dst->has_nulls()) dst->MutableNulls()[j] = 0;
    }
  }
  *emit_pos += n;
  out->set_rows(n);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashAggOp (pipeline sink)
// ---------------------------------------------------------------------------

HashAggOp::HashAggOp(std::vector<OperatorPtr> chains,
                     std::vector<ProjectItem> group_by,
                     std::vector<AggItem> aggs, int radix_bits)
    : chains_(std::move(chains)),
      group_items_(std::move(group_by)),
      agg_items_(std::move(aggs)),
      radix_bits_(radix_bits < 0 ? 0 : radix_bits) {
  // Bind at construction so output_schema() precedes Open.
  init_status_ = chains_.empty()
                     ? Status::InvalidArgument(
                           "aggregation needs >= 1 worker chain")
                     : binding_.Bind(chains_[0]->output_schema(),
                                     group_items_, agg_items_);
  // A keyless aggregation has one global group; partitioning it is
  // meaningless (and the workers force bits to 0 anyway).
  if (init_status_.ok() && binding_.bound_keys.empty()) radix_bits_ = 0;
}

Status HashAggOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  X100_RETURN_IF_ERROR(init_status_);
  // Worker chains are NOT opened here: each is opened, drained and closed
  // by its pipeline task so the whole chain runs on one thread.
  out_ = std::make_unique<Batch>(binding_.out_schema, ctx->vector_size);
  return Status::OK();
}

void HashAggOp::CloseImpl() {
  // Chains were closed by their tasks after Consume's barrier; a Close
  // before the pipeline ever ran (error in a sibling operator) closes
  // them here on the caller.
  for (OperatorPtr& c : chains_) {
    if (c) c->Close();
  }
}

Status HashAggOp::Consume() {
  TaskScheduler* sched =
      ctx_->scheduler != nullptr ? ctx_->scheduler : TaskScheduler::Global();
  const int W = static_cast<int>(chains_.size());
  workers_.clear();
  for (int w = 0; w < W; w++) {
    auto ws = std::make_unique<AggWorkerState>();
    X100_RETURN_IF_ERROR(ws->Prepare(binding_.bound_keys,
                                     binding_.bound_aggs,
                                     binding_.key_schema, agg_items_,
                                     binding_.in_types, ctx_->vector_size,
                                     radix_bits_, ctx_->simd));
    workers_.push_back(std::move(ws));
  }

  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx_->quota, ctx_->cancel, W,
      [this](int w, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        Operator* chain = chains_[w].get();
        Status s = chain->Open(ctx_);
        if (s.ok()) {
          s = workers_[w]->ConsumeAll(chain, ctx_, agg_items_);
        }
        chain->Close();
        workers_[w]->RecordSpillProfile(ctx_);
        return s;
      }));

  // Merge fan-out: the first worker's tables become the final tables
  // (one chain emits from the table it built), and one scheduler task per
  // radix partition folds the other workers' tables for that partition
  // into it — partitions hold disjoint key sets, so the tasks share
  // nothing. Partitioning is on demand: when no worker outgrew one
  // table, the merge is one table and one task; otherwise every worker
  // is split alike first. Each task records an "AggMerge" profile entry
  // (rows = merged groups) so merge cost and partition skew are visible.
  // A keyless aggregation still emits its single global row on empty
  // input.
  bool any_split = false;
  for (const auto& ws : workers_) any_split |= ws->num_partitions() > 1;
  if (any_split) {
    for (auto& ws : workers_) X100_RETURN_IF_ERROR(ws->Split());
  }
  final_ = workers_[0]->TakeTables();
  const int P = static_cast<int>(final_.size());
  if (binding_.bound_keys.empty()) final_[0]->EnsureGlobalGroup();
  // The adopted tables' charge moves from the worker to final_mem_: the
  // worker released it in TakeTables, so nothing is counted twice.
  final_mem_.clear();
  final_mem_.resize(P);
  for (int p = 0; p < P; p++) {
    final_mem_[p].Init(ctx_->memory);
    final_mem_[p].ForceGrowTo(
        static_cast<int64_t>(final_[p]->MemoryBytes()));
  }
  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx_->quota, ctx_->cancel, P,
      [this](int p, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t w = 0; w < workers_.size(); w++) {
          if (w > 0) {
            X100_RETURN_IF_ERROR(
                final_[p]->MergeFrom(*workers_[w]->table(p)));
          }
          // Merge-on-reload: chunks this worker spilled for partition p
          // rejoin the fold here, after the live table (order does not
          // matter — MergeFrom combines by aggregate kind).
          X100_RETURN_IF_ERROR(
              workers_[w]->MergeSpilled(p, final_[p].get(), ctx_->cancel));
        }
        // The merged partition must be resident to emit; the drain phase
        // is what spilling bounds. Released when the operator dies.
        final_mem_[p].ForceGrowTo(
            static_cast<int64_t>(final_[p]->MemoryBytes()));
        OperatorProfile prof;
        prof.op = "AggMerge";
        prof.rows = final_[p]->num_groups();
        prof.open_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        ctx_->RecordOperator(std::move(prof));
        return Status::OK();
      }));
  workers_.clear();
  return Status::OK();
}

Result<Batch*> HashAggOp::NextImpl() {
  if (!consumed_) {
    X100_RETURN_IF_ERROR(Consume());
    consumed_ = true;
  }
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  // Stream partitions in order; each partition emits exactly like the
  // single-table path.
  while (emit_part_ < static_cast<int>(final_.size())) {
    Batch* b;
    X100_ASSIGN_OR_RETURN(
        b, EmitGroupBatch(final_[emit_part_].get(), agg_items_,
                          binding_.key_schema.num_fields(),
                          ctx_->vector_size, &emit_pos_, out_.get()));
    if (b != nullptr) return b;
    emit_part_++;
    emit_pos_ = 0;
  }
  return nullptr;
}

}  // namespace x100
