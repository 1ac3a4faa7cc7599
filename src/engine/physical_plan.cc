#include "engine/physical_plan.h"

#include "engine/database.h"
#include "exec/exchange.h"
#include "exec/sort.h"

namespace x100 {

void ExtractScanPushdown(const ExprPtr& pred, const Schema& schema,
                         std::vector<ScanPredicate>* out) {
  if (pred == nullptr || pred->kind != Expr::Kind::kCall) return;
  if (pred->fn == "and") {
    ExtractScanPushdown(pred->args[0], schema, out);
    ExtractScanPushdown(pred->args[1], schema, out);
    return;
  }
  RangeOp op;
  if (pred->fn == "eq") {
    op = RangeOp::kEq;
  } else if (pred->fn == "lt") {
    op = RangeOp::kLt;
  } else if (pred->fn == "le") {
    op = RangeOp::kLe;
  } else if (pred->fn == "gt") {
    op = RangeOp::kGt;
  } else if (pred->fn == "ge") {
    op = RangeOp::kGe;
  } else {
    return;
  }
  if (pred->args.size() != 2) return;
  const ExprPtr& l = pred->args[0];
  const ExprPtr& r = pred->args[1];
  if (l->kind == Expr::Kind::kColRef && r->kind == Expr::Kind::kConst &&
      !r->constant.is_null()) {
    const int col = schema.FindField(l->name);
    if (col >= 0) out->push_back({col, op, r->constant});
    return;
  }
  // Flipped comparison (`const OP col`): mirror the operator. The seed
  // dropped these, silently losing MinMax group skipping.
  if (l->kind == Expr::Kind::kConst && r->kind == Expr::Kind::kColRef &&
      !l->constant.is_null()) {
    RangeOp mirrored;
    switch (op) {
      case RangeOp::kEq: mirrored = RangeOp::kEq; break;
      case RangeOp::kLt: mirrored = RangeOp::kGt; break;  // c < x => x > c
      case RangeOp::kLe: mirrored = RangeOp::kGe; break;
      case RangeOp::kGt: mirrored = RangeOp::kLt; break;
      case RangeOp::kGe: mirrored = RangeOp::kLe; break;
    }
    const int col = schema.FindField(r->name);
    if (col >= 0) out->push_back({col, mirrored, l->constant});
  }
}

Result<OperatorPtr> BuildScanOp(const AlgebraNode& node, PlannerContext* pc,
                                const ExprPtr& pushdown_pred) {
  UpdatableTable* table;
  X100_ASSIGN_OR_RETURN(table, pc->db->GetTable(node.table));
  const Schema& schema = table->base()->schema();
  ScanOptions opts;
  if (node.scan_columns.empty()) {
    for (int c = 0; c < schema.num_fields(); c++) opts.columns.push_back(c);
  } else {
    for (const std::string& name : node.scan_columns) {
      const int c = schema.FindField(name);
      if (c < 0) {
        return Status::NotFound("column " + name + " not in " + node.table);
      }
      opts.columns.push_back(c);
    }
  }
  if (pushdown_pred != nullptr) {
    ExtractScanPushdown(pushdown_pred, schema, &opts.predicates);
  }
  if (node.morsel_group >= 0) {
    // Every producer clone with this id pulls from one dynamic source
    // (legacy rewriter-parallelized plans).
    MorselSourcePtr& src = pc->morsel_sources[node.morsel_group];
    if (src == nullptr) {
      src = std::make_shared<MorselSource>(table->base()->num_groups());
    }
    opts.morsels = src;
  } else if (pc->cloning) {
    // Pipeline clone: every clone of this scan node pulls block groups
    // dynamically from one shared source — no static partitioning, so a
    // skewed group cannot serialize a worker chain.
    MorselSourcePtr& src = pc->scan_sources[&node];
    if (src == nullptr) {
      src = std::make_shared<MorselSource>(table->base()->num_groups());
    }
    opts.morsels = src;
  }
  return OperatorPtr(std::make_unique<ScanOp>(
      table->View(), table->SnapshotPdt(), pc->db->buffers(),
      std::move(opts)));
}

bool IsClonablePipeline(const AlgebraPtr& node) {
  switch (node->kind) {
    case AlgebraNode::Kind::kScan:
      return node->morsel_group < 0;  // not already rewriter-parallelized
    case AlgebraNode::Kind::kSelect:
    case AlgebraNode::Kind::kProject:
      return IsClonablePipeline(node->children[0]);
    case AlgebraNode::Kind::kJoin:
      // The probe side streams through the clone; the build side becomes
      // its own (possibly parallel) pipeline behind a shared build state.
      return IsClonablePipeline(node->children[1]);
    default:
      return false;  // pipeline breakers end a streaming chain
  }
}

Result<std::vector<OperatorPtr>> BuildPipelineChains(
    const AlgebraPtr& node, int n, PlannerContext* pc,
    const PhysicalPlanner* planner) {
  std::vector<OperatorPtr> chains;
  const bool prev = pc->cloning;
  pc->cloning = true;
  for (int w = 0; w < n; w++) {
    auto op = planner->Build(node, pc);
    if (!op.ok()) {
      pc->cloning = prev;
      return op.status();
    }
    chains.push_back(std::move(op).value());
  }
  pc->cloning = prev;
  return chains;
}

namespace {

Result<OperatorPtr> ScanFactory(const AlgebraPtr& node, PlannerContext* pc,
                                const PhysicalPlanner*) {
  return BuildScanOp(*node, pc, nullptr);
}

Result<OperatorPtr> SelectFactory(const AlgebraPtr& node, PlannerContext* pc,
                                  const PhysicalPlanner* planner) {
  // Select directly over a scan: hand the predicate down for MinMax group
  // skipping (the Select still filters exactly).
  OperatorPtr child;
  if (node->children[0]->kind == AlgebraNode::Kind::kScan) {
    X100_ASSIGN_OR_RETURN(
        child, BuildScanOp(*node->children[0], pc, node->predicate));
  } else {
    X100_ASSIGN_OR_RETURN(child, planner->Build(node->children[0], pc));
  }
  return OperatorPtr(std::make_unique<SelectOp>(
      std::move(child), CloneExpr(node->predicate)));
}

Result<OperatorPtr> ProjectFactory(const AlgebraPtr& node,
                                   PlannerContext* pc,
                                   const PhysicalPlanner* planner) {
  OperatorPtr child;
  X100_ASSIGN_OR_RETURN(child, planner->Build(node->children[0], pc));
  std::vector<ProjectItem> items;
  for (const ProjectItem& item : node->items) {
    items.push_back({item.name, CloneExpr(item.expr)});
  }
  return OperatorPtr(
      std::make_unique<ProjectOp>(std::move(child), std::move(items)));
}

/// Deep-copies the group-by/aggregate lists (each clone binds its own
/// expressions).
void CloneAggItems(const AlgebraNode& node, std::vector<ProjectItem>* keys,
                   std::vector<AggItem>* aggs) {
  for (const ProjectItem& k : node.group_by) {
    keys->push_back({k.name, CloneExpr(k.expr)});
  }
  for (const AggItem& a : node.aggs) {
    aggs->push_back(
        {a.kind, a.input ? CloneExpr(a.input) : nullptr, a.name});
  }
}

/// The input chains of a pipeline breaker: `parallelism` clones of a
/// streaming input, one chain otherwise (a serial plan, a breaker or
/// exchange below, or a breaker inside a clone being built).
Result<std::vector<OperatorPtr>> BuildSinkChains(
    const AlgebraPtr& input, PlannerContext* pc,
    const PhysicalPlanner* planner) {
  if (pc->parallelism > 1 && !pc->cloning && IsClonablePipeline(input)) {
    return BuildPipelineChains(input, pc->parallelism, pc, planner);
  }
  std::vector<OperatorPtr> chains;
  OperatorPtr child;
  X100_ASSIGN_OR_RETURN(child, planner->Build(input, pc));
  chains.push_back(std::move(child));
  return chains;
}

Result<OperatorPtr> AggrFactory(const AlgebraPtr& node, PlannerContext* pc,
                                const PhysicalPlanner* planner) {
  std::vector<ProjectItem> keys;
  std::vector<AggItem> aggs;
  CloneAggItems(*node, &keys, &aggs);
  // Pipeline decomposition: the aggregation is the sink of its input's
  // pipeline — each chain drained by a scheduler task into a per-worker
  // group table, merged at the barrier.
  std::vector<OperatorPtr> chains;
  X100_ASSIGN_OR_RETURN(chains, BuildSinkChains(node->children[0], pc,
                                                planner));
  return OperatorPtr(std::make_unique<HashAggOp>(
      std::move(chains), std::move(keys), std::move(aggs), pc->radix_bits));
}

/// Upper-bound row estimate for a streaming build spine: a scan's table
/// row count carried through Select/Project links (they never add rows).
/// Joins (inner joins multiply) and breakers return -1 (unknown).
int64_t EstimateSpineRows(const AlgebraPtr& node, Database* db) {
  switch (node->kind) {
    case AlgebraNode::Kind::kScan: {
      auto table = db->GetTable(node->table);
      return table.ok() ? (*table)->base()->num_rows() : -1;
    }
    case AlgebraNode::Kind::kSelect:
    case AlgebraNode::Kind::kProject:
      return EstimateSpineRows(node->children[0], db);
    default:
      return -1;
  }
}

Result<OperatorPtr> JoinFactory(const AlgebraPtr& node, PlannerContext* pc,
                                const PhysicalPlanner* planner) {
  // The build side is its own pipeline behind a shared JoinBuildState:
  // created once per logical join, reused by every probe clone. The
  // build runs as scheduler tasks either way; a clonable build input gets
  // `parallelism` chains over one morsel source.
  JoinBuildStatePtr& state = pc->join_states[node.get()];
  if (state == nullptr) {
    const int build_width =
        pc->parallelism > 1 && IsClonablePipeline(node->children[0])
            ? pc->parallelism
            : 1;
    std::vector<OperatorPtr> build_chains;
    X100_ASSIGN_OR_RETURN(
        build_chains, BuildPipelineChains(node->children[0], build_width,
                                          pc, planner));
    std::vector<int> bkeys;
    for (const std::string& k : node->build_keys) {
      const int c = build_chains[0]->output_schema().FindField(k);
      if (c < 0) return Status::NotFound("build key not found: " + k);
      bkeys.push_back(c);
    }
    // Tiny-build cutoff, applied only under AUTO radix sizing: when the
    // scan spine bounds the build under kTinyBuildRows, partitioning
    // would cost ~2^radix_bits empty per-worker buffers for a merge that
    // one task handles comfortably. The estimate travels into the build
    // state so the drain can re-size the merge fan-out when the
    // OBSERVED cardinality proves it badly wrong (kRadixResizeFactor) —
    // base-table counts miss PDT-inserted rows entirely. Explicit
    // radix_bits settings are never overridden in either direction.
    const int64_t estimate = EstimateSpineRows(node->children[0], pc->db);
    int build_bits = pc->radix_bits;
    if (pc->configured_radix_bits < 0) {
      build_bits = RadixBitsForBuild(build_bits, estimate);
    }
    state = std::make_shared<JoinBuildState>(
        std::move(build_chains), std::move(bkeys), build_bits, estimate,
        /*allow_radix_resize=*/pc->configured_radix_bits < 0);
  }
  OperatorPtr probe;
  X100_ASSIGN_OR_RETURN(probe, planner->Build(node->children[1], pc));
  std::vector<int> pkeys;
  for (const std::string& k : node->probe_keys) {
    const int c = probe->output_schema().FindField(k);
    if (c < 0) return Status::NotFound("probe key not found: " + k);
    pkeys.push_back(c);
  }
  return OperatorPtr(std::make_unique<JoinProbeOp>(
      std::move(probe), state, std::move(pkeys), node->join_type));
}

Result<OperatorPtr> OrderFactory(const AlgebraPtr& node, PlannerContext* pc,
                                 const PhysicalPlanner* planner) {
  auto resolve_keys =
      [&](const Schema& in) -> Result<std::vector<SortKey>> {
    std::vector<SortKey> keys;
    for (const AlgebraNode::OrderKey& k : node->order_keys) {
      const int c = in.FindField(k.column);
      if (c < 0) return Status::NotFound("order key not found: " + k.column);
      keys.push_back({c, k.ascending});
    }
    return keys;
  };
  // Sort sink: each chain sorts its own run. A single chain over a
  // non-streaming input (an aggregation, say) is range-split across
  // `parallelism` sort tasks instead; a sort inside a clone stays one way.
  std::vector<OperatorPtr> chains;
  X100_ASSIGN_OR_RETURN(chains, BuildSinkChains(node->children[0], pc,
                                                planner));
  std::vector<SortKey> keys;
  X100_ASSIGN_OR_RETURN(keys, resolve_keys(chains[0]->output_schema()));
  return OperatorPtr(std::make_unique<SortOp>(
      std::move(chains), std::move(keys), node->limit,
      pc->cloning ? 1 : pc->parallelism));
}

Result<OperatorPtr> XchgFactory(const AlgebraPtr& node, PlannerContext* pc,
                                const PhysicalPlanner* planner) {
  std::vector<OperatorPtr> producers;
  for (const AlgebraPtr& c : node->children) {
    OperatorPtr p;
    X100_ASSIGN_OR_RETURN(p, planner->Build(c, pc));
    producers.push_back(std::move(p));
  }
  return OperatorPtr(std::make_unique<XchgOp>(std::move(producers)));
}

}  // namespace

void PhysicalPlanner::Register(AlgebraNode::Kind kind, Factory factory) {
  factories_[kind] = std::move(factory);
}

bool PhysicalPlanner::Has(AlgebraNode::Kind kind) const {
  return factories_.count(kind) > 0;
}

Result<OperatorPtr> PhysicalPlanner::Build(const AlgebraPtr& node,
                                           PlannerContext* pc) const {
  auto it = factories_.find(node->kind);
  if (it == factories_.end()) {
    return Status::NotImplemented("no physical factory for algebra kind " +
                                 std::to_string(static_cast<int>(node->kind)));
  }
  return it->second(node, pc, this);
}

namespace {

/// True if the streaming spine (Select/Project links, the probe side of
/// joins) contains a join — the case where a root-level pipeline is
/// worth cloning. A bare scan spine is deliberately excluded: unioning
/// scan clones would only shuffle row order for zero parallel work.
bool StreamingSpineHasJoin(const AlgebraPtr& node) {
  switch (node->kind) {
    case AlgebraNode::Kind::kJoin:
      return true;
    case AlgebraNode::Kind::kSelect:
    case AlgebraNode::Kind::kProject:
      return StreamingSpineHasJoin(node->children[0]);
    default:
      return false;
  }
}

}  // namespace

Result<OperatorPtr> BuildRootOperator(const AlgebraPtr& root,
                                      PlannerContext* pc,
                                      const PhysicalPlanner* planner) {
  // A join at the plan root (possibly under Select/Project links) has no
  // pipeline-breaker sink whose worker chains would embed probe clones,
  // so without special handling it gets a parallel build but a serial
  // probe. Clone the whole streaming chain (probe spine included) and
  // union the clones through an exchange sink — the root-level analogue
  // of embedding probes in an Aggr/Order sink. Row order across clones
  // is nondeterministic, which SQL permits for a sink-less plan (no
  // ORDER BY).
  if (pc->parallelism > 1 && !pc->cloning && IsClonablePipeline(root) &&
      StreamingSpineHasJoin(root)) {
    std::vector<OperatorPtr> chains;
    X100_ASSIGN_OR_RETURN(
        chains, BuildPipelineChains(root, pc->parallelism, pc, planner));
    return OperatorPtr(std::make_unique<XchgOp>(std::move(chains)));
  }
  return planner->Build(root, pc);
}

const PhysicalPlanner& PhysicalPlanner::Default() {
  static const PhysicalPlanner* planner = [] {
    auto* p = new PhysicalPlanner();
    p->Register(AlgebraNode::Kind::kScan, ScanFactory);
    p->Register(AlgebraNode::Kind::kSelect, SelectFactory);
    p->Register(AlgebraNode::Kind::kProject, ProjectFactory);
    p->Register(AlgebraNode::Kind::kAggr, AggrFactory);
    p->Register(AlgebraNode::Kind::kJoin, JoinFactory);
    p->Register(AlgebraNode::Kind::kOrder, OrderFactory);
    p->Register(AlgebraNode::Kind::kXchg, XchgFactory);
    return p;
  }();
  return *planner;
}

}  // namespace x100
