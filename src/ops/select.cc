#include "ops/select.h"

namespace cedr {

namespace {

/// The semantics of the structured form: identical to the
/// planner's leaf filter (a one-event tuple fed to Evaluate).
RowPredicate MakeComparisonPredicate(
    const std::vector<AttributeComparison>* comparisons) {
  return [comparisons](const Row& row) {
    Event tmp;
    tmp.payload = row;
    std::vector<const Event*> tuple = {&tmp};
    for (const AttributeComparison& c : *comparisons) {
      if (!c.Evaluate(tuple)) return false;
    }
    return true;
  };
}

}  // namespace

SelectOp::SelectOp(RowPredicate predicate, ConsistencySpec spec,
                   std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      predicate_(std::move(predicate)) {}

SelectOp::SelectOp(std::vector<AttributeComparison> comparisons,
                   ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      comparisons_(std::move(comparisons)) {
  // Operators are pinned in memory (no copy/move), so the predicate may
  // point at the member vector.
  predicate_ = MakeComparisonPredicate(&comparisons_);
}

Status SelectOp::ProcessInsert(const Event& e, int /*port*/) {
  if (predicate_(e.payload)) EmitInsert(e);
  return Status::OK();
}

Status SelectOp::ProcessRetract(const Event& e, Time new_ve, int /*port*/) {
  // The retraction matters downstream only if the insert passed.
  if (predicate_(e.payload)) EmitRetract(e, new_ve);
  return Status::OK();
}

void SelectOp::SnapshotState(io::BinaryWriter* w) const {
  io::WriteStatelessMarker(w);
}

Status SelectOp::RestoreState(io::BinaryReader* r) {
  return io::ReadStatelessMarker(r);
}

}  // namespace cedr
