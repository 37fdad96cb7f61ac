#include "ops/project.h"

namespace cedr {

namespace {

/// The semantics of the structured form: identical to the
/// planner's OUTPUT-stage transform.
RowTransform MakeGatherTransform(const std::vector<int>* gather,
                                 const SchemaPtr* schema) {
  return [gather, schema](const Row& row) {
    std::vector<Value> values;
    values.reserve(gather->size());
    for (int i : *gather) {
      values.push_back(i >= 0 && i < static_cast<int>(row.size())
                           ? row.at(static_cast<size_t>(i))
                           : Value::Null());
    }
    return Row(*schema, std::move(values));
  };
}

}  // namespace

ProjectOp::ProjectOp(RowTransform transform, ConsistencySpec spec,
                     std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      transform_(std::move(transform)) {}

ProjectOp::ProjectOp(std::vector<int> gather, SchemaPtr output_schema,
                     ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      gather_(std::move(gather)),
      output_schema_(std::move(output_schema)) {
  // Operators are pinned in memory (no copy/move), so the transform may
  // point at the members.
  transform_ = MakeGatherTransform(&gather_, &output_schema_);
}

Event ProjectOp::Apply(const Event& e) const {
  Event out = e;
  out.payload = transform_(e.payload);
  return out;
}

Status ProjectOp::ProcessInsert(const Event& e, int /*port*/) {
  EmitInsert(Apply(e));
  return Status::OK();
}

Status ProjectOp::ProcessRetract(const Event& e, Time new_ve, int /*port*/) {
  EmitRetract(Apply(e), new_ve);
  return Status::OK();
}

void ProjectOp::SnapshotState(io::BinaryWriter* w) const {
  io::WriteStatelessMarker(w);
}

Status ProjectOp::RestoreState(io::BinaryReader* r) {
  return io::ReadStatelessMarker(r);
}

}  // namespace cedr
