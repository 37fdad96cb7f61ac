// SQL projection (Definition 7): stateless payload transform; timestamps
// untouched. The transform must be pure so a retraction can recompute the
// projected payload it originally emitted.
//
// Two construction forms:
//  * an opaque RowTransform;
//  * a structured gather (output field j takes input field gather[j],
//    out-of-range indices yield nulls) - what the planner's OUTPUT stage
//    compiles to. It behaves exactly like the equivalent RowTransform.
#ifndef CEDR_OPS_PROJECT_H_
#define CEDR_OPS_PROJECT_H_

#include <functional>

#include "ops/operator.h"

namespace cedr {

using RowTransform = std::function<Row(const Row&)>;

class ProjectOp : public Operator {
 public:
  ProjectOp(RowTransform transform, ConsistencySpec spec,
            std::string name = "project");
  /// Structured form.
  ProjectOp(std::vector<int> gather, SchemaPtr output_schema,
            ConsistencySpec spec, std::string name = "project");

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  /// Stateless: the transform comes from construction; only a format
  /// marker is written.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  Event Apply(const Event& e) const;

  RowTransform transform_;
  std::vector<int> gather_;
  SchemaPtr output_schema_;
};

}  // namespace cedr

#endif  // CEDR_OPS_PROJECT_H_
