// Selection (Definition 8): stateless filter over payloads. View update
// compliant and well behaved at every consistency level.
//
// Two construction forms:
//  * an opaque RowPredicate;
//  * a structured conjunction of AttributeComparisons (what every
//    WHERE-clause leaf filter compiles to), evaluated exactly like
//    MakeLocalFilter over a one-event tuple.
#ifndef CEDR_OPS_SELECT_H_
#define CEDR_OPS_SELECT_H_

#include <functional>

#include "ops/operator.h"
#include "pattern/predicate.h"

namespace cedr {

using RowPredicate = std::function<bool(const Row&)>;

class SelectOp : public Operator {
 public:
  SelectOp(RowPredicate predicate, ConsistencySpec spec,
           std::string name = "select");
  /// Structured form.
  SelectOp(std::vector<AttributeComparison> comparisons, ConsistencySpec spec,
           std::string name = "select");

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  /// Stateless: the predicate comes from construction; only a format
  /// marker is written.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  RowPredicate predicate_;
  std::vector<AttributeComparison> comparisons_;
};

}  // namespace cedr

#endif  // CEDR_OPS_SELECT_H_
