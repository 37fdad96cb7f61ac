// Temporal group-by aggregation with view update (snapshot) semantics:
// at every instant each non-empty group outputs its key fields followed
// by aggregate values over the events alive at that instant; output
// lifetimes are maximal intervals of constant value.
//
// Incremental form: live input events are stored per group; a change
// recomputes the group's fragment set by endpoint sweep and repairs the
// emitted output through RepairableOutput. State and repair are bounded
// by the consistency spec's horizon.
#ifndef CEDR_OPS_GROUPBY_H_
#define CEDR_OPS_GROUPBY_H_

#include <map>
#include <string>
#include <vector>

#include "consistency/retraction.h"
#include "ops/aggregate.h"
#include "ops/operator.h"

namespace cedr {

class GroupByAggregateOp : public Operator {
 public:
  /// `key_fields` may be empty (one global group). `output_schema` must
  /// be key fields followed by one field per aggregate.
  GroupByAggregateOp(std::vector<std::string> key_fields,
                     std::vector<AggregateSpec> aggregates,
                     SchemaPtr output_schema, ConsistencySpec spec,
                     std::string name = "groupby");

  size_t StateSize() const override;

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  void TrimState(Time horizon) override;
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  struct Contributor {
    Interval lifetime;
    std::vector<Value> agg_inputs;  // one per non-count aggregate spec
  };

  std::vector<Value> KeyOf(const Row& payload) const;
  Status Recompute(const std::vector<Value>& key);

  std::vector<std::string> key_fields_;
  std::vector<AggregateSpec> aggregates_;
  SchemaPtr output_schema_;

  std::map<std::vector<Value>, std::map<EventId, Contributor>> groups_;
  RepairableOutput output_;
  Time frontier_ = kMinTime;
  /// Recompute scratch (reused across calls): sorted/uniqued lifetime
  /// endpoints and per-aggregate input columns for one segment.
  std::vector<Time> scratch_endpoints_;
  std::vector<std::vector<Value>> scratch_columns_;
  /// Strong consistency (B = inf) withholds output beyond the input
  /// guarantee: an aggregate's value there is still provisional (a
  /// future in-order insert can change it), and strong never retracts.
  bool conservative_ = false;
};

}  // namespace cedr

#endif  // CEDR_OPS_GROUPBY_H_
