// Counting pattern operators (Section 3.3.2): ATLEAST, ALL, ANY and the
// anti-monotonic ATMOST.
#ifndef CEDR_PATTERN_COUNTING_H_
#define CEDR_PATTERN_COUNTING_H_

#include "pattern/sequence.h"

namespace cedr {

/// ATLEAST(n, E1, ..., Ek, w): n events drawn from n *distinct* inputs
/// with strictly increasing Vs spanning at most w. Monotonic, so the
/// same incremental machinery as SEQUENCE applies. ALL(E1, ..., Ek, w)
/// is ATLEAST(k, E1, ..., Ek, w) and ANY(E1, ..., Ek) is
/// ATLEAST(1, E1, ..., Ek, 1).
class AtLeastOp : public PatternOpBase {
 public:
  AtLeastOp(size_t n, int num_inputs, Duration scope,
            PatternTuplePredicate predicate, ScModes sc_modes,
            SchemaPtr output_schema, ConsistencySpec spec,
            std::vector<FieldSlot> partition_key = {},
            std::string name = "atleast");

 protected:
  Status OnNewCandidate(const EventRef& e, int port) override;

 private:
  void Extend(bool anchor_used, const EventRef& anchor, int anchor_port);

  size_t n_;
  std::vector<bool> used_;  // ports bound in the match being enumerated
};

/// ATMOST(n, E1, ..., Ek, w): an output for each input event e such that
/// the pooled input count in (e.Vs - w, e.Vs] is at most n (the paper's
/// sliding-count-aggregate sugar). Anti-monotonic: a straggler can bump a
/// count past n, retracting previously emitted output; a full removal can
/// resurrect it.
class AtMostOp : public Operator {
 public:
  AtMostOp(size_t n, int num_inputs, Duration scope, PatternTuplePredicate predicate,
           ConsistencySpec spec, std::string name = "atmost");

  size_t StateSize() const override;

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  void TrimState(Time horizon) override;
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  struct Tracked {
    Event source;
    Event composite;       // as emitted (generation-adjusted id)
    bool emitted = false;
    bool eligible = false; // passed the tuple predicate
    uint64_t generation = 0;
  };

  size_t CountWindow(Time vs) const;
  /// Re-evaluates every tracked event whose window contains vs.
  void Reevaluate(Time vs);
  void Evaluate(Tracked* t);

  size_t n_;
  Duration scope_;
  PatternTuplePredicate predicate_;
  std::map<std::pair<Time, EventId>, EventId> pool_;  // (vs, id) -> id
  std::unordered_map<EventId, Tracked> tracked_;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_COUNTING_H_
