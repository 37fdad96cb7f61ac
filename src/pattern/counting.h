// Monotonic counting pattern operators (Section 3.3.2): ATLEAST, ALL and
// ANY. The anti-monotonic ATMOST is a NegationWindow (pattern/negation.h).
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

}  // namespace cedr

#endif  // CEDR_PATTERN_COUNTING_H_
