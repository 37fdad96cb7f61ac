// The differential oracle (DESIGN.md, "Differential auditing"): runs a
// compiled query or a single registry operator over a mutated schedule
// of a seeded workload - disorder within bounds, retraction injection,
// serial vs parallel execution, mid-stream snapshot/restore, and
// governor-driven consistency switches - to quiescence, coalesces the
// net output with Star(), and asserts logical equivalence against the
// denotational ideal.
//
// The equality claim follows Definition 6 (well-behavedness): at any
// M = inf point of the spectrum the converged output must Star-equal
// the denotation. Weak runs that actually lost corrections make no
// equality claim (the spec licenses the divergence); they still assert
// that the runtime terminates cleanly. Strong runs over retraction-free
// inputs additionally assert that no retraction was ever emitted;
// source-native retractions are data and may flow through.
#ifndef CEDR_AUDIT_AUDITOR_H_
#define CEDR_AUDIT_AUDITOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consistency/spec.h"
#include "denotation/ideal.h"
#include "engine/source.h"
#include "lang/binder.h"
#include "ops/operator.h"
#include "workload/disorder.h"

namespace cedr {
namespace audit {

enum class ExecMode {
  kSerial,
  kParallel,
  /// Push a prefix, snapshot, restore into a fresh plan, push the rest.
  kSnapshotRestore,
  /// Run a SwitchableQuery, switching consistency level mid-stream
  /// (whole-query mode only; switch specs must keep M = inf so the
  /// spliced stream still converges to the ideal).
  kSwitchLevels,
  /// Push the schedule in batches of ScheduleSpec::batch_size
  /// (Operator::PushBatch over same-port chunks in single-op mode,
  /// CompiledQuery::PushBatch spans in whole-query mode) AND per-event
  /// through a fresh reference instance, then assert the two recorded
  /// output streams are bit-identical before the usual oracle
  /// comparison.
  kBatch,
};

const char* ExecModeToString(ExecMode mode);

struct ScheduleSpec {
  /// Reordering applied independently to every input stream.
  DisorderConfig disorder;
  ExecMode mode = ExecMode::kSerial;
  /// kParallel: worker threads.
  int workers = 4;
  /// kSnapshotRestore: fraction of the merged arrival stream pushed
  /// before the snapshot/restore cut.
  double snapshot_at = 0.5;
  /// kSwitchLevels: (fraction of merged stream, target spec) pairs.
  std::vector<std::pair<double, ConsistencySpec>> switches;
  /// kBatch: messages pushed per batch.
  size_t batch_size = 64;
};

/// One audit case: a target (exactly one of op_name / query_text), a
/// consistency spec, ordered CTI-free input streams, and a schedule.
struct AuditCase {
  std::string name;
  /// Single-operator mode: a key of OpRegistry(). Input streams bind to
  /// ports by position ("in0", "in1", ...).
  std::string op_name;
  /// Whole-query mode: CEDR query text compiled against `catalog`.
  std::string query_text;
  Catalog catalog;
  ConsistencySpec spec = ConsistencySpec::Middle();
  /// Ordered by sync time, no CTIs (disorder regenerates them).
  std::vector<LabeledStream> inputs;
  ScheduleSpec schedule;

  bool single_op() const { return !op_name.empty(); }
};

struct AuditResult {
  /// False when the runtime errored or the converged output diverged
  /// from the denotational ideal.
  bool pass = false;
  /// True when the run lost corrections under a weak spec: the schedule
  /// executed to quiescence but no equality claim is made.
  bool skipped_equality = false;
  uint64_t lost_corrections = 0;
  uint64_t output_retracts = 0;
  Status status;
  /// On failure: what diverged, with both tables rendered.
  std::string detail;
};

/// A registry entry for single-operator audit mode: how to build the
/// runtime operator and how to evaluate its denotational counterpart.
struct OpSpec {
  int num_inputs = 1;
  /// Payload schema name ("kv" or "kvd") the operator expects.
  std::string input_schema = "kv";
  std::function<std::unique_ptr<Operator>(const ConsistencySpec&)> make;
  std::function<EventList(const std::vector<EventList>&)> denote;
};

/// Keyed by name: select, project, join, union, difference, groupby,
/// window, hopping.
const std::map<std::string, OpSpec>& OpRegistry();

class DifferentialAuditor {
 public:
  /// The denotational ideal of the case - over the *ordered* inputs,
  /// since the ideal is invariant under every schedule mutation.
  static Result<EventList> Oracle(const AuditCase& c);

  /// Runs the case's schedule to quiescence and compares against
  /// Oracle(). Never throws; every failure mode lands in the result.
  static AuditResult Run(const AuditCase& c);

  /// The disordered per-input arrival streams of the case (the
  /// workload the schedule actually feeds).
  static std::vector<LabeledStream> ArrivalStreams(const AuditCase& c);
};

}  // namespace audit
}  // namespace cedr

#endif  // CEDR_AUDIT_AUDITOR_H_
