// CompiledQuery: a registered standing query - parsed, bound, optimized,
// compiled to a physical operator graph and wired to a collecting sink.
#ifndef CEDR_ENGINE_QUERY_H_
#define CEDR_ENGINE_QUERY_H_

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/format.h"
#include "engine/sink.h"
#include "engine/stats.h"
#include "lang/binder.h"
#include "plan/optimizer.h"
#include "plan/physical.h"

namespace cedr {

/// One ingress message labeled with its event type: the unit of the
/// batched push path (MergeByArrival produces vectors of these).
using TypedMessage = std::pair<std::string, Message>;

/// The refresh rule of CedrService seals and SwitchableQuery barriers: a
/// checkpoint costs about its own size to take, so a sync point refreshes
/// it only once the input recorded since has grown to this multiple of
/// it, and checkpoint cost is O(1) amortized per message.
inline constexpr size_t kCheckpointRefreshRatio = 2;
inline bool CheckpointDue(size_t input_bytes, size_t checkpoint_bytes) {
  return input_bytes >= kCheckpointRefreshRatio * checkpoint_bytes;
}

/// The fault barrier of one query operation, shared by every engine path
/// that fans work across queries (Executor, SupervisedService): a Status
/// failure passes through, a throw becomes kExecutionError. Keeps one
/// faulting plan from taking down its siblings or the calling thread.
template <typename Fn>
Status GuardQuery(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::ExecutionError(StrCat("query threw: ", e.what()));
  } catch (...) {
    return Status::ExecutionError("query threw a non-standard exception");
  }
}

class CompiledQuery {
 public:
  /// Fault-injection seam (chaos testing): consulted for every message
  /// actually routed to an input port, before the operators see it. A
  /// non-OK return fails the push; the hook may also throw, which the
  /// fault barrier (GuardQuery, in Executor and SupervisedService) must
  /// absorb. Null disables injection.
  using FaultHook =
      std::function<Status(const std::string& type, const Message& msg)>;

  /// Parses, binds, optimizes and builds `text` against `catalog`.
  /// `spec_override` replaces the query's CONSISTENCY clause (used by the
  /// benches to sweep the consistency spectrum over one query).
  static Result<std::unique_ptr<CompiledQuery>> Compile(
      const std::string& text, const Catalog& catalog,
      std::optional<ConsistencySpec> spec_override = std::nullopt);

  /// Pushes one message into every input fed by `event_type`.
  Status Push(const std::string& event_type, const Message& msg);

  /// Pushes a batch of typed messages in order. Semantically identical
  /// to calling Push per element, but amortizes the event-type -> input
  /// port lookup over runs of equal types (the common case for merged
  /// source streams).
  Status PushBatch(std::span<const TypedMessage> batch);

  /// Ends the input: a CTI(inf) on every input port (converging all
  /// consistency levels per Definition 6), then a drain.
  Status Finish();

  const CollectingSink& sink() const { return *sink_; }
  /// Closes the output sink with a terminal error (query quarantine:
  /// the stream died with `error`, it did not end).
  void CloseWithError(const Status& error) { sink_->CloseWithError(error); }
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  /// The registered query text.
  const std::string& text() const { return text_; }
  const plan::BoundQuery& bound() const { return bound_; }
  const plan::PhysicalPlan& physical() const { return *physical_; }

  /// Aggregated statistics including the sink.
  QueryStats Stats() const;

  /// Input event types this query listens to.
  std::vector<std::string> InputTypes() const;

  /// Serializes the runtime state of the query: the plan state (see
  /// SnapshotPlan), then the sink's output log as a trailing section.
  /// The plan structure itself is not serialized: recompiling the query
  /// text deterministically rebuilds it, and Restore refills the state.
  Status Snapshot(io::BinaryWriter* w) const;
  /// Restores a Snapshot into a freshly recompiled query with the same
  /// text and spec. kCorruption when the plan shape does not match.
  Status Restore(io::BinaryReader* r);

  /// The leading section of Snapshot: query bookkeeping, every
  /// operator's state in its own length-prefixed frame, and the sink's
  /// head (CollectingSink::SnapshotHead). Its size does not grow with
  /// the output history.
  Status SnapshotPlan(io::BinaryWriter* w) const;
  /// Restores a SnapshotPlan, leaving the sink's log empty at position
  /// sink().emitted() for SeedOutput to fill or the stream to continue.
  Status RestorePlan(io::BinaryReader* r);
  /// Fills the sink's log after RestorePlan with the output the
  /// snapshotted plan had emitted.
  void SeedOutput(std::span<const Message> log) { sink_->SeedLog(log); }

 private:
  CompiledQuery() = default;

  std::string text_;
  plan::BoundQuery bound_;
  std::unique_ptr<plan::PhysicalPlan> physical_;
  std::unique_ptr<CollectingSink> sink_;
  FaultHook fault_hook_;
  Time last_cs_ = 0;
  bool finished_ = false;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_QUERY_H_
