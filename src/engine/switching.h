// Runtime consistency-level switching (Section 5 / the paper's "future
// work": consistency-sensitive optimization that switches levels under
// load).
//
// Section 5 proves that at common sync points all levels have produced
// logically equivalent output, so a query may switch levels there and
// "produce the same subsequent stream as if CEDR had been running at
// that consistency level all along". SwitchableQuery realizes this by
// determinism + replay: the plan state at a common sync point is kept
// as a barrier snapshot, and only the input since that barrier is
// retained; on SwitchTo(spec) a fresh plan at the new level restores
// the barrier and replays the retained input.
//
// The barrier holds the plan's operator state but not the sink's output
// log, which grows with the stream: its sink counters carry the log's
// length N, and a switch seeds the fresh plan's sink with the first N
// messages of the retiring plan's log (every plan since the barrier
// starts its log with them). The barrier is refreshed only at common
// sync points where the input retained since the last refresh has
// outgrown it (CheckpointDue), so snapshotting costs O(1)
// amortized per message. A switch still restores the state at the
// latest common sync point, as if a barrier had been taken at each: it
// first rolls the barrier forward to that point by replaying the
// retained input up to it at the retiring level. Because plans are
// deterministic - composite ids derive from contributor ids, repair ids
// from per-operator counters - the new run reproduces the old run's
// event identities, so the spliced output stream (old output before
// the switch, new output after) is a well-formed CEDR stream:
// retractions emitted after the switch correctly reference optimistic
// inserts emitted before it.
#ifndef CEDR_ENGINE_SWITCHING_H_
#define CEDR_ENGINE_SWITCHING_H_

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "engine/query.h"

namespace cedr {

class SwitchableQuery {
 public:
  /// Compiles `text` at `initial_spec`, or at the query's own
  /// CONSISTENCY clause (CompiledQuery's default without one) when it is
  /// nullopt.
  static Result<std::unique_ptr<SwitchableQuery>> Create(
      const std::string& text, const Catalog& catalog,
      std::optional<ConsistencySpec> initial_spec);

  Status Push(const std::string& event_type, const Message& msg);

  /// Pushes a batch in order, retaining and forwarding only messages
  /// whose event type is an input of this query. The filter mirrors the
  /// supervisor's per-query routing, so one shared ingress batch can be
  /// handed to every query verbatim (the basis of parallel routing).
  Status PushBatch(std::span<const TypedMessage> batch);

  Status Finish();

  /// Switches the running query to `spec`. Returns the CEDR time of the
  /// switch. May be called multiple times.
  Result<Time> SwitchTo(ConsistencySpec spec);

  const ConsistencySpec& current_spec() const { return spec_; }
  int switches() const { return switches_; }

  /// The spliced physical output stream: segments produced by each
  /// level, concatenated at the switch times.
  std::vector<Message> OutputMessages() const;

  /// Converged logical output of the spliced stream.
  EventList Ideal() const;

  /// Statistics of the currently active plan.
  QueryStats Stats() const { return active_->Stats(); }
  const CompiledQuery& active() const { return *active_; }

  /// Closes the active plan's sink with a terminal error (quarantine).
  void CloseWithError(const Status& error) {
    active_->CloseWithError(error);
  }

  /// Fault-injection seam (chaos testing): consulted once per live
  /// message routed to this query, before the plan sees it. Replay
  /// during SwitchTo does NOT re-fire the hook (replayed input already
  /// passed it once). The hook may return a non-OK Status or throw;
  /// both are handled by the caller's fault-domain barrier. Null
  /// disables injection.
  void set_fault_hook(CompiledQuery::FaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  /// Messages currently retained for replay: only the suffix since the
  /// barrier (the input before it is folded into the barrier snapshot).
  /// Retention is bounded by the larger of the provider's sync cadence
  /// and the refresh rule's kCheckpointRefreshRatio * barrier_bytes() /
  /// sizeof(TypedMessage) messages, instead of growing with the stream.
  size_t retained_input_size() const { return input_.size(); }

  /// Size of the barrier snapshot: the plan state at the barrier,
  /// without the output log. 0 before the first common sync point.
  size_t barrier_bytes() const { return barrier_state_.size(); }
  /// Barrier snapshots taken so far (refreshes plus the roll-forwards a
  /// switch makes).
  uint64_t barriers() const { return barriers_; }

 private:
  SwitchableQuery() = default;

  struct SpliceState {
    std::vector<Message> messages;
    std::set<EventId> inserted;
    std::set<std::pair<EventId, Time>> retracted;
    Time last_cti = kMinTime;

    /// Appends `more` while skipping messages whose identity was already
    /// emitted (deterministic plans re-emit identical ids on replay) and
    /// keeping CTIs monotone.
    void Append(const std::vector<Message>& more);
  };

  /// At a common sync point (every input type has advanced its sync
  /// point past the last one), folds the retained input into a fresh
  /// barrier snapshot when the refresh rule says so.
  void MaybeAdvanceBarrier();
  /// Installs `plan_state` (a SnapshotPlan) as the barrier at the last
  /// common sync point, and drops the input it folds in.
  void SetBarrier(std::string plan_state);
  /// A fresh plan at `spec` holding the barrier state with the
  /// retained input up to `replay_end` replayed into it.
  Result<std::unique_ptr<CompiledQuery>> RestoreBarrier(
      ConsistencySpec spec, size_t replay_end) const;

  std::string text_;
  Catalog catalog_;
  /// Input event types of the plan; fixed across SwitchTo (same text).
  std::set<std::string> input_types_;
  ConsistencySpec spec_ = ConsistencySpec::Middle();
  std::unique_ptr<CompiledQuery> active_;
  CompiledQuery::FaultHook fault_hook_;
  /// Retained input for replay, in arrival order: only the suffix since
  /// the barrier snapshot.
  std::vector<TypedMessage> input_;
  /// CompiledQuery::SnapshotPlan of the active plan at a common sync
  /// point; empty until the first one. SwitchTo restores it into the
  /// fresh plan, seeds the sink with the retiring plan's log up to the
  /// barrier, and replays only `input_`.
  std::string barrier_state_;
  uint64_t barriers_ = 0;
  /// Last sync point seen per input type, and the frontier (minimum over
  /// all input types) at the last common sync point.
  std::map<std::string, Time> input_ctis_;
  Time sync_frontier_ = kMinTime;
  /// Length of the prefix of `input_` that ends at the last common sync
  /// point when no barrier was taken there; 0 when the barrier is at it.
  size_t sync_pos_ = 0;
  /// Output of all retired plans, identity-deduplicated.
  SpliceState spliced_;
  Time last_cs_ = 0;
  int switches_ = 0;
  bool finished_ = false;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_SWITCHING_H_
