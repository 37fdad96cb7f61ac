// Runtime consistency-level switching (Section 5 / the paper's "future
// work": consistency-sensitive optimization that switches levels under
// load).
//
// Section 5 proves that at common sync points all levels have produced
// logically equivalent output, so a query may switch levels there and
// "produce the same subsequent stream as if CEDR had been running at
// that consistency level all along". SwitchableQuery realizes this by
// determinism + replay: the plan state at the last common sync point is
// kept as a barrier snapshot, and only the input since that barrier is
// retained; on SwitchTo(spec) a fresh plan at the new level restores
// the barrier and replays the retained input. Because plans are
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
  static Result<std::unique_ptr<SwitchableQuery>> Create(
      const std::string& text, const Catalog& catalog,
      ConsistencySpec initial_spec);

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
  /// last common sync point (the input before it is folded into the
  /// barrier snapshot), so retention is bounded by the provider's sync
  /// cadence instead of growing with the stream.
  size_t retained_input_size() const { return input_.size(); }

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

  /// Folds the input prefix into a barrier snapshot when every input
  /// type has advanced its sync point past the last barrier.
  void MaybeAdvanceBarrier();

  std::string text_;
  Catalog catalog_;
  /// Input event types of the plan; fixed across SwitchTo (same text).
  std::set<std::string> input_types_;
  ConsistencySpec spec_ = ConsistencySpec::Middle();
  std::unique_ptr<CompiledQuery> active_;
  CompiledQuery::FaultHook fault_hook_;
  /// Retained input for replay, in arrival order: only the suffix since
  /// the last barrier snapshot.
  std::vector<std::pair<std::string, Message>> input_;
  /// Serialized CompiledQuery::Snapshot of the active plan at the last
  /// common sync point; empty until the first barrier. SwitchTo restores
  /// it into the fresh plan and replays only `input_`.
  std::string barrier_state_;
  /// Last sync point seen per input type, and the frontier (minimum over
  /// all input types) at which the current barrier was taken.
  std::map<std::string, Time> input_ctis_;
  Time barrier_cti_ = kMinTime;
  /// Output of all retired plans, identity-deduplicated.
  SpliceState spliced_;
  Time last_cs_ = 0;
  int switches_ = 0;
  bool finished_ = false;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_SWITCHING_H_
