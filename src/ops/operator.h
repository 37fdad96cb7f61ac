// Operator: the Figure 7 anatomy. Every runtime operator is a
// consistency monitor (alignment buffers + guarantee tracking) in front
// of an operational module (the subclass), emitting a stream of output
// state updates plus output guarantees (CTIs).
#ifndef CEDR_OPS_OPERATOR_H_
#define CEDR_OPS_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "consistency/monitor.h"
#include "stream/message.h"

namespace cedr {

struct OperatorStats {
  std::string name;
  uint64_t in_inserts = 0;
  uint64_t in_retracts = 0;
  uint64_t in_ctis = 0;
  uint64_t out_inserts = 0;
  uint64_t out_retracts = 0;
  uint64_t out_ctis = 0;
  /// Corrections that had to be dropped because the state they targeted
  /// was already forgotten (weak consistency).
  uint64_t lost_corrections = 0;
  size_t max_state_size = 0;
  /// Current occupancy at the moment stats() was taken (not high-water
  /// marks): events held in operator state and messages blocked in the
  /// alignment buffers. The supervisor's governor keys off these, since
  /// high-water marks never recede once pressure clears.
  size_t cur_state_size = 0;
  size_t cur_buffered = 0;
  AlignmentStats alignment;

  /// Output size in the Figure 8 sense: state updates emitted.
  uint64_t OutputSize() const { return out_inserts + out_retracts; }

  std::string ToString() const;
};

class Operator {
 public:
  Operator(std::string name, ConsistencySpec spec, int num_inputs);
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Wires this operator's output to `downstream`'s input `port`.
  void ConnectTo(Operator* downstream, int port = 0);

  /// Pushes one message into input `port`. The message's cs field is its
  /// CEDR arrival time. The message is passed by const reference down to
  /// the operational module; it is copied only when the alignment buffer
  /// must retain it or an operator stores state.
  Status Push(int port, const Message& msg);
  /// Batched push: same per-message semantics as Push, with the sticky
  /// error check hoisted out of the loop.
  Status PushBatch(int port, std::span<const Message> msgs);

  /// Releases everything still blocked in the alignment buffers (end of
  /// stream). Does not cascade; the engine drains in topological order.
  Status Drain();

  const std::string& name() const { return name_; }
  const ConsistencySpec& spec() const { return monitor_.spec(); }
  const ConsistencyMonitor& monitor() const { return monitor_; }
  int num_inputs() const { return monitor_.num_ports(); }

  /// Number of events currently held in operator state (not counting
  /// alignment buffers). Subclasses report their own state.
  virtual size_t StateSize() const { return 0; }

  /// Snapshot of the statistics (includes alignment buffer stats).
  OperatorStats stats() const;

  /// Serializes the full operator state: base bookkeeping (cs clock,
  /// last emitted CTI, counters, sticky error), the consistency monitor
  /// (alignment buffers + guarantees), then the subclass's
  /// SnapshotState. Wiring (ConnectTo) is not part of the snapshot; the
  /// restoring side rebuilds the plan and reconnects.
  void Snapshot(io::BinaryWriter* w) const;
  /// Restores a Snapshot into a freshly constructed operator of the same
  /// type and configuration. Typed errors: truncation is kDataLoss,
  /// structural mismatch is kCorruption.
  Status Restore(io::BinaryReader* r);

 protected:
  /// Operational-module hooks, called with messages in the order the
  /// consistency monitor releases them.
  virtual Status ProcessInsert(const Event& e, int port) = 0;
  virtual Status ProcessRetract(const Event& e, Time new_ve, int port) = 0;
  /// Default: advances and emits the output guarantee.
  virtual Status ProcessCti(Time t, int port);
  /// Drops the state the repair horizon has passed, and nothing else:
  /// work keyed on the guarantee or the watermark belongs where they
  /// move. Called after a released batch only when the horizon advanced
  /// past the last trim, or when a message at or below the last trimmed
  /// horizon was dispatched since. Default no-op.
  virtual void TrimState(Time horizon);
  /// Maps the combined input guarantee to the output guarantee. Identity
  /// unless the operator shifts valid start times (e.g. hopping windows).
  virtual Time OutputGuarantee(Time input_guarantee) const {
    return input_guarantee;
  }

  /// Subclass state hooks for checkpointing: serialize/restore the
  /// operational module's state (events held, repair-id counters).
  /// Defaults are empty (for stateless operators and test doubles);
  /// stateful operators must override both.
  virtual void SnapshotState(io::BinaryWriter* w) const;
  virtual Status RestoreState(io::BinaryReader* r);
  /// Snapshot/Restore without the subclass state, for a subclass that
  /// also serializes its state in sections (CollectingSink).
  void SnapshotBase(io::BinaryWriter* w) const;
  Status RestoreBase(io::BinaryReader* r);

  void EmitInsert(Event e);
  /// No-op when new_ve >= the event's current ve; clamps at vs.
  void EmitRetract(const Event& out_event, Time new_ve);
  /// Monotonic; duplicates suppressed.
  void EmitCti(Time t);
  void CountLostCorrection() { ++stats_.lost_corrections; }

  Time now_cs() const { return now_cs_; }
  Time repair_horizon() const { return monitor_.RepairHorizon(); }
  Time input_guarantee() const { return monitor_.InputGuarantee(); }
  Time watermark() const { return monitor_.Watermark(); }
  /// Max across ports: this operator's notion of current application
  /// time (optimistic emission deadlines).
  Time max_watermark() const { return monitor_.MaxWatermark(); }

 private:
  Status PushOne(int port, const Message& msg);
  Status Dispatch(const Message& msg, int port);
  void AfterBatch();

  std::string name_;
  ConsistencyMonitor monitor_;
  Operator* downstream_ = nullptr;
  int downstream_port_ = 0;
  Time now_cs_ = 0;
  Time last_emitted_cti_ = kMinTime;
  OperatorStats stats_;
  /// Reusable buffer for messages released by the monitor (alive only
  /// within one Push/Drain; plans are acyclic so Dispatch never re-enters
  /// this operator).
  std::vector<Message> scratch_released_;
  /// Repair horizon at the last TrimState call, and whether a message
  /// at-or-below it was dispatched since.
  Time last_trim_horizon_ = kMinTime;
  bool trim_dirty_ = false;
  /// First downstream failure observed during an Emit* call; surfaced by
  /// the next Push/Drain.
  Status first_error_;
};

}  // namespace cedr

#endif  // CEDR_OPS_OPERATOR_H_
