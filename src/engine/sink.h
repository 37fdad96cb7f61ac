// CollectingSink: terminal operator that records the output stream and
// derives the converged logical result.
#ifndef CEDR_ENGINE_SINK_H_
#define CEDR_ENGINE_SINK_H_

#include <span>

#include "denotation/ideal.h"
#include "ops/operator.h"

namespace cedr {

class CollectingSink : public Operator {
 public:
  explicit CollectingSink(std::string name = "sink");

  /// Every message received, in arrival order (the physical output
  /// stream, including retractions and CTIs).
  const std::vector<Message>& messages() const { return messages_; }

  /// The converged logical output: replay, reduce, drop empties
  /// (Section 6's ideal history table of the output).
  EventList Ideal() const;

  uint64_t inserts() const { return inserts_; }
  uint64_t retracts() const { return retracts_; }
  uint64_t ctis() const { return ctis_; }
  /// Messages emitted in all: the end position of the log.
  uint64_t emitted() const { return inserts_ + retracts_ + ctis_; }
  /// Output size in the Figure 8 sense.
  uint64_t OutputSize() const { return inserts_ + retracts_; }

  /// Terminal status of the output stream: OK while the stream is open.
  /// A quarantined query's sink is closed with the fault that killed it,
  /// so consumers can distinguish "stream ended" from "stream died".
  const Status& terminal() const { return terminal_; }
  bool closed() const { return !terminal_.ok(); }
  /// Closes the sink with a terminal error (first close wins; closing
  /// with OK is a no-op). A closed sink rejects further messages.
  void CloseWithError(const Status& error);

  /// Checkpoint sections. Operator::Snapshot writes the head (operator
  /// bookkeeping and counters, fixed-size) and then the log, which grows
  /// with the output. A snapshot of plan state alone (SnapshotPlan) stops
  /// after the head; restored, its log is empty at position emitted()
  /// until SeedLog refills it with the output the counters count.
  void SnapshotHead(io::BinaryWriter* w) const;
  Status RestoreHead(io::BinaryReader* r);
  void SnapshotLog(io::BinaryWriter* w) const;
  Status RestoreLog(io::BinaryReader* r);
  /// Replaces the log with a copy of `log`, leaving the counters as
  /// RestoreHead set them: `log` must be the output they count.
  void SeedLog(std::span<const Message> log);

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  /// Serializes the counters and the recorded output stream, so a
  /// recovered service resumes with the pre-crash output intact.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  void SnapshotCounters(io::BinaryWriter* w) const;
  Status RestoreCounters(io::BinaryReader* r);

  std::vector<Message> messages_;
  uint64_t inserts_ = 0;
  uint64_t retracts_ = 0;
  uint64_t ctis_ = 0;
  /// OK while open; the terminal fault once closed. Not serialized: a
  /// quarantine is runtime state, and journal replay rebuilds a clean
  /// query (see DESIGN.md, "Fault domains & admission control").
  Status terminal_;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_SINK_H_
