// ConsistencyMonitor (Figure 7): the per-operator component that decides
// whether to block input in alignment buffers until output can be
// produced at the desired consistency level, and that tracks the
// guarantees used to reduce operator state at all levels.
#ifndef CEDR_CONSISTENCY_MONITOR_H_
#define CEDR_CONSISTENCY_MONITOR_H_

#include <memory>
#include <vector>

#include "consistency/guarantee.h"
#include "consistency/spec.h"
#include "ops/alignment_buffer.h"

namespace cedr {

class ConsistencyMonitor {
 public:
  ConsistencyMonitor(ConsistencySpec spec, int num_ports);

  const ConsistencySpec& spec() const { return spec_; }
  int num_ports() const { return static_cast<int>(buffers_.size()); }

  /// Pushes a message through the port's alignment buffer; appends the
  /// messages released to the operational module (possibly none, possibly
  /// several) to `released`, in sync order. The caller owns `released`
  /// (typically a reusable scratch buffer — no per-message allocation).
  void Offer(int port, const Message& msg, Time now_cs,
             std::vector<Message>* released);

  /// Fast path: true when `msg` passes the port's alignment buffer
  /// directly (nothing buffered ahead of it, nothing retained); the
  /// caller dispatches `msg` itself without copying it. False with no
  /// state change when the full Offer path is needed.
  bool OfferDirect(int port, const Message& msg, Time now_cs);

  /// Releases everything still blocked (end of stream); appends to
  /// `released`.
  void Drain(int port, Time now_cs, std::vector<Message>* released);

  /// Records a released message as it is handed to the operational
  /// module. Must be called per message, in dispatch order, so that the
  /// guarantee an operator observes while processing a message reflects
  /// only the CTIs dispatched *before* it (a CTI released in the same
  /// batch as the inserts it unblocked must not be visible early - that
  /// would let strong consistency emit provisional output).
  void NoteDispatch(int port, const Message& msg);

  /// Combined input guarantee as seen by the operational module.
  Time InputGuarantee() const { return tracker_.CombinedGuarantee(); }
  Time PortGuarantee(int port) const { return tracker_.guarantee(port); }
  Time Watermark() const { return tracker_.CombinedWatermark(); }
  Time MaxWatermark() const { return tracker_.MaxWatermark(); }

  /// State older than this can be forgotten; corrections older than this
  /// are lost (weak consistency). max(guarantee, watermark - M).
  Time RepairHorizon() const;

  size_t BufferedCount() const;
  AlignmentStats CombinedBufferStats() const;

  /// Serializes the guarantee tracker and every port's alignment buffer.
  void Snapshot(io::BinaryWriter* w) const;
  /// Restores into a monitor constructed with the same spec and port
  /// count; kCorruption on a port-count mismatch.
  Status Restore(io::BinaryReader* r);

 private:
  ConsistencySpec spec_;  // effective (B clamped to M)
  std::vector<std::unique_ptr<AlignmentBuffer>> buffers_;
  GuaranteeTracker tracker_;
};

}  // namespace cedr

#endif  // CEDR_CONSISTENCY_MONITOR_H_
