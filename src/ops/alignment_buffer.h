// Alignment buffer (Figure 7): holds out-of-order input back so that the
// operational module sees a (more) ordered stream.
//
// A message with sync time s is releasable once the release frontier
//   f = max(port guarantee, port watermark - B)
// reaches s (with B = kInfinity the frontier is the guarantee alone, the
// strong-consistency discipline; with B = 0 everything passes through
// immediately). Messages are released in sync order. While buffered,
// retractions are merged into their buffered insert (the mechanism by
// which blocking shrinks output size, Figure 8): the insert's lifetime is
// simply corrected in place and the retraction disappears. The merge
// target is the newest (last offered) buffered insert of the
// retraction's id, a rule the buffer alone decides, so it is the same
// after a Snapshot/Restore.
//
// The held messages sit in one flat vector ordered by (sync, arrival):
// an in-order arrival appends, a late one is placed by binary search, and
// a release pops a prefix by advancing a head offset.
#ifndef CEDR_OPS_ALIGNMENT_BUFFER_H_
#define CEDR_OPS_ALIGNMENT_BUFFER_H_

#include <cstdint>
#include <vector>

#include "consistency/spec.h"
#include "io/serde.h"
#include "stream/message.h"

namespace cedr {

struct AlignmentStats {
  uint64_t merged_retractions = 0;  // retractions absorbed in the buffer
  uint64_t annihilated_inserts = 0; // inserts fully erased before release
  size_t max_size = 0;
  Time total_blocking_cs = 0;       // sum over released messages
  Time max_blocking_cs = 0;
  uint64_t released = 0;
};

class AlignmentBuffer {
 public:
  /// `max_blocking` is the effective B of the operator's spec.
  explicit AlignmentBuffer(Duration max_blocking);

  /// Offers a message; appends any releasable messages (in sync order) to
  /// `released`. CTIs advance the frontier and are themselves released
  /// after the messages they cover. `now_cs` is the CEDR arrival time.
  void Offer(const Message& msg, Time now_cs, std::vector<Message>* released);

  /// Fast path: when the buffer is empty and `msg` would be released
  /// immediately (pass-through, behind-frontier disorder, or any CTI),
  /// advances the frontiers and returns true — the caller dispatches
  /// `msg` directly, without copying it into a released vector. Returns
  /// false with no state change when the message needs the full Offer
  /// path (something is buffered, or `msg` itself must be buffered).
  bool OfferDirect(const Message& msg, Time now_cs);

  /// Releases everything still buffered (end of stream).
  void Drain(Time now_cs, std::vector<Message>* released);

  size_t size() const { return buffered_.size() - head_; }
  bool pass_through() const { return max_blocking_ == 0; }

  Time guarantee() const { return guarantee_; }
  Time watermark() const { return watermark_; }
  /// The release frontier f described above.
  Time Frontier() const;

  const AlignmentStats& stats() const { return stats_; }

  /// Serializes guarantee/watermark frontiers, the buffered messages,
  /// and statistics. max_blocking_ comes from construction and is not
  /// part of the snapshot.
  void Snapshot(io::BinaryWriter* w) const;
  /// Restores into an empty buffer constructed with the same spec.
  Status Restore(io::BinaryReader* r);

 private:
  struct Held {
    Message msg;
    Time sync = 0;  // msg.SyncTime()
    Time arrival_cs = 0;
    uint64_t seq = 0;  // tie-break for equal sync times: arrival order
  };

  /// Places `held` at its (sync, seq) position.
  void Hold(Held held);
  void ReleaseUpTo(Time frontier, Time now_cs, std::vector<Message>* released);
  void Release(Held* held, Time now_cs, std::vector<Message>* released);

  Duration max_blocking_;
  Time guarantee_ = kMinTime;
  Time watermark_ = kMinTime;
  uint64_t next_seq_ = 0;

  // Held messages in (sync, seq) order from head_ on; the entries before
  // head_ are released and moved from.
  std::vector<Held> buffered_;
  size_t head_ = 0;

  AlignmentStats stats_;
};

}  // namespace cedr

#endif  // CEDR_OPS_ALIGNMENT_BUFFER_H_
