// Anti-monotonic patterns (Section 3.3.2): UNLESS, UNLESS', NOT(...,
// SEQUENCE(...)), CANCEL-WHEN and ATMOST are one operator. Each positive
// event becomes a candidate output that survives iff at most the
// window's bound of matching blocking events have Vs strictly inside the
// candidate's window; the five constructs differ only in how the
// NegationWindow draws that window and its bound.
//
// Negation is where the consistency spectrum bites hardest: an output
// asserting the *non-occurrence* of events can only be certain once the
// input guarantee has passed its window:
//
//   strong (B = inf)  candidates are held until the combined input
//                     guarantee closes their negation window, then
//                     emitted clean - blocking grows, no retractions;
//   optimistic        candidates are emitted after at most B time units
//                     of (application-time) delay; a late-arriving
//                     blocker retracts the output, and a full removal of
//                     a blocker resurrects suppressed output - output
//                     grows, blocking stays low;
//   weak (finite M)   corrections whose targets are beyond the repair
//                     horizon are dropped and counted as lost.
#ifndef CEDR_PATTERN_NEGATION_H_
#define CEDR_PATTERN_NEGATION_H_

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ops/operator.h"
#include "pattern/predicate.h"

namespace cedr {

/// How a negation draws the window of a positive event e:
///
///   Unless(w)          output e over [e.Vs, e.Vs + w); window
///                      (e.Vs, e.Vs + w).
///   UnlessPrime(n, w, lookback)
///                      anchored at the n-th (1-based) contributor a of
///                      e: output e over [max(e.Vs, a.Vs + w), e.Vs + w);
///                      window (a.Vs, a.Vs + w).
///   Not(lookback)      output e; window strictly between its earliest
///                      and latest contributor.
///   CancelWhen(lookback)
///                      output e; window (e.Rt, e.Vs), the detection
///                      itself.
///   AtMost(n, w)       output the composite of e alone; window
///                      (e.Vs - w, e.Vs + 1), i.e. the pool (e.Vs - w,
///                      e.Vs], holding at most n events.
///
/// `lookback` bounds how far before e.Vs the anchor, earliest
/// contributor or root time lies: the positive arm's reach (plan::Reach). UNLESS and
/// ATMOST draw their windows from e.Vs and take 0.
///
/// Every candidate is certain once the guarantee reaches the end of its
/// window and passes e.Vs, since a full retraction of e has sync time
/// e.Vs. UNLESS and UNLESS' also lag the output guarantee by w, since a
/// late blocker retracts output that started up to w earlier.
struct NegationWindow {
  enum class Kind { kUnless, kUnlessPrime, kNot, kCancelWhen, kAtMost };

  static NegationWindow Unless(Duration w) {
    return {Kind::kUnless, 0, w, 0};
  }
  static NegationWindow UnlessPrime(size_t n, Duration w, Duration lookback) {
    return {Kind::kUnlessPrime, n, w, lookback};
  }
  static NegationWindow Not(Duration lookback) {
    return {Kind::kNot, 0, 0, lookback};
  }
  static NegationWindow CancelWhen(Duration lookback) {
    return {Kind::kCancelWhen, 0, 0, lookback};
  }
  /// Every arrival, on any port, is both a blocker and a candidate.
  static NegationWindow AtMost(size_t n, Duration w) {
    return {Kind::kAtMost, n, w, 0};
  }

  /// ATMOST pools its ports; the other kinds take positives on port 0
  /// and blockers on port 1.
  bool pooled() const { return kind == Kind::kAtMost; }
  /// How many matching blockers a window holds without blocking.
  size_t bound() const { return pooled() ? n : 0; }

  /// The operator name, serialized in snapshots.
  const char* name() const;
  /// How long a blocker must outlive the repair horizon: as far as a
  /// candidate still to come (its Vs at or past the horizon) or still
  /// pending (its window ends at most w after its start, at or past the
  /// horizon) can reach behind it.
  Duration BlockerRetention() const { return TimeAdd(w, lookback); }

  Kind kind = Kind::kUnless;
  size_t n = 0;
  Duration w = 0;
  Duration lookback = 0;
};

/// Candidate keys due at a time: a flat binary heap ordered by (time,
/// push order), so equal times pop first in, first out - the order of a
/// std::multimap<Time, EventId> fed the same pushes.
class DueQueue {
 public:
  void Push(Time t, EventId key);
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  /// The earliest entry's time; the queue must not be empty.
  Time top_time() const { return heap_.front().t; }
  /// Removes the earliest entry and returns its key.
  EventId Pop();
  /// Drops the entries whose key fails `keep`; the rest keep their order.
  template <typename Keep>
  void Filter(Keep keep) {
    std::erase_if(heap_, [&](const Entry& e) { return !keep(e.key); });
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
  /// Writes the entries in pop order: a count, then (time, key) pairs.
  void Write(io::BinaryWriter* w) const;
  /// Replaces the contents with entries read in the Write format; equal
  /// times keep their read order.
  Status Read(io::BinaryReader* r);

 private:
  struct Entry {
    Time t = 0;
    uint64_t seq = 0;
    EventId key = 0;
  };
  /// The heap comparator: a pops after b.
  static bool Later(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

class NegationOp : public Operator {
 public:
  /// A pooled window takes `num_inputs` ports; the other kinds take two.
  /// `depth` counts the negations below this one in its plan.
  NegationOp(NegationWindow window, NegationPredicate predicate,
             ConsistencySpec spec, int num_inputs = 2, int depth = 0);

  size_t StateSize() const override;

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  /// Freezes (resolves) and drops the candidates whose window and output
  /// the horizon passed, and drops the blockers no candidate can reach.
  void TrimState(Time horizon) override;
  Time OutputGuarantee(Time input_guarantee) const override;
  /// Serializes candidates, resolution indexes, blockers, and frontier
  /// bookkeeping. The indexes are written in pop order (not rebuilt) so
  /// the equal-key insertion order - the resolution order - survives
  /// recovery.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  enum class State { kPending, kEmitted, kSuppressed, kRetracted };

  struct Candidate {
    EventId key = 0;  // the positive event's id, for cancellation
    Event output;
    /// Exposed to the negation predicate: the output's lineage, or the
    /// positive event itself when the output has none.
    Lineage tuple;
    Time block_lo = 0;
    Time block_hi = 0;
    Time certain_at = 0;  // the guarantee needed for finality
    Time resolve_at = 0;  // the watermark for optimistic emission
    State state = State::kPending;
    uint64_t generation = 0;
  };

  /// Draws e's candidate through the window; false if e has none.
  bool Draw(const Event& e, Candidate* c) const;
  void AddCandidate(Candidate c);
  /// False if e falls behind the trim frontier and is dropped.
  bool AddBlocker(const Event& e);
  void RemoveBlocker(const Event& e);
  void CancelCandidate(EventId key);
  bool IsBlocked(const Candidate& c) const;
  /// `c`'s tuple as the predicate takes it, in a reused buffer.
  const std::vector<const Event*>& View(const Candidate& c) const;
  void Resolve(Candidate* c);
  void EmitCandidate(Candidate* c);
  /// Resolves due candidates, forgets the ones the guarantee made
  /// certain, and compacts the indexes. Called after every message,
  /// *before* forwarding a CTI downstream.
  void Advance(Time watermark, Time guarantee);
  /// Drops the index entries of forgotten candidates once they outnumber
  /// the live ones two to one (amortized O(1) per forgotten candidate).
  void CompactIndexes();
  /// Applies fn to every candidate whose window contains vs, and drops
  /// the stale index entries of the range it walks.
  template <typename Fn>
  void ForEachAffected(Time vs, Fn fn);
  /// The first blocker at or after e's (Vs, id).
  std::vector<Event>::iterator BlockerPlace(const Event& e);
  /// Stores e unless a blocker with its (Vs, id) is stored: the first
  /// copy stays.
  void StoreBlocker(Event e);

  NegationWindow window_;
  NegationPredicate predicate_;
  int depth_;
  /// The predicate's view of a candidate's tuple, refilled per call.
  mutable std::vector<const Event*> view_;

  std::unordered_map<EventId, Candidate> candidates_;  // by key
  /// (block_lo, key), ordered by block_lo; equal ones in insertion order.
  std::vector<std::pair<Time, EventId>> by_block_lo_;
  DueQueue by_resolve_at_;
  DueQueue by_certain_at_;
  /// Ordered by (vs, id), one per key: the first to arrive stays.
  std::vector<Event> blockers_;
  Duration max_window_ = 0;  // kInfinity once an unbounded window is seen
  Time last_watermark_ = kMinTime;
  Time last_guarantee_ = kMinTime;
  Time trim_frontier_ = kMinTime;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_NEGATION_H_
