// The runtime detector for the positive (monotonic) WHEN-clause
// operators: one PatternOp runs SEQUENCE, ALL, ATLEAST and ANY. The
// anti-monotonic ATMOST is a NegationWindow (pattern/negation.h).
//
// Out-of-order handling: positive pattern operators are monotonic - a
// straggler can only *add* matches, never invalidate one - so the
// detector stores live contributor candidates per input and, on each
// arrival, enumerates exactly the new matches that include the arrival
// at its own position. Full-removal retractions of a contributor retract
// every emitted composite it participated in (within the repair
// horizon). Under a strong spec the alignment buffers make all of this
// invisible: inputs are already ordered and final when processed.
#ifndef CEDR_PATTERN_SEQUENCE_H_
#define CEDR_PATTERN_SEQUENCE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ops/operator.h"
#include "pattern/instance.h"
#include "pattern/predicate.h"
#include "pattern/sc_mode.h"

namespace cedr {

/// A composite PatternOp emitted, shared by the store entries of its
/// contributors. With the operator's scope and output schema its lineage
/// rebuilds the emitted event. Retracting or expiring it releases the
/// lineage.
struct CompositeRecord {
  Lineage cbt;
  /// Recording order: retractions are emitted in it.
  uint64_t seq = 0;

  bool live() const { return !cbt.empty(); }
};
using CompositeRecordRef = std::shared_ptr<CompositeRecord>;

/// One port's candidates in one partition, ordered by (Vs, id): a flat
/// vector, not a tree. Arrivals mostly come in Vs order, so an insert
/// usually appends; any other is placed by binary search. Trimming
/// erases a prefix.
class CandidateStore {
 public:
  struct Entry {
    Time vs = 0;
    EventId id = 0;
    EventRef event;
    /// A CONSUMEd contributor: enumeration skips it, but it stays so
    /// that its full retraction still finds its composites.
    bool consumed = false;
    /// The composites this contributor is part of.
    std::vector<CompositeRecordRef> composites;
  };
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  /// Stores `e` at its (Vs, id) position and returns its entry. On a
  /// duplicate (Vs, id) the stored entry stays and `second` is false.
  std::pair<iterator, bool> Emplace(EventRef e);
  bool Insert(EventRef e) { return Emplace(std::move(e)).second; }
  /// Moves `other`'s entries in. On a duplicate (Vs, id) the entry
  /// already here stays, unless only it is consumed, and takes the
  /// other's composites.
  void Merge(CandidateStore&& other);
  /// The first entry with Vs >= vs.
  iterator lower_bound(Time vs);
  /// The entry at (vs, id), or end().
  iterator find(Time vs, EventId id);
  void erase(iterator it) { entries_.erase(it); }
  /// Erases the prefix of entries for which `pred` holds; `pred` sees
  /// each erased entry, and then the first kept one, once.
  template <typename Pred>
  void ErasePrefixWhile(Pred pred) {
    auto it = entries_.begin();
    while (it != entries_.end() && pred(*it)) ++it;
    entries_.erase(entries_.begin(), it);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  /// The first entry at or after (vs, id).
  iterator Position(Time vs, EventId id);

  std::vector<Entry> entries_;
};

/// SEQUENCE, ALL, ATLEAST and ANY (Section 3.3.2): n contributors from
/// n distinct inputs with strictly increasing Vs spanning at most the
/// scope w. ALL(E1, ..., Ek, w) is n = k, ANY(E1, ..., Ek) is n = 1 with
/// w = 1, and SEQUENCE(E1, ..., Ek, w) is ALL with its contributors
/// bound in port order (`ordered`, which requires n = k).
///
/// An arrival (the anchor) is completed by one enumeration. At match
/// position d an ordered operator tries only port d, an unordered one
/// every unused port; the anchor's port takes only the anchor. While the
/// anchor is unplaced a candidate lies in [anchor.Vs - w, anchor.Vs);
/// once it is placed, in (prev.Vs, first.Vs + w]. Within that range a
/// port's SC mode picks: FIRST the first candidate, LAST the last one,
/// EACH every one. The bounds never admit a stored copy of the anchor.
/// A composite lists its contributors in port order, so a contributor's
/// position is its input's declaration order, not its arrival order.
///
/// Each port's store is partitioned by a correlation key, one field per
/// port in `partition_key` (any other size: a single partition). The
/// planner gives a key only when every match binds equal key values, so
/// an arrival scans only its own key's partition; the full predicate
/// still runs. Stores hold shared, immutable contributors that
/// composites point at.
///
/// Each emitted composite is recorded once, on the entry of every
/// contributor. A contributor's full retraction retracts the live
/// composites on its entries on every port, in recording order; the
/// trim that drops the earliest contributor's entry expires them.
class PatternOp : public Operator {
 public:
  PatternOp(size_t n, bool ordered, int num_inputs, Duration scope,
            PatternTuplePredicate predicate, ScModes sc_modes,
            SchemaPtr output_schema, ConsistencySpec spec,
            std::vector<FieldSlot> partition_key = {});

  size_t StateSize() const override;
  /// Whether candidates are partitioned by a correlation key.
  bool partitioned() const { return !partition_key_.empty(); }

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  void TrimState(Time horizon) override;
  /// Serializes the live composites in recording order, whether events
  /// are shared across ports, then the candidate stores (each port's
  /// partitions merged in (Vs, id) order), each entry with its consumed
  /// flag and its composites' positions in that order.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  using Store = CandidateStore;
  using Entry = CandidateStore::Entry;
  using Partitions = std::unordered_map<Value, Store>;

  /// Binds the next contributor of the match completing `anchor`, and
  /// emits each match of n contributors that holds the anchor.
  void Extend(const EventRef& anchor, int anchor_port);
  /// Binds the event stored in `owner` (the anchor as it arrived, on its
  /// port) from `port`, extends the match if the predicate holds, and
  /// unbinds.
  void Try(Entry* owner, int port, const EventRef& anchor, int anchor_port);
  /// Emits a composite of the match being enumerated, records it on its
  /// contributors' entries, and marks CONSUME contributors for consumption.
  void EmitComposite(const EventRef& anchor, int anchor_port);

  /// The partition key of `e` on `port`; null when unpartitioned.
  Value KeyOf(const Event& e, int port) const;
  /// KeyOf for storing `e`. A NaN key, which Value::Compare finds equal
  /// to every number, merges every port into one partition for good.
  Value StoreKey(const Event& e, int port);
  /// Finds `e`'s stored entry on `port`: in its key's partition, else
  /// (a retraction whose payload differs from the insert's) in any.
  Store* Find(const Event& e, int port, Store::iterator* it);
  /// `e`'s entry in its key's partition on `port`, or null.
  Entry* Stored(const Event& e, int port);

  size_t n_;
  bool ordered_;
  Duration scope_;
  PatternTuplePredicate predicate_;
  ScModes sc_modes_;
  SchemaPtr output_schema_;

  std::vector<Partitions> stores_;
  std::vector<FieldSlot> partition_key_;
  /// Stored entries, those of them flagged consumed, and live composites:
  /// StateSize, kept as running counts.
  size_t stored_ = 0;
  size_t consumed_ = 0;
  size_t live_composites_ = 0;
  uint64_t next_seq_ = 0;
  /// Each port's partition holding the current arrival's key, or
  /// `no_candidates_`.
  std::vector<Store*> scan_;
  Store no_candidates_;
  // The match being enumerated: contributors, the entries they are
  // stored in, their ports, and which ports are bound.
  std::vector<const Event*> tuple_;
  std::vector<Entry*> owners_;
  std::vector<int> ports_;
  std::vector<bool> used_;
  /// The arrival's entry on its own port.
  Entry* anchor_entry_ = nullptr;
  /// Whether an event has been stored on two ports (a self-join). From
  /// then on, or on a duplicate (Vs, id) arrival, a match can rebuild a
  /// composite already recorded; it is recorded on the arrival's
  /// entries, which `arrival_entries_` then lists on every port.
  bool shared_events_ = false;
  std::vector<Entry*> arrival_entries_;
  std::vector<Entry*> pending_consumption_;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_SEQUENCE_H_
