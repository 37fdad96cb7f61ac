// CedrService: the embeddable, crash-recoverable event service -
// register event types, register standing queries (each with its own
// consistency requirement, per the paper's "users can specify
// consistency requirements on a per query basis"), publish
// events/corrections/sync points, and read each query's output.
//
// Durability = a sealed snapshot plus an input journal of every accepted
// call since that snapshot. A snapshot is sealed at an accepted sync
// point once the journal has outgrown it (CheckpointDue, the switching
// barrier's rule): sync points are where the consistency spectrum
// converges (the alignment buffers' guarantees are explicit state), so
// the barrier is well-defined at every level. A snapshot holds each
// query's plan state, not its output log: output delivered before the
// seal belongs to the consumer. Recover restores the snapshot, whose
// sink logs resume empty at position sink().emitted(), and replays the
// journal suffix through Apply; because event identities are
// deterministic (composite ids derive from contributor ids, repair ids
// from checkpointed counters, arrival stamps from the checkpointed cs
// clock), the recovered service re-emits the exact messages of the
// original run from that position on.
#ifndef CEDR_ENGINE_SERVICE_H_
#define CEDR_ENGINE_SERVICE_H_

#include <map>
#include <memory>
#include <optional>

#include "engine/ingress.h"
#include "engine/query.h"

namespace cedr {

class CedrService {
 public:
  /// An empty service, durable from the start: its snapshot holds the
  /// empty state and its journal is empty.
  CedrService();

  /// Declares an event type. Re-registering with an identical schema is
  /// a no-op; changing the schema of a known type is an error.
  Status RegisterEventType(const std::string& name, SchemaPtr schema);

  /// Compiles and registers a standing query. The query's name (from
  /// its EVENT clause) identifies it; duplicates are rejected.
  /// `spec_override` replaces the query's CONSISTENCY clause.
  Result<std::string> RegisterQuery(
      const std::string& text,
      std::optional<ConsistencySpec> spec_override = std::nullopt);

  Status UnregisterQuery(const std::string& name);

  /// Publishes an event occurrence; the service stamps the arrival
  /// (CEDR) time and routes to every query subscribed to `type`.
  Status Publish(const std::string& type, Event event);

  /// Publishes a provider correction: the event's lifetime shrinks to
  /// [vs, new_end).
  Status PublishRetraction(const std::string& type, const Event& original,
                           Time new_end);

  /// Publishes a provider sync point for `type`: no later message on
  /// that type has sync time < t. May seal a snapshot once accepted.
  Status PublishSyncPoint(const std::string& type, Time t);

  /// Ends all inputs and flushes every query (blocking levels emit
  /// their final output here).
  Status Finish();

  /// Applies one call in its journaled form (the calls above are thin
  /// wrappers over it) and journals it once accepted. Recovery replays
  /// the journal suffix through here, and so can any caller that replays
  /// recorded traffic.
  Status Apply(const io::JournalRecord& call);

  Result<const CompiledQuery*> GetQuery(const std::string& name) const;
  std::vector<std::string> QueryNames() const;
  const Catalog& catalog() const { return ingress_.catalog(); }
  Time now() const { return ingress_.now(); }

  /// The durable bytes a crash leaves behind: the last sealed snapshot
  /// and the journal of every accepted call since it.
  const std::string& snapshot_bytes() const { return snapshot_; }
  const std::string& journal_bytes() const { return journal_.bytes(); }

  /// Rebuilds a service from its durable bytes: opens and validates the
  /// snapshot, restores it, then replays every journaled call after the
  /// snapshot's base index. kDataLoss when bytes are missing/truncated
  /// or the journal does not pair with the snapshot; kCorruption when
  /// bytes are present but fail validation. A torn journal tail
  /// (partial final record from a crash mid-write) is not an error: the
  /// torn call was never acknowledged, so the intact prefix is replayed
  /// as the complete history.
  static Result<std::unique_ptr<CedrService>> Recover(
      const std::string& snapshot_bytes, const std::string& journal_bytes);

  /// Serializes the service state: the ingress core (catalog, cs clock,
  /// hardening trackers), the finished flag, and every registered query's
  /// text, spec, and plan state (no output log). Taken at a message
  /// boundary, the snapshot is well-defined at every consistency level.
  Status Checkpoint(io::BinaryWriter* w) const;
  /// Rebuilds a service from a Checkpoint: restores the ingress core,
  /// recompiles every query (plans are deterministic), then restores
  /// plan state, and seals the result as the new durable snapshot.
  /// Because composite ids derive from contributor ids and repair ids
  /// from checkpointed counters, the restored service re-emits identical
  /// event identities for identical input.
  static Result<std::unique_ptr<CedrService>> Restore(io::BinaryReader* r);

 private:
  /// Journals an accepted call; a sync point seals when CheckpointDue.
  Status Log(const io::JournalRecord& call);
  /// Seals the current state as the snapshot and truncates the journal.
  /// A failed checkpoint leaves the previous snapshot/journal pair.
  Status Seal();

  IngressCore ingress_;
  std::map<std::string, std::unique_ptr<CompiledQuery>> queries_;
  bool finished_ = false;
  std::string snapshot_;
  io::JournalWriter journal_;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_SERVICE_H_
