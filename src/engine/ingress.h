// IngressCore: the ingress rules shared by CedrService and
// SupervisedService. It owns the event-type catalog, the ids published
// per type, the last sync point per type, and the arrival (cs) clock,
// and it is the one place where an ingress call - an io::JournalRecord
// of op kPublish, kRetract or kSyncPoint - becomes a stamped message.
//
// Checks come in two halves because the supervisor runs them at
// different moments: Validate is stateless (catalog and call shape) and
// runs at admission; Stamp checks the call against ingress history
// (retraction references, sync advance) and consumes one arrival stamp.
// A rejected call burns no stamp, so replaying the journal of accepted
// calls reproduces the exact cs sequence of the original run.
#ifndef CEDR_ENGINE_INGRESS_H_
#define CEDR_ENGINE_INGRESS_H_

#include <map>
#include <set>
#include <string>

#include "io/journal.h"
#include "lang/binder.h"

namespace cedr {

class IngressCore {
 public:
  /// Declares an event type: true when added, false when the identical
  /// schema was already registered. Names must be non-empty and contain
  /// no space (journaled type lists are space-joined); changing the
  /// schema of a known type is kAlreadyExists.
  Result<bool> RegisterType(const std::string& name, SchemaPtr schema);

  /// Stateless checks of one ingress call: a known type (kNotFound),
  /// then kInvalidArgument for a payload of another schema, an empty
  /// lifetime, or a retraction that does not shrink the lifetime or
  /// ends before the event's start.
  Status Validate(const io::JournalRecord& call) const;

  /// Checks the call against ingress history - a retraction must
  /// reference an id published on its type (kNotFound), a sync point
  /// must advance (kInvalidArgument) - then stamps the next arrival time
  /// and records the call. A published event's root time becomes its Vs.
  Result<Message> Stamp(const io::JournalRecord& call);

  /// kInvalidArgument unless sync point `t` on `type` advances past
  /// `last`'s entry for that type.
  static Status CheckSyncAdvance(const std::string& type, Time t,
                                 const std::map<std::string, Time>& last);

  const Catalog& catalog() const { return catalog_; }
  /// Last stamped sync point per event type.
  const std::map<std::string, Time>& last_sync() const { return last_sync_; }
  /// The arrival time the next stamped call will get.
  Time now() const { return next_cs_; }

  void Checkpoint(io::BinaryWriter* w) const;
  static Result<IngressCore> Restore(io::BinaryReader* r);

 private:
  Catalog catalog_;
  std::map<std::string, std::set<EventId>> published_;
  std::map<std::string, Time> last_sync_;
  Time next_cs_ = 1;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_INGRESS_H_
