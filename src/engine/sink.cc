#include "engine/sink.h"

#include "stream/canonical.h"

namespace cedr {

CollectingSink::CollectingSink(std::string name)
    : Operator(std::move(name), ConsistencySpec::Middle(), /*num_inputs=*/1) {}

Status CollectingSink::ProcessInsert(const Event& e, int /*port*/) {
  if (closed()) return terminal_;
  ++inserts_;
  messages_.push_back(InsertOf(e, now_cs()));
  return Status::OK();
}

Status CollectingSink::ProcessRetract(const Event& e, Time new_ve,
                                      int /*port*/) {
  if (closed()) return terminal_;
  ++retracts_;
  messages_.push_back(RetractOf(e, new_ve, now_cs()));
  return Status::OK();
}

Status CollectingSink::ProcessCti(Time t, int /*port*/) {
  if (closed()) return terminal_;
  ++ctis_;
  messages_.push_back(CtiOf(t, now_cs()));
  return Status::OK();
}

void CollectingSink::CloseWithError(const Status& error) {
  if (!terminal_.ok() || error.ok()) return;
  terminal_ = error;
}

EventList CollectingSink::Ideal() const {
  return denotation::IdealOf(messages());
}

void CollectingSink::SnapshotState(io::BinaryWriter* w) const {
  SnapshotCounters(w);
  SnapshotLog(w);
}

Status CollectingSink::RestoreState(io::BinaryReader* r) {
  CEDR_RETURN_NOT_OK(RestoreCounters(r));
  return RestoreLog(r);
}

void CollectingSink::SnapshotHead(io::BinaryWriter* w) const {
  SnapshotBase(w);
  SnapshotCounters(w);
}

Status CollectingSink::RestoreHead(io::BinaryReader* r) {
  CEDR_RETURN_NOT_OK(RestoreBase(r));
  return RestoreCounters(r);
}

void CollectingSink::SnapshotLog(io::BinaryWriter* w) const {
  w->PutU64(messages_.size());
  for (const Message& m : messages_) io::WriteMessage(w, m);
}

Status CollectingSink::RestoreLog(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  messages_.clear();
  messages_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Message m, io::ReadMessage(r));
    messages_.push_back(std::move(m));
  }
  return Status::OK();
}

void CollectingSink::SeedLog(std::span<const Message> log) {
  messages_.assign(log.begin(), log.end());
}

void CollectingSink::SnapshotCounters(io::BinaryWriter* w) const {
  w->PutU64(inserts_);
  w->PutU64(retracts_);
  w->PutU64(ctis_);
}

Status CollectingSink::RestoreCounters(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(inserts_, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(retracts_, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(ctis_, r->GetU64());
  return Status::OK();
}

}  // namespace cedr
