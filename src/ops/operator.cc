#include "ops/operator.h"

#include <algorithm>

#include "common/format.h"

namespace cedr {

std::string OperatorStats::ToString() const {
  return StrCat(name, ": in(i=", in_inserts, " r=", in_retracts,
                " c=", in_ctis, ") out(i=", out_inserts, " r=", out_retracts,
                " c=", out_ctis, ") lost=", lost_corrections,
                " max_state=", max_state_size,
                " max_buffer=", alignment.max_size,
                " blocking(total=", alignment.total_blocking_cs,
                " max=", alignment.max_blocking_cs, ")");
}

Operator::Operator(std::string name, ConsistencySpec spec, int num_inputs)
    : name_(std::move(name)), monitor_(spec, num_inputs) {
  stats_.name = name_;
}

void Operator::ConnectTo(Operator* downstream, int port) {
  downstream_ = downstream;
  downstream_port_ = port;
}

Status Operator::Push(int port, const Message& msg) {
  if (!first_error_.ok()) return first_error_;
  return PushOne(port, msg);
}

Status Operator::PushBatch(int port, std::span<const Message> msgs) {
  if (!first_error_.ok()) return first_error_;
  for (const Message& m : msgs) {
    CEDR_RETURN_NOT_OK(PushOne(port, m));
  }
  return Status::OK();
}

Status Operator::PushOne(int port, const Message& msg) {
  now_cs_ = std::max(now_cs_, msg.cs);
  switch (msg.kind) {
    case MessageKind::kInsert:
      ++stats_.in_inserts;
      break;
    case MessageKind::kRetract:
      ++stats_.in_retracts;
      break;
    case MessageKind::kCti:
      ++stats_.in_ctis;
      break;
  }
  if (monitor_.OfferDirect(port, msg, now_cs_)) {
    // Released untouched: dispatch by const reference, zero copies.
    CEDR_RETURN_NOT_OK(Dispatch(msg, port));
    AfterBatch();
    return Status::OK();
  }
  scratch_released_.clear();
  monitor_.Offer(port, msg, now_cs_, &scratch_released_);
  if (scratch_released_.empty()) {
    // Blocked in the alignment buffer: no dispatch, no tracker movement,
    // no state change — the post-batch trim would be a no-op.
    return Status::OK();
  }
  for (const Message& m : scratch_released_) {
    CEDR_RETURN_NOT_OK(Dispatch(m, port));
  }
  AfterBatch();
  return Status::OK();
}

Status Operator::Drain() {
  if (!first_error_.ok()) return first_error_;
  for (int port = 0; port < monitor_.num_ports(); ++port) {
    scratch_released_.clear();
    monitor_.Drain(port, now_cs_, &scratch_released_);
    for (const Message& m : scratch_released_) {
      CEDR_RETURN_NOT_OK(Dispatch(m, port));
    }
  }
  // Drained messages may lie below the repair horizon, so force the trim.
  AfterBatch(/*force=*/true);
  return Status::OK();
}

Status Operator::Dispatch(const Message& msg, int port) {
  monitor_.NoteDispatch(port, msg);
  if (trim_on_advance_ && msg.SyncTime() <= last_trim_horizon_) {
    // Disorder released below the trimmed horizon (optimistic repair):
    // it may create or shrink state into trimmable territory.
    trim_dirty_ = true;
  }
  switch (msg.kind) {
    case MessageKind::kInsert:
      return ProcessInsert(msg.event, port);
    case MessageKind::kRetract:
      return ProcessRetract(msg.event, msg.new_ve, port);
    case MessageKind::kCti:
      return ProcessCti(msg.time, port);
  }
  return Status::Internal("unknown message kind");
}

void Operator::AfterBatch(bool force) {
  const Time horizon = monitor_.RepairHorizon();
  // For pure-trim operators, a TrimState call is a no-op unless the
  // horizon advanced past the last trim or disorder dispatched a message
  // at-or-below it: releases are otherwise guaranteed above the horizon,
  // so they can only create state that outlives it.
  if (force || !trim_on_advance_ || horizon > last_trim_horizon_ ||
      trim_dirty_) {
    TrimState(horizon);
    last_trim_horizon_ = horizon;
    trim_dirty_ = false;
  }
  stats_.max_state_size = std::max(stats_.max_state_size, StateSize());
}

Status Operator::ProcessCti(Time /*t*/, int /*port*/) {
  EmitCti(OutputGuarantee(monitor_.InputGuarantee()));
  return Status::OK();
}

void Operator::TrimState(Time /*horizon*/) {}

void Operator::EmitInsert(Event e) {
  if (e.valid().empty()) return;
  ++stats_.out_inserts;
  if (downstream_ != nullptr) {
    Message m = InsertOf(std::move(e), now_cs_);
    Status st = downstream_->Push(downstream_port_, m);
    if (!st.ok() && first_error_.ok()) first_error_ = st;
  }
}

void Operator::EmitRetract(const Event& out_event, Time new_ve) {
  Time clamped = std::max(new_ve, out_event.vs);
  if (clamped >= out_event.ve) return;  // no-op correction
  ++stats_.out_retracts;
  if (downstream_ != nullptr) {
    Status st = downstream_->Push(downstream_port_,
                                  RetractOf(out_event, clamped, now_cs_));
    if (!st.ok() && first_error_.ok()) first_error_ = st;
  }
}

void Operator::EmitCti(Time t) {
  if (t == kMinTime || t <= last_emitted_cti_) return;
  last_emitted_cti_ = t;
  ++stats_.out_ctis;
  if (downstream_ != nullptr) {
    Status st = downstream_->Push(downstream_port_, CtiOf(t, now_cs_));
    if (!st.ok() && first_error_.ok()) first_error_ = st;
  }
}

void Operator::SnapshotState(io::BinaryWriter* /*w*/) const {}

Status Operator::RestoreState(io::BinaryReader* /*r*/) {
  return Status::OK();
}

void Operator::Snapshot(io::BinaryWriter* w) const {
  SnapshotBase(w);
  SnapshotState(w);
}

Status Operator::Restore(io::BinaryReader* r) {
  CEDR_RETURN_NOT_OK(RestoreBase(r));
  return RestoreState(r);
}

void Operator::SnapshotBase(io::BinaryWriter* w) const {
  w->PutString(name_);
  w->PutTime(now_cs_);
  w->PutTime(last_emitted_cti_);
  w->PutU64(stats_.in_inserts);
  w->PutU64(stats_.in_retracts);
  w->PutU64(stats_.in_ctis);
  w->PutU64(stats_.out_inserts);
  w->PutU64(stats_.out_retracts);
  w->PutU64(stats_.out_ctis);
  w->PutU64(stats_.lost_corrections);
  w->PutU64(stats_.max_state_size);
  io::WriteStatus(w, first_error_);
  monitor_.Snapshot(w);
}

Status Operator::RestoreBase(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(std::string name, r->GetString());
  if (name != name_) {
    return Status::Corruption("operator snapshot is for '" + name +
                              "', restoring into '" + name_ + "'");
  }
  CEDR_ASSIGN_OR_RETURN(now_cs_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(last_emitted_cti_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(stats_.in_inserts, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.in_retracts, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.in_ctis, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.out_inserts, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.out_retracts, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.out_ctis, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.lost_corrections, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(uint64_t max_state, r->GetU64());
  stats_.max_state_size = static_cast<size_t>(max_state);
  CEDR_RETURN_NOT_OK(io::ReadStatus(r, &first_error_));
  return monitor_.Restore(r);
}

OperatorStats Operator::stats() const {
  OperatorStats out = stats_;
  out.alignment = monitor_.CombinedBufferStats();
  out.max_state_size = std::max(out.max_state_size, StateSize());
  out.cur_state_size = StateSize();
  out.cur_buffered = monitor_.BufferedCount();
  return out;
}

}  // namespace cedr
