#include "ops/alignment_buffer.h"

#include <algorithm>

#include "common/flat_order.h"

namespace cedr {

AlignmentBuffer::AlignmentBuffer(Duration max_blocking)
    : max_blocking_(max_blocking) {}

Time AlignmentBuffer::Frontier() const {
  Time frontier = guarantee_;
  if (max_blocking_ != kInfinity && watermark_ != kMinTime) {
    frontier = std::max(frontier, TimeSub(watermark_, max_blocking_));
  }
  return frontier;
}

bool AlignmentBuffer::OfferDirect(const Message& msg, Time /*now_cs*/) {
  if (size() != 0) return false;
  if (msg.kind == MessageKind::kCti) {
    guarantee_ = std::max(guarantee_, msg.time);
    watermark_ = std::max(watermark_, msg.time);
    return true;
  }
  // Insert or retract over an empty buffer (no merge target exists).
  const Time sync = msg.SyncTime();
  const Time new_watermark = std::max(watermark_, sync);
  Time frontier = guarantee_;
  if (max_blocking_ != kInfinity && new_watermark != kMinTime) {
    frontier = std::max(frontier, TimeSub(new_watermark, max_blocking_));
  }
  if (!pass_through() && sync > frontier) return false;  // must buffer
  watermark_ = new_watermark;
  return true;
}

void AlignmentBuffer::Offer(const Message& msg, Time now_cs,
                            std::vector<Message>* released) {
  switch (msg.kind) {
    case MessageKind::kCti: {
      guarantee_ = std::max(guarantee_, msg.time);
      watermark_ = std::max(watermark_, msg.time);
      ReleaseUpTo(Frontier(), now_cs, released);
      released->push_back(msg);  // sound: everything covered was released
      return;
    }
    case MessageKind::kRetract: {
      // Merge with a still-buffered insert when possible: the lifetime is
      // corrected before anyone downstream ever saw the optimistic value.
      // Retractions into a non-empty buffer are rare and the buffer is
      // short, so the newest insert of the id is found by a scan.
      auto target = buffered_.end();
      for (auto it = buffered_.begin() + head_; it != buffered_.end(); ++it) {
        if (it->msg.kind == MessageKind::kInsert &&
            it->msg.event.id == msg.event.id &&
            (target == buffered_.end() || it->seq > target->seq)) {
          target = it;
        }
      }
      if (target != buffered_.end()) {
        Event& held_event = target->msg.event;
        held_event.ve = std::min(held_event.ve, msg.new_ve);
        ++stats_.merged_retractions;
        if (held_event.valid().empty()) {
          ++stats_.annihilated_inserts;
          buffered_.erase(target);
        }
        watermark_ = std::max(watermark_, msg.SyncTime());
        ReleaseUpTo(Frontier(), now_cs, released);
        return;
      }
      break;
    }
    case MessageKind::kInsert:
      break;
  }

  watermark_ = std::max(watermark_, msg.SyncTime());
  ReleaseUpTo(Frontier(), now_cs, released);

  if (pass_through() || msg.SyncTime() <= Frontier()) {
    // Either alignment is disabled, or the message is already behind the
    // frontier (disorder beyond B): pass it on for optimistic repair.
    released->push_back(msg);
    return;
  }

  Hold(Held{msg, msg.SyncTime(), now_cs, next_seq_++});
  stats_.max_size = std::max(stats_.max_size, size());
}

void AlignmentBuffer::Hold(Held held) {
  auto key = [](const Held& h) { return std::make_pair(h.sync, h.seq); };
  auto at =
      LowerPlace(buffered_.begin() + head_, buffered_.end(), key(held), key);
  buffered_.insert(at, std::move(held));
}

void AlignmentBuffer::ReleaseUpTo(Time frontier, Time now_cs,
                                  std::vector<Message>* released) {
  while (head_ < buffered_.size() && buffered_[head_].sync <= frontier) {
    Release(&buffered_[head_++], now_cs, released);
  }
  // Drop the released prefix once it is at least half the vector, so a
  // pop costs amortized O(1).
  if (head_ == buffered_.size()) {
    buffered_.clear();
    head_ = 0;
  } else if (2 * head_ >= buffered_.size()) {
    buffered_.erase(buffered_.begin(), buffered_.begin() + head_);
    head_ = 0;
  }
}

void AlignmentBuffer::Release(Held* held, Time now_cs,
                              std::vector<Message>* released) {
  Time blocked = std::max<Time>(0, now_cs - held->arrival_cs);
  stats_.total_blocking_cs += blocked;
  stats_.max_blocking_cs = std::max(stats_.max_blocking_cs, blocked);
  ++stats_.released;
  released->push_back(std::move(held->msg));
}

void AlignmentBuffer::Drain(Time now_cs, std::vector<Message>* released) {
  ReleaseUpTo(kInfinity, now_cs, released);
}

void AlignmentBuffer::Snapshot(io::BinaryWriter* w) const {
  w->PutTime(guarantee_);
  w->PutTime(watermark_);
  w->PutU64(next_seq_);
  w->PutU64(size());
  for (auto it = buffered_.begin() + head_; it != buffered_.end(); ++it) {
    const Held& held = *it;
    io::WriteMessage(w, held.msg);
    w->PutTime(held.arrival_cs);
    w->PutU64(held.seq);
  }
  w->PutU64(stats_.merged_retractions);
  w->PutU64(stats_.annihilated_inserts);
  w->PutU64(stats_.max_size);
  w->PutTime(stats_.total_blocking_cs);
  w->PutTime(stats_.max_blocking_cs);
  w->PutU64(stats_.released);
}

Status AlignmentBuffer::Restore(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(guarantee_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(watermark_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(next_seq_, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  buffered_.clear();
  head_ = 0;
  for (uint64_t i = 0; i < n; ++i) {
    Held held;
    CEDR_ASSIGN_OR_RETURN(held.msg, io::ReadMessage(r));
    CEDR_ASSIGN_OR_RETURN(held.arrival_cs, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(held.seq, r->GetU64());
    held.sync = held.msg.SyncTime();
    Hold(std::move(held));
  }
  CEDR_ASSIGN_OR_RETURN(stats_.merged_retractions, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(stats_.annihilated_inserts, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(uint64_t max_size, r->GetU64());
  stats_.max_size = static_cast<size_t>(max_size);
  CEDR_ASSIGN_OR_RETURN(stats_.total_blocking_cs, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(stats_.max_blocking_cs, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(stats_.released, r->GetU64());
  return Status::OK();
}

}  // namespace cedr
