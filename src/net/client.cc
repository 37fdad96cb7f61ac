#include "net/client.h"

#include <algorithm>

#include "common/format.h"

namespace cedr {
namespace net {

namespace {

/// Extracts the "retry after N ticks" hint from a backpressure message;
/// 0 when the message carries none.
int64_t ParseRetryHint(const std::string& message) {
  static constexpr char kMarker[] = "retry after ";
  auto pos = message.find(kMarker);
  if (pos == std::string::npos) return 0;
  pos += sizeof(kMarker) - 1;
  int64_t hint = 0;
  while (pos < message.size() && message[pos] >= '0' && message[pos] <= '9') {
    hint = hint * 10 + (message[pos] - '0');
    ++pos;
  }
  return hint;
}

}  // namespace

SourceClient::SourceClient(SimulatedTransport* transport, std::string source,
                           ClientConfig config)
    : transport_(transport),
      source_(std::move(source)),
      config_(config),
      rng_(config.seed) {
  if (config_.window == 0) config_.window = 1;
  if (config_.retransmit_after < 1) config_.retransmit_after = 1;
  if (config_.backoff_base < 1) config_.backoff_base = 1;
  if (config_.backoff_max < config_.backoff_base) {
    config_.backoff_max = config_.backoff_base;
  }
}

Status SourceClient::Connect() { return HandshakeAndResync(); }

Status SourceClient::HandshakeAndResync() {
  CEDR_ASSIGN_OR_RETURN(SourceSession::ResumePoint resume,
                        transport_->Handshake(source_));
  ++stats_.handshakes;
  epoch_ = resume.epoch;
  connected_ = true;
  // The resume point is authoritative: everything below it was accepted
  // by the server even if the acks never made it back.
  while (!pending_.empty() && pending_.front().seq < resume.next_seq) {
    ++stats_.resync_acked;
    ++stats_.submitted;
    pending_.pop_front();
  }
  // Whatever survives was never accepted; it must retransmit under the
  // new epoch (frames of the old epoch still in flight will be fenced).
  for (auto& p : pending_) {
    p.sent_at = -1;
    p.eligible_at = 0;
  }
  // A reconnect is a fresh start for flow control too.
  paused_until_ = 0;
  consecutive_backpressure_ = 0;
  // A client that was never enqueued into is still consistent: the next
  // call it enqueues continues the server's numbering.
  if (resume.next_seq > next_seq_) next_seq_ = resume.next_seq;
  return Status::OK();
}

void SourceClient::Enqueue(io::JournalRecord call) {
  Pending p;
  p.seq = next_seq_++;
  p.call = std::move(call);
  pending_.push_back(std::move(p));
  ++stats_.enqueued;
}

void SourceClient::Publish(const std::string& type, Event event) {
  Enqueue(io::PublishCall(type, std::move(event)));
}

void SourceClient::Retract(const std::string& type, const Event& original,
                           Time new_end) {
  Enqueue(io::RetractCall(type, original, new_end));
}

void SourceClient::SyncPoint(const std::string& type, Time t) {
  Enqueue(io::SyncCall(type, t));
}

void SourceClient::BeginBackoff(int64_t now, int64_t server_hint) {
  ++consecutive_backpressure_;
  ++stats_.backoffs;
  stats_.last_retry_hint = server_hint;
  // Exponential component: base doubled per consecutive rejection.
  int64_t pause = config_.backoff_base;
  for (int i = 1; i < consecutive_backpressure_ &&
                  pause < config_.backoff_max;
       ++i) {
    pause *= 2;
  }
  pause = std::min(pause, config_.backoff_max);
  // The server knows its own queue; never retry sooner than its hint.
  pause = std::max(pause, server_hint);
  // Jitter desynchronizes colliding clients: uniform in [0, pause).
  pause += static_cast<int64_t>(
      rng_.NextBounded(static_cast<uint64_t>(pause) + 1));
  paused_until_ = std::max(paused_until_, now + pause);
  stats_.max_backoff_ticks = std::max(stats_.max_backoff_ticks, pause);
}

void SourceClient::ProcessAcks(int64_t now) {
  for (Ack& ack : transport_->DrainAcks(source_)) {
    if (ack.epoch != epoch_) {
      // An answer addressed to a connection that no longer exists.
      ++stats_.stale_acks;
      continue;
    }
    auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [&](const Pending& p) { return p.seq == ack.seq; });
    if (it == pending_.end()) {
      ++stats_.duplicate_acks;  // already settled (dup ack or dup frame)
      continue;
    }
    const StatusCode code = ack.result.code();
    if (ack.result.ok()) {
      ++stats_.submitted;
      consecutive_backpressure_ = 0;
      pending_.erase(it);
    } else if (code == StatusCode::kResourceExhausted) {
      ++stats_.backpressure_acks;
      it->sent_at = -1;  // consumed no seq; retry verbatim after the pause
      BeginBackoff(now, ParseRetryHint(ack.result.message()));
    } else if (code == StatusCode::kOutOfRange) {
      // This frame raced ahead of a wire-dropped predecessor. Re-arm it
      // and make the earliest unacked frame (the hole) eligible now -
      // nothing can advance until it lands.
      ++stats_.gap_acks;
      it->sent_at = -1;
      if (!pending_.empty()) {
        pending_.front().sent_at = -1;
        pending_.front().eligible_at = 0;
      }
    } else if (code == StatusCode::kExecutionError) {
      // Stale epoch or quarantine under our *current* epoch: the server
      // fenced us (e.g. someone else reconnected the source). Force a
      // fresh handshake below.
      ++stats_.stale_acks;
      connected_ = false;
    } else {
      // Anything else is not a protocol outcome; keep the frame armed so
      // the harness's conservation checks surface the mismatch.
      it->sent_at = -1;
    }
  }
}

Status SourceClient::Pump(int64_t now) {
  ProcessAcks(now);
  if (!transport_->LinkUp(source_)) connected_ = false;
  if (!connected_) {
    CEDR_RETURN_NOT_OK(HandshakeAndResync());
  }
  if (now < paused_until_) return Status::OK();

  // Count frames still occupying the window: transmitted, unacked, and
  // not yet past their retransmit deadline.
  size_t outstanding = 0;
  for (const Pending& p : pending_) {
    if (p.sent_at >= 0 && now - p.sent_at < config_.retransmit_after) {
      ++outstanding;
    }
  }
  // (Re)transmit in seq order - the window always works on the oldest
  // holes first, which is what GapPolicy::kReject needs to make
  // progress.
  for (Pending& p : pending_) {
    if (outstanding >= config_.window) break;
    if (now < p.eligible_at) continue;
    const bool expired =
        p.sent_at >= 0 && now - p.sent_at >= config_.retransmit_after;
    if (p.sent_at >= 0 && !expired) continue;  // still in flight
    if (expired) ++stats_.deadline_expiries;
    Frame frame;
    frame.epoch = epoch_;
    frame.seq = p.seq;
    frame.call = p.call;
    if (!transport_->Send(source_, std::move(frame), now)) {
      // Link reset between our check and the send; handshake next tick.
      connected_ = false;
      break;
    }
    if (p.times_sent == 0) {
      ++stats_.sends;
    } else {
      ++stats_.retransmissions;
    }
    ++p.times_sent;
    p.sent_at = now;
    p.eligible_at = now + config_.retransmit_after;
    ++outstanding;
  }
  return Status::OK();
}

}  // namespace net
}  // namespace cedr
