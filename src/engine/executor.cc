#include "engine/executor.h"

#include <algorithm>

namespace cedr {

Executor::Executor(ExecutorConfig config)
    : config_(config), pool_(config.workers) {
  if (config_.batch_size == 0) config_.batch_size = 1;
}

void Executor::Register(CompiledQuery* query) {
  queries_.push_back(query);
  terminal_.push_back(Status::OK());
}

std::vector<size_t> Executor::Quarantined() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < terminal_.size(); ++i) {
    if (!terminal_[i].ok()) out.push_back(i);
  }
  return out;
}

Status Executor::Run(const std::vector<LabeledStream>& streams) {
  const auto merged = MergeByArrival(streams);
  std::span<const TypedMessage> rest(merged);
  while (!rest.empty()) {
    const size_t n = std::min(config_.batch_size, rest.size());
    CEDR_RETURN_NOT_OK(PushBatch(rest.first(n)));
    rest = rest.subspan(n);
  }
  return Finish();
}

Status Executor::PushBatch(std::span<const TypedMessage> batch) {
  if (batch.empty()) return Status::OK();
  // Query-major: each query consumes the whole batch in one task.
  // Queries are independent, so this is output-equivalent to the
  // message-major order and amortizes per-query lookups.
  return FanOut([&](CompiledQuery* query) { return query->PushBatch(batch); });
}

Status Executor::Push(const std::string& event_type, const Message& msg) {
  const TypedMessage one(event_type, msg);
  return PushBatch(std::span<const TypedMessage>(&one, 1));
}

Status Executor::Finish() {
  return FanOut([](CompiledQuery* query) { return query->Finish(); });
}

Status Executor::FanOut(const std::function<Status(CompiledQuery*)>& op) {
  live_.clear();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (terminal_[i].ok()) live_.push_back(i);
  }
  if (live_.empty()) return Status::OK();
  statuses_.resize(live_.size());
  pool_.ParallelFor(live_.size(), [&](size_t slot) {
    statuses_[slot] = GuardQuery([&] { return op(queries_[live_[slot]]); });
  });
  // Quarantine on the coordinating thread, after the barrier: the first
  // fault (in registration order) is reported to the caller, every
  // faulting query is sealed, and the survivors stay live.
  Status first = Status::OK();
  for (size_t slot = 0; slot < live_.size(); ++slot) {
    if (statuses_[slot].ok()) continue;
    const size_t i = live_[slot];
    terminal_[i] = statuses_[slot];
    queries_[i]->CloseWithError(statuses_[slot]);
    ++num_quarantined_;
    if (first.ok()) first = statuses_[slot];
  }
  return first;
}

}  // namespace cedr
