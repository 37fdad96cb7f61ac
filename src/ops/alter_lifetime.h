// AlterLifetime (Definition 12): Pi_{fvs, fdelta}(S) maps each event to
// the lifetime [|fvs(e)|, |fvs(e)| + |fdelta(e)|). The paper's single
// non-view-update-compliant (but well behaved) operator, from which
// windows and insert/delete separation are built.
//
// Runtime incrementalization: an input retraction changes the input ve;
// the operator recomputes the output lifetime. When the output start is
// unchanged and the end shrank, it emits a retraction; when the output
// moved or grew, it fully retracts the old output (ve -> vs) and inserts
// a replacement with a fresh id - Section 4's remove-and-reinsert.
#ifndef CEDR_OPS_ALTER_LIFETIME_H_
#define CEDR_OPS_ALTER_LIFETIME_H_

#include <functional>
#include <optional>
#include <unordered_map>

#include "ops/operator.h"

namespace cedr {

using LifetimeStartFn = std::function<Time(const Event&)>;
using LifetimeDurationFn = std::function<Duration(const Event&)>;
/// Maps the input guarantee to a sound output guarantee (identity unless
/// fvs can move starts earlier, e.g. hopping windows).
using GuaranteeMapFn = std::function<Time(Time)>;

class AlterLifetimeOp : public Operator {
 public:
  AlterLifetimeOp(LifetimeStartFn fvs, LifetimeDurationFn fdelta,
                  ConsistencySpec spec, std::string name = "alter_lifetime",
                  GuaranteeMapFn guarantee_map = nullptr);

  size_t StateSize() const override { return emitted_.size(); }

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  void TrimState(Time horizon) override;
  Time OutputGuarantee(Time input_guarantee) const override;
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  /// The remapped event, or nullopt when the lifetime is empty.
  std::optional<Event> Apply(const Event& e) const;
  /// Records `out` as input `id`'s live output, unless the repair
  /// horizon already passed its end. A start function that moves Vs back
  /// (a hopping window with wl < period) maps an input above the horizon
  /// to such an output, and nothing can repair it.
  void Track(EventId id, const Event& out);

  LifetimeStartFn fvs_;
  LifetimeDurationFn fdelta_;
  GuaranteeMapFn guarantee_map_;
  /// Output event currently live per input id (for repair).
  std::unordered_map<EventId, Event> emitted_;
  uint64_t reissue_counter_ = 0;
};

/// W_wl(S) = Pi_{Vs, min(Ve - Vs, wl)}: clips each lifetime to at most
/// wl - the paper's moving (sliding) window.
std::unique_ptr<AlterLifetimeOp> MakeSlidingWindowOp(Duration wl,
                                                     ConsistencySpec spec);

/// Hopping window via integer division: lifetime [floor(Vs/p)*p,
/// floor(Vs/p)*p + wl).
std::unique_ptr<AlterLifetimeOp> MakeHoppingWindowOp(Duration wl,
                                                     Duration period,
                                                     ConsistencySpec spec);

/// Inserts(S) = Pi_{Vs, inf}(S).
std::unique_ptr<AlterLifetimeOp> MakeInsertsOp(ConsistencySpec spec);

/// Deletes(S) = Pi_{Ve, inf}(S); events with infinite Ve produce nothing
/// until a retraction makes their end time known.
std::unique_ptr<AlterLifetimeOp> MakeDeletesOp(ConsistencySpec spec);

}  // namespace cedr

#endif  // CEDR_OPS_ALTER_LIFETIME_H_
