// Result<T>: a value or an error Status, modeled on arrow::Result.
#ifndef CEDR_COMMON_RESULT_H_
#define CEDR_COMMON_RESULT_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace cedr {

template <typename T>
class Result {
 public:
  /// Constructs an error result. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT implicit
    assert(!status_.ok());
  }
  /// Constructs a success result.
  Result(T value) : value_(std::move(value)) {}  // NOLINT implicit

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// The value; on an error, prints the status and aborts, whatever the
  /// build type.
  const T& ValueOrDie() const& {
    DieUnlessOk();
    return *value_;
  }
  T& ValueOrDie() & {
    DieUnlessOk();
    return *value_;
  }
  T ValueOrDie() && {
    DieUnlessOk();
    return std::move(*value_);
  }
  /// Same as ValueOrDie; name used by CEDR_ASSIGN_OR_RETURN.
  T ValueUnsafe() && { return std::move(*value_); }

  /// Returns the value, or `alternative` on error.
  T ValueOr(T alternative) const& { return ok() ? *value_ : alternative; }

 private:
  void DieUnlessOk() const {
    if (ok()) return;
    std::fprintf(stderr, "Result::ValueOrDie on an error: %s\n",
                 status_.ToString().c_str());
    std::abort();
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace cedr

#endif  // CEDR_COMMON_RESULT_H_
