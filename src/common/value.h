// Dynamically typed values for event payloads.
//
// The paper treats payloads as opaque relational tuples ("rather like a
// stack frame"); operators other than selection/projection/join predicates
// never inspect them. Value is the cell type of those tuples.
#ifndef CEDR_COMMON_VALUE_H_
#define CEDR_COMMON_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/hash.h"
#include "common/result.h"

namespace cedr {

enum class ValueType { kNull = 0, kBool, kInt64, kDouble, kString };

const char* ValueTypeToString(ValueType type);

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(bool v) : data_(v) {}                       // NOLINT implicit
  Value(int64_t v) : data_(v) {}                    // NOLINT implicit
  Value(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT implicit
  Value(double v) : data_(v) {}                     // NOLINT implicit
  Value(std::string v) : data_(std::move(v)) {}     // NOLINT implicit
  Value(const char* v) : data_(std::string(v)) {}   // NOLINT implicit

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric widening: int64 or double as double. Error for other types.
  Result<double> ToDouble() const;

  /// Structural equality (null == null; int64 and double never compare
  /// equal across types to keep hashing consistent).
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order used for sorting canonical tables: by type index first,
  /// then value. Numeric cross-type comparison is handled by Compare below.
  bool operator<(const Value& other) const { return data_ < other.data_; }

  /// SQL-style three-way comparison for predicates: numerics compare by
  /// value across int64/double; comparing incompatible types or nulls is
  /// an error.
  Result<int> Compare(const Value& other) const;
  /// Compare without building an error: nullopt where Compare fails.
  std::optional<int> TryCompare(const Value& other) const;

  size_t Hash() const;
  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Arithmetic used by aggregates and OUTPUT expressions. Errors on
/// non-numeric operands. Int64 op Int64 stays integral; otherwise double.
Result<Value> ValueAdd(const Value& a, const Value& b);
Result<Value> ValueSub(const Value& a, const Value& b);
Result<Value> ValueMul(const Value& a, const Value& b);
Result<Value> ValueDiv(const Value& a, const Value& b);

}  // namespace cedr

namespace std {
template <>
struct hash<cedr::Value> {
  size_t operator()(const cedr::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // CEDR_COMMON_VALUE_H_
