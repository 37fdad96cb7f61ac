#include "common/value.h"

#include <cmath>
#include <sstream>

namespace cedr {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument(std::string("cannot convert ") +
                                     ValueTypeToString(type()) +
                                     " to double");
  }
}

std::optional<int> Value::TryCompare(const Value& other) const {
  if (is_null() || other.is_null()) return std::nullopt;
  const bool numeric_a =
      type() == ValueType::kInt64 || type() == ValueType::kDouble;
  const bool numeric_b =
      other.type() == ValueType::kInt64 || other.type() == ValueType::kDouble;
  if (numeric_a && numeric_b) {
    if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = ToDouble().ValueOrDie();
    double b = other.ToDouble().ValueOrDie();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) return std::nullopt;
  switch (type()) {
    case ValueType::kBool: {
      bool a = AsBool(), b = other.AsBool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return std::nullopt;
  }
}

Result<int> Value::Compare(const Value& other) const {
  if (std::optional<int> c = TryCompare(other)) return *c;
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("cannot compare null values");
  }
  return Status::InvalidArgument(
      std::string("cannot compare ") + ValueTypeToString(type()) + " with " +
      ValueTypeToString(other.type()));
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(data_.index());
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      HashCombineValue(&seed, AsBool());
      break;
    case ValueType::kInt64:
      HashCombineValue(&seed, AsInt64());
      break;
    case ValueType::kDouble:
      HashCombineValue(&seed, AsDouble());
      break;
    case ValueType::kString:
      HashCombineValue(&seed, AsString());
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

namespace {

template <typename IntOp, typename DoubleOp>
Result<Value> NumericBinary(const Value& a, const Value& b, IntOp iop,
                            DoubleOp dop) {
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    return Value(iop(a.AsInt64(), b.AsInt64()));
  }
  CEDR_ASSIGN_OR_RETURN(double da, a.ToDouble());
  CEDR_ASSIGN_OR_RETURN(double db, b.ToDouble());
  return Value(dop(da, db));
}

}  // namespace

Result<Value> ValueAdd(const Value& a, const Value& b) {
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    return Value(a.AsString() + b.AsString());
  }
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x + y; },
      [](double x, double y) { return x + y; });
}

Result<Value> ValueSub(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x - y; },
      [](double x, double y) { return x - y; });
}

Result<Value> ValueMul(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return x * y; },
      [](double x, double y) { return x * y; });
}

Result<Value> ValueDiv(const Value& a, const Value& b) {
  CEDR_ASSIGN_OR_RETURN(double db, b.ToDouble());
  if (db == 0) return Status::InvalidArgument("division by zero");
  CEDR_ASSIGN_OR_RETURN(double da, a.ToDouble());
  return Value(da / db);
}

}  // namespace cedr
