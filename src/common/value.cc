#include "common/value.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace dbpc {

const char* FieldTypeName(FieldType type) {
  switch (type) {
    case FieldType::kInt:
      return "INT";
    case FieldType::kDouble:
      return "DOUBLE";
    case FieldType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<double> Value::ToNumeric() const {
  if (is_int()) return static_cast<double>(as_int());
  if (is_double()) return as_double();
  return Status::TypeError("value " + ToDisplay() + " is not numeric");
}

bool Value::Matches(FieldType type) const {
  if (is_null()) return true;
  switch (type) {
    case FieldType::kInt:
      return is_int();
    case FieldType::kDouble:
      return is_double();
    case FieldType::kString:
      return is_string();
  }
  return false;
}

Result<Value> Value::CoerceTo(FieldType type) const {
  if (is_null() || Matches(type)) return *this;
  switch (type) {
    case FieldType::kDouble:
      if (is_int()) return Value::Double(static_cast<double>(as_int()));
      break;
    case FieldType::kInt:
      if (is_string()) {
        const std::string& s = as_string();
        int64_t out = 0;
        auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
        if (ec == std::errc() && ptr == s.data() + s.size()) {
          return Value::Int(out);
        }
      }
      if (is_double()) {
        double d = as_double();
        // Cast only inside int64's range [-2^63, 2^63): NaN, the infinities
        // and larger magnitudes have no int64 image, and casting them is
        // undefined behaviour.
        if (d >= -0x1p63 && d < 0x1p63) {
          int64_t i = static_cast<int64_t>(d);
          if (static_cast<double>(i) == d) return Value::Int(i);
        }
      }
      break;
    case FieldType::kString:
      return Value::String(ToDisplay());
  }
  return Status::TypeError("cannot coerce " + ToDisplay() + " to " +
                           FieldTypeName(type));
}

std::string Value::ToDisplay() const {
  if (is_null()) return "<null>";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", as_double());
    return buf;
  }
  return as_string();
}

std::string Value::ToLiteral() const {
  if (is_null()) return "NULL";
  if (is_string()) {
    std::string out = "'";
    for (char c : as_string()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return ToDisplay();
}

namespace {

int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int() || v.is_double()) return 1;
  return 2;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int lr = TypeRank(*this);
  int rr = TypeRank(other);
  if (lr != rr) return lr < rr ? -1 : 1;
  if (is_null()) return 0;
  if (lr == 1) {
    // Numeric: compare exactly when both int, otherwise as doubles.
    if (is_int() && other.is_int()) {
      int64_t a = as_int(), b = other.as_int();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = is_int() ? static_cast<double>(as_int()) : as_double();
    double b =
        other.is_int() ? static_cast<double>(other.as_int()) : other.as_double();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const std::string& a = as_string();
  const std::string& b = other.as_string();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToDisplay();
}

}  // namespace dbpc
