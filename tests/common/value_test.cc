#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace dbpc {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.ToDisplay(), "<null>");
  EXPECT_EQ(v.ToLiteral(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.ToDisplay(), "42");
  EXPECT_EQ(v.ToLiteral(), "42");
}

TEST(ValueTest, StringLiteralQuoting) {
  Value v = Value::String("O'BRIEN");
  EXPECT_EQ(v.ToDisplay(), "O'BRIEN");
  EXPECT_EQ(v.ToLiteral(), "'O''BRIEN'");
}

TEST(ValueTest, NumericViewWidensInt) {
  ASSERT_TRUE(Value::Int(7).ToNumeric().ok());
  EXPECT_DOUBLE_EQ(Value::Int(7).ToNumeric().value(), 7.0);
  EXPECT_FALSE(Value::String("x").ToNumeric().ok());
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value::Int(1).Matches(FieldType::kInt));
  EXPECT_FALSE(Value::Int(1).Matches(FieldType::kString));
  // Null matches every type (absence of a value).
  EXPECT_TRUE(Value::Null().Matches(FieldType::kInt));
  EXPECT_TRUE(Value::Null().Matches(FieldType::kString));
}

TEST(ValueTest, CoerceIntToDouble) {
  Result<Value> r = Value::Int(3).CoerceTo(FieldType::kDouble);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_double());
  EXPECT_DOUBLE_EQ(r->as_double(), 3.0);
}

TEST(ValueTest, CoerceDigitStringToInt) {
  Result<Value> r = Value::String("1978").CoerceTo(FieldType::kInt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_int(), 1978);
}

TEST(ValueTest, CoerceNonDigitStringToIntFails) {
  EXPECT_FALSE(Value::String("12X").CoerceTo(FieldType::kInt).ok());
}

TEST(ValueTest, CoerceWholeDoubleToInt) {
  Result<Value> r = Value::Double(5.0).CoerceTo(FieldType::kInt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_int(), 5);
  EXPECT_FALSE(Value::Double(5.5).CoerceTo(FieldType::kInt).ok());
}

TEST(ValueTest, CoerceAnythingToString) {
  Result<Value> r = Value::Int(12).CoerceTo(FieldType::kString);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_string(), "12");
}

TEST(ValueTest, NullCoercesToAnything) {
  ASSERT_TRUE(Value::Null().CoerceTo(FieldType::kInt).ok());
  EXPECT_TRUE(Value::Null().CoerceTo(FieldType::kInt)->is_null());
}

TEST(ValueTest, CompareOrdersNullFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareIntAndDoubleNumerically) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, CompareStringsLexicographically) {
  EXPECT_LT(Value::String("ADAMS").Compare(Value::String("BAKER")), 0);
  EXPECT_EQ(Value::String("X") == Value::String("X"), true);
}

TEST(ValueTest, CrossTypeComparisonIsDeterministic) {
  // Numbers sort before strings (type rank), both directions agree.
  int a = Value::Int(5).Compare(Value::String("5"));
  int b = Value::String("5").Compare(Value::Int(5));
  EXPECT_EQ(a, -b);
  EXPECT_NE(a, 0);
}

TEST(FieldTypeTest, Names) {
  EXPECT_STREQ(FieldTypeName(FieldType::kInt), "INT");
  EXPECT_STREQ(FieldTypeName(FieldType::kDouble), "DOUBLE");
  EXPECT_STREQ(FieldTypeName(FieldType::kString), "STRING");
}

TEST(ValueTest, CoerceDoubleOutsideInt64RangeToIntIsTypeError) {
  // Checked before any cast: casting these to int64 is undefined.
  const double kTwo63 = 9223372036854775808.0;  // 2^63
  for (double d : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e19, -1e19, kTwo63}) {
    Result<Value> r = Value::Double(d).CoerceTo(FieldType::kInt);
    ASSERT_FALSE(r.ok()) << d;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << d;
    EXPECT_EQ(r.status().message(),
              "cannot coerce " + Value::Double(d).ToDisplay() + " to INT");
  }
  Result<Value> low = Value::Double(-kTwo63).CoerceTo(FieldType::kInt);
  ASSERT_TRUE(low.ok()) << low.status();
  EXPECT_EQ(low->as_int(), INT64_MIN);
  Result<Value> big = Value::Double(kTwo63 / 2).CoerceTo(FieldType::kInt);
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->as_int(), int64_t{1} << 62);
}

}  // namespace
}  // namespace dbpc
