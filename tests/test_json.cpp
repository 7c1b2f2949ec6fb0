#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace pmware {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const Json j(42);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_bool(), JsonError);
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(j.as_object(), JsonError);
  EXPECT_EQ(j.as_int(), 42);
  EXPECT_DOUBLE_EQ(j.as_double(), 42.0);
}

TEST(Json, ObjectBuildAndAccess) {
  Json j = Json::object();
  j.set("a", Json(1));
  j.set("b", Json("text"));
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("z"));
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_THROW(j.at("z"), JsonError);
  EXPECT_EQ(j.get_int("a", -1), 1);
  EXPECT_EQ(j.get_int("z", -1), -1);
  EXPECT_EQ(j.get_string("b", ""), "text");
  EXPECT_EQ(j.get_string("a", "fallback"), "fallback");  // wrong type
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, SetCoercesNullToObject) {
  Json j;
  j.set("k", Json(1));
  EXPECT_TRUE(j.is_object());
  EXPECT_THROW(Json(1).set("k", Json(2)), JsonError);
}

TEST(Json, ArrayBuildAndAccess) {
  Json j = Json::array();
  j.push_back(Json(1));
  j.push_back(Json(2));
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j[0].as_int(), 1);
  EXPECT_EQ(j[1].as_int(), 2);
  EXPECT_THROW(j[2], JsonError);
}

TEST(Json, PushBackCoercesNullToArray) {
  Json j;
  j.push_back(Json("x"));
  EXPECT_TRUE(j.is_array());
  EXPECT_THROW(Json(1).push_back(Json(2)), JsonError);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("123").as_int(), 123);
  EXPECT_DOUBLE_EQ(Json::parse("-4.75").as_double(), -4.75);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_TRUE(j.at("a")[2].at("b").as_bool());
  EXPECT_TRUE(j.at("c").is_null());
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json j = Json::parse("  {\n\t\"a\" : [ 1 , 2 ]\r\n}  ");
  EXPECT_EQ(j.at("a").size(), 2u);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json j(std::string("line1\nline2\t\"quoted\""));
  const std::string dumped = j.dump();
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\t"), std::string::npos);
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  // Round-trips.
  EXPECT_EQ(Json::parse(dumped).as_string(), j.as_string());
}

TEST(Json, UnicodeEscapeToUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(Json, RoundTripComplexDocument) {
  Json doc = Json::object();
  doc.set("name", Json("pmware"));
  doc.set("version", Json(1.25));
  doc.set("flags", Json(true));
  Json arr = Json::array();
  for (int i = 0; i < 5; ++i) {
    Json item = Json::object();
    item.set("i", Json(i));
    item.set("sq", Json(i * i));
    arr.push_back(std::move(item));
  }
  doc.set("items", std::move(arr));
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
  const Json pretty_reparsed = Json::parse(doc.pretty());
  EXPECT_EQ(pretty_reparsed, doc);
}

TEST(Json, EqualityIsDeep) {
  const Json a = Json::parse(R"({"x": [1, {"y": 2}]})");
  const Json b = Json::parse(R"({"x": [1, {"y": 2}]})");
  const Json c = Json::parse(R"({"x": [1, {"y": 3}]})");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Json, IntegerPrecision) {
  // Large-ish integers common for uids survive the double representation.
  const std::int64_t uid = 9007199254740;  // < 2^53
  Json j(uid);
  EXPECT_EQ(Json::parse(j.dump()).as_int(), uid);
}

TEST(Json, AsIntIsTotal) {
  // Every integer of magnitude below 2^53 decodes exactly.
  const std::int64_t largest = (std::int64_t{1} << 53) - 1;
  EXPECT_EQ(Json::parse("9007199254740991").as_int(), largest);
  EXPECT_EQ(Json::parse("-9007199254740991").as_int(), -largest);
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
  // A fraction is not rounded, and at or past 2^53 the parsed double may
  // already be another integer than the text (2^53 + 1 reads as 2^53).
  for (const char* text : {"1.5", "-0.5", "0.1", "9007199254740992",
                           "9007199254740993", "-9007199254740992", "1e300"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(Json::parse(text).as_int(), JsonError);
  }
  for (double x : {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(Json(x).as_int(), JsonError);
  // get_int falls back on a missing key or a non-number, never on a bad
  // number.
  const Json j = Json::parse(R"({"half": 0.5, "name": "x"})");
  EXPECT_EQ(j.get_int("missing", 7), 7);
  EXPECT_EQ(j.get_int("name", 7), 7);
  EXPECT_THROW(j.get_int("half", 7), JsonError);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::parse("[]").size(), 0u);
  EXPECT_EQ(Json::parse("{}").size(), 0u);
}

class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsStable) {
  const Json first = Json::parse(GetParam());
  const Json second = Json::parse(first.dump());
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values("null", "true", "0", "-0.5", "\"\"", "[]", "{}",
                      "[1,[2,[3,[4]]]]",
                      R"({"deep":{"deeper":{"deepest":[true,false,null]}}})",
                      R"({"lat":28.6139,"lng":77.209})",
                      R"([{"cell":{"mcc":404,"mnc":10,"lac":101,"cid":1000}}])"));

}  // namespace
}  // namespace pmware
