#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"

namespace pml {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_FALSE(j.is_object());
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DoubleSerialization) {
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json(1e15).dump(), "1000000000000000");
  // Integral doubles print without a fraction.
  EXPECT_EQ(Json(1024.0).dump(), "1024");
}

TEST(Json, NonFiniteThrows) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), JsonError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"] = 3;
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2,"mango":3})");
}

TEST(Json, ObjectAccessors) {
  Json j = Json::object();
  j["x"] = 5;
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("y"));
  EXPECT_EQ(j.at("x").as_int(), 5);
  EXPECT_THROW(j.at("y"), JsonError);
}

TEST(Json, ArrayBuildAndAccess) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::array());
  EXPECT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.dump(), R"([1,"two",[]])");
}

TEST(Json, TypeMismatchThrows) {
  Json j(3.5);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(Json("s").as_number(), JsonError);
}

TEST(Json, StringEscapes) {
  Json j(std::string("a\"b\\c\nd\te"));
  const std::string dumped = j.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), "a\"b\\c\nd\te");
}

/// The per-byte string dump the run-based fast path replaced: its output
/// is the byte-exact contract.
std::string per_byte_dump(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void expect_string_round_trip(const std::string& s) {
  const std::string dumped = Json(s).dump();
  EXPECT_EQ(dumped, per_byte_dump(s));
  EXPECT_EQ(Json::parse(dumped).as_string(), s);
}

TEST(Json, MultiMegabyteStringRoundTrips) {
  std::string big(3 << 20, 'x');
  for (std::size_t i = 0; i < big.size(); i += 4099) {
    big[i] = static_cast<char>('A' + i % 26);
  }
  expect_string_round_trip(big);
  big[big.size() / 2] = '"';
  big[big.size() / 2 + 1] = '\\';
  expect_string_round_trip(big);
}

TEST(Json, EscapesAtRunBoundaries) {
  for (const char esc : {'"', '\\', '\n', '\t', '\r'}) {
    const std::string e(1, esc);
    expect_string_round_trip(e);                    // the whole string
    expect_string_round_trip(e + "plain run");      // first byte
    expect_string_round_trip("plain run" + e);      // last byte
    expect_string_round_trip("ab" + e + "cd");      // between two runs
    expect_string_round_trip("ab" + e + e + "cd");  // adjacent escapes
  }
}

TEST(Json, ControlCharactersDumpAsUnicodeEscapes) {
  const std::string s = std::string("a\x01" "b") + '\0' + "\x1f";
  EXPECT_EQ(Json(s).dump(), "\"a\\u0001b\\u0000\\u001f\"");
  expect_string_round_trip(s);
  expect_string_round_trip("\x7f\xc3\xa9 passes through");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("  \"x\"  ").as_string(), "x");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, {"b": null}], "c": {"d": 2}})");
  EXPECT_EQ(j.at("a").as_array().size(), 2u);
  EXPECT_TRUE(j.at("a").as_array()[1].at("b").is_null());
  EXPECT_EQ(j.at("c").at("d").as_int(), 2);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(Json, DeepNestingIsBoundedNotStackOverflow) {
  // 100k unclosed brackets used to recurse once per level; the parser
  // now fails structurally at its depth bound instead of crashing.
  EXPECT_THROW(Json::parse(std::string(100'000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(100'000, '{')), JsonError);
  std::string alternating;
  for (int i = 0; i < 50'000; ++i) alternating += "[{\"k\":";
  EXPECT_THROW(Json::parse(alternating), JsonError);

  // Nesting under the bound still parses.
  std::string shallow(64, '[');
  shallow += "1";
  shallow.append(64, ']');
  EXPECT_EQ(Json::parse(shallow).as_array().size(), 1u);
}

TEST(Json, AsIntRejectsValuesOutsideInt64) {
  EXPECT_THROW(Json::parse("1e300").as_int(), JsonError);
  EXPECT_THROW(Json::parse("-1e300").as_int(), JsonError);
  EXPECT_THROW(Json::parse("9223372036854775808").as_int(), JsonError);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("4611686018427387904").as_int(),
            std::int64_t{1} << 62);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc = Json::object();
  doc["name"] = "cluster";
  doc["sizes"] = Json::array();
  for (int i = 0; i < 8; ++i) doc["sizes"].push_back(1 << i);
  doc["nested"] = Json::object();
  doc["nested"]["flag"] = true;
  doc["nested"]["ratio"] = 0.125;

  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
  const Json pretty = Json::parse(doc.dump(2));
  EXPECT_EQ(pretty, doc);
}

TEST(Json, PrettyPrintIndents) {
  Json doc = Json::object();
  doc["k"] = Json::array();
  doc["k"].push_back(1);
  EXPECT_EQ(doc.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(Json::parse("[1,2]"), Json::parse("[1, 2]"));
  EXPECT_FALSE(Json::parse("[1,2]") == Json::parse("[2,1]"));
}

}  // namespace
}  // namespace pml
