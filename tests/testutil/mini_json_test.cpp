// The JSON reader that bench_check (baselines, results) and trace_query
// (span graphs) share: numbers must follow JSON's grammar exactly, so a
// corrupted baseline value fails loudly instead of parsing as a prefix.
#include "testutil/mini_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace vhadoop::testutil {
namespace {

/// The reader's error message for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    JsonParser::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MiniJson, RejectsMalformedNumbers) {
  for (const std::string bad :
       {"1.2.3", "1-2", "-", ".", "1e", "07", "12e+-3", "[1--]", "-01", "1.", ".5", "+1",
        "1e5.0", "-x", "[1.2.3]", "{\"value\": 1.2.3}"}) {
    SCOPED_TRACE(bad);
    const std::string error = parse_error(bad);
    EXPECT_EQ(error.rfind("mini_json: ", 0), 0u) << error;
    EXPECT_NE(error.find(" at offset "), std::string::npos) << error;
  }
}

TEST(MiniJson, ReportsWhereTheNumberBreaks) {
  EXPECT_EQ(parse_error("1.2.3"), "mini_json: bad number at offset 3");
  EXPECT_EQ(parse_error("07"), "mini_json: bad number at offset 1");
  EXPECT_EQ(parse_error("-"), "mini_json: bad number at offset 1");
  EXPECT_EQ(parse_error("[1--]"), "mini_json: bad number at offset 2");
  EXPECT_EQ(parse_error("."), "mini_json: expected a value at offset 0");
}

TEST(MiniJson, AcceptsValidNumbers) {
  const auto num = [](const std::string& text) { return JsonParser::parse(text).number; };
  EXPECT_EQ(num("0"), 0.0);
  EXPECT_EQ(num("-0"), 0.0);
  EXPECT_TRUE(std::signbit(num("-0")));
  EXPECT_EQ(num("0.5"), 0.5);
  EXPECT_EQ(num("1E+06"), 1e6);
  EXPECT_EQ(num("2.5e-3"), 2.5e-3);
  EXPECT_EQ(num("123456789012"), 123456789012.0);
  EXPECT_EQ(num(" -17 "), -17.0);

  const JsonValue v = JsonParser::parse(R"({"a": [1, -0.25, 3e2], "b": 10})");
  EXPECT_EQ(v.at("a").at(0).number, 1.0);
  EXPECT_EQ(v.at("a").at(1).number, -0.25);
  EXPECT_EQ(v.at("a").at(2).number, 300.0);
  EXPECT_EQ(v.at("b").number, 10.0);
}

}  // namespace
}  // namespace vhadoop::testutil
