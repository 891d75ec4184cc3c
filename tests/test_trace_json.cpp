#include "trace/json.h"
#include "trace/runner.h"

#include "workloads/sort.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace ipso::trace {
namespace {

TEST(Json, SeriesShape) {
  stats::Series s("S(n)");
  s.add(1, 1.0);
  s.add(2, 1.5);
  const std::string j = to_json(s);
  EXPECT_EQ(j, "{\"name\":\"S(n)\",\"points\":[[1,1],[2,1.5]]}");
}

TEST(Json, EscapesQuotes) {
  stats::Series s("a\"b");
  const std::string j = to_json(s);
  EXPECT_NE(j.find("a\\\"b"), std::string::npos);
}

TEST(Json, MrSweepContainsAllSections) {
  ExperimentRunner runner;
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4};
  sweep.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  for (const char* key :
       {"\"kind\":\"mr_sweep\"", "\"eta\":", "\"speedup\":", "\"ex\":",
        "\"in\":", "\"q\":", "\"points\":", "\"components\":",
        "\"spilled\":false"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

TEST(Json, MrSweepPointCountMatches) {
  ExperimentRunner runner;
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8};
  sweep.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  std::size_t count = 0, pos = 0;
  while ((pos = j.find("\"parallel_time\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 4u);
}

TEST(Json, BalancedBracesAndBrackets) {
  ExperimentRunner runner;
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedSize;
  sweep.ns = {1, 2};
  sweep.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  int braces = 0, brackets = 0;
  for (char c : j) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(JsonDouble, EmitsMaxDigits10) {
  // 12-digit output used to truncate these; 17 digits round-trip exactly.
  for (double v : {1.0 / 3.0, 0.1, 2.0 / 7.0, 1e-17, 123456789.123456789,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    const std::string text = json_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(1.5), "1.5");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

TEST(JsonDouble, SeriesPointsSurviveRoundTrip) {
  stats::Series s("exact");
  s.add(1, 1.0 / 3.0);
  s.add(2, 0.1 + 0.2);  // != 0.3; the output must preserve the difference
  const std::string j = to_json(s);
  const auto doc = parse_json(j);
  ASSERT_TRUE(doc.has_value()) << doc.error().to_string();
  const auto& points = doc->get("points")->as_array();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].as_array()[1].as_number(), 1.0 / 3.0);
  EXPECT_EQ(points[1].as_array()[1].as_number(), 0.1 + 0.2);
  EXPECT_NE(points[1].as_array()[1].as_number(), 0.3);
}

TEST(JsonParse, AcceptsEveryValueKind) {
  const auto doc = parse_json(
      "{\"null\":null,\"t\":true,\"f\":false,\"num\":-1.5e3,"
      "\"str\":\"a\\\"b\\n\",\"arr\":[1,[2],{}],\"obj\":{\"k\":1}}");
  ASSERT_TRUE(doc.has_value()) << doc.error().to_string();
  EXPECT_TRUE(doc->get("null")->is_null());
  EXPECT_TRUE(doc->get("t")->as_bool());
  EXPECT_FALSE(doc->get("f")->as_bool(true));
  EXPECT_EQ(doc->get("num")->as_number(), -1500.0);
  EXPECT_EQ(doc->get("str")->as_string(), "a\"b\n");
  EXPECT_EQ(doc->get("arr")->as_array().size(), 3u);
  EXPECT_EQ(doc->get("obj")->get("k")->as_number(), 1.0);
  EXPECT_EQ(doc->get("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  const auto doc = parse_json("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "A\xc3\xa9");  // 'A' + UTF-8 e-acute
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"k\" 1}", "{\"k\":1} trailing", "tru",
        "\"unterminated", "01x", "1e999" /* overflows to inf */}) {
    const auto doc = parse_json(bad);
    EXPECT_FALSE(doc.has_value()) << "accepted: " << bad;
  }
  const auto doc = parse_json("{\"k\":}");
  ASSERT_FALSE(doc.has_value());
  EXPECT_GT(doc.error().offset, 0u);
  EXPECT_FALSE(doc.error().message.empty());
  EXPECT_NE(doc.error().to_string().find("offset"), std::string::npos);
}

TEST(JsonParse, ParseDumpParseIsIdentity) {
  const char* text =
      "{\"a\":[1,0.33333333333333331,true,null],\"b\":{\"nested\":"
      "\"s\\\\lash\"},\"c\":-2.5e-3}";
  const auto first = parse_json(text);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  const std::string dumped = first->dump();
  const auto second = parse_json(dumped);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  // Byte-stable after one round trip: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(second->dump(), dumped);
  EXPECT_EQ(second->get("a")->as_array()[1].as_number(), 1.0 / 3.0);
}

TEST(JsonParse, SweepExportsParseCleanly) {
  ExperimentRunner runner;
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4};
  sweep.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const auto doc = parse_json(to_json(r));
  ASSERT_TRUE(doc.has_value()) << doc.error().to_string();
  EXPECT_EQ(doc->get("kind")->as_string(), "mr_sweep");
  EXPECT_EQ(doc->get("speedup")->get("points")->as_array().size(), 3u);
}

TEST(JsonParse, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(parse_json(deep).has_value());
}

}  // namespace
}  // namespace ipso::trace
