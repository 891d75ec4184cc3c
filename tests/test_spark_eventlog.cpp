#include "spark/eventlog.h"

#include <gtest/gtest.h>

#include <string>

namespace ipso::spark {
namespace {

SparkJobResult two_stage_job() {
  SparkJobResult r;
  StageMetrics map;
  map.name = "map";
  map.stage_id = 0;
  map.submission_time = 0.0;
  map.completion_time = 12.5;
  map.tasks = 64;
  StageMetrics reduce;
  reduce.name = "reduce";
  reduce.stage_id = 1;
  reduce.submission_time = 12.5;
  reduce.completion_time = 20.0;
  reduce.tasks = 32;
  reduce.spilled = true;
  r.stages = {map, reduce};
  r.makespan = 20.0;
  return r;
}

TEST(SparkEventLog, WriteParseRoundTrip) {
  const std::string log = to_event_log(two_stage_job());
  const auto events = parse_event_log(log);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage_id, 0u);
  EXPECT_EQ(events[0].stage_name, "map");
  EXPECT_DOUBLE_EQ(events[0].submission_time, 0.0);
  EXPECT_DOUBLE_EQ(events[0].completion_time, 12.5);
  EXPECT_EQ(events[0].tasks, 64u);
  EXPECT_FALSE(events[0].spilled);
  EXPECT_EQ(events[1].stage_name, "reduce");
  EXPECT_TRUE(events[1].spilled);
  EXPECT_DOUBLE_EQ(events[1].latency(), 7.5);
}

TEST(SparkEventLog, TolerantParserSkipsForeignAndMalformedLines) {
  const std::string log =
      "{\"Event\":\"SparkListenerApplicationStart\",\"App Name\":\"x\"}\n"
      "{\"Event\":\"StageCompleted\",\"Stage ID\":0,\"Stage Name\":\"map\","
      "\"Submission Time\":0,\"Completion Time\":2,\"Tasks\":4,"
      "\"Spilled\":0}\n"
      "not json at all\n"
      "{\"Event\":\"StageCompleted\",\"Stage ID\":oops,\"Stage Name\":\"bad"
      "\",\"Submission Time\":0,\"Completion Time\":1,\"Tasks\":1,"
      "\"Spilled\":0}\n"
      "{\"Event\":\"StageCompleted\",\"Stage ID\":2,\"Stage Name\":\"bad\","
      "\"Submission Time\":abc,\"Completion Time\":3,\"Tasks\":1,"
      "\"Spilled\":0}\n"
      "{\"Event\":\"StageCompleted\",\"Stage ID\":3,\"Stage Name\":\"short\","
      "\"Submission Time\":0,\"Completion Time\":2,\"Spilled\":0}\n"
      "{\"Event\":\"StageCompleted\",\"Stage ID\":1,\"Stage Name\":"
      "\"reduce\",\"Submission Time\":2,\"Completion Time\":5,\"Tasks\":2,"
      "\"Spilled\":1}\n";
  const auto events = parse_event_log(log);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage_name, "map");
  EXPECT_EQ(events[1].stage_name, "reduce");
}

TEST(SparkEventLog, JobLatencySpansFirstSubmissionToLastCompletion) {
  const auto events = parse_event_log(to_event_log(two_stage_job()));
  const auto latency = job_latency(events);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(*latency, 20.0);
  EXPECT_FALSE(job_latency({}).has_value());
}

TEST(SparkEventLog, StageLatencyTotalsSumRepeatedStages) {
  // An iterative app runs the same named stage every round.
  SparkJobResult r;
  for (int round = 0; round < 3; ++round) {
    StageMetrics s;
    s.name = "gradient";
    s.stage_id = static_cast<std::size_t>(round);
    s.submission_time = 10.0 * round;
    s.completion_time = 10.0 * round + 4.0;
    s.tasks = 8;
    r.stages.push_back(s);
  }
  const auto totals = stage_latency_totals(parse_event_log(to_event_log(r)));
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_DOUBLE_EQ(totals.at("gradient"), 12.0);
}

}  // namespace
}  // namespace ipso::spark
