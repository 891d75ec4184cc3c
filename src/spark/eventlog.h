#pragma once

#include "spark/engine.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

/// \file eventlog.h
/// Spark-style JSON event log. The paper extracts stage latencies "by
/// tracing the timestamps for each stage in the Spark Log files, which are
/// available in the JSON format" — this module writes the same kind of log
/// from a simulated run and parses it back, so the analysis pipeline works
/// from logs exactly as the paper's did.

namespace ipso::spark {

/// Serializes a job result as one JSON object per line, mimicking Spark's
/// SparkListenerStageCompleted events:
///   {"Event":"StageCompleted","Stage ID":3,"Stage Name":"map",
///    "Submission Time":12.5,"Completion Time":14.0,"Tasks":64,"Spilled":0}
std::string to_event_log(const SparkJobResult& result);

/// One parsed stage event.
struct StageEvent {
  std::size_t stage_id = 0;
  std::string stage_name;
  double submission_time = 0.0;
  double completion_time = 0.0;
  std::size_t tasks = 0;
  bool spilled = false;

  double latency() const noexcept { return completion_time - submission_time; }
};

/// Parses an event log produced by to_event_log. Tolerant: unknown lines
/// and StageCompleted lines with malformed fields are skipped (real Spark
/// logs interleave dozens of other event kinds), never thrown on.
std::vector<StageEvent> parse_event_log(const std::string& log);

/// Total job latency from a parsed log: last completion - first submission.
/// Returns std::nullopt for a log without stage events.
std::optional<double> job_latency(const std::vector<StageEvent>& events);

/// Per-stage-name total latency across a parsed log (iterative apps run the
/// same stage many times; the paper sums per stage when attributing time).
std::map<std::string, double> stage_latency_totals(
    const std::vector<StageEvent>& events);

}  // namespace ipso::spark
