#include "spark/eventlog.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

namespace ipso::spark {

namespace {

/// Extracts the raw text after `"key":` in a single-line JSON object.
/// Handles the two value shapes we emit: numbers and quoted strings.
std::optional<std::string> json_field(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t start = pos + needle.size();
  if (start >= line.size()) return std::nullopt;
  if (line[start] == '"') {
    const auto end = line.find('"', start + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(start + 1, end - start - 1);
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

/// Checked numeric parses: std::stod/stoul throw on garbage, which turned a
/// single corrupt log line into a crash of the whole analysis.
bool parse_double_field(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_size_field(const std::string& s, std::size_t* out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Parses one StageCompleted line; anything else, or a StageCompleted line
/// with a missing or malformed field, yields std::nullopt.
std::optional<StageEvent> parse_stage_line(const std::string& line) {
  const auto event = json_field(line, "Event");
  if (!event || *event != "StageCompleted") return std::nullopt;
  const auto stage_id = json_field(line, "Stage ID");
  const auto name = json_field(line, "Stage Name");
  const auto submitted = json_field(line, "Submission Time");
  const auto completed = json_field(line, "Completion Time");
  const auto tasks = json_field(line, "Tasks");
  const auto spilled = json_field(line, "Spilled");
  if (!stage_id || !name || !submitted || !completed || !tasks || !spilled) {
    return std::nullopt;
  }
  StageEvent ev;
  if (!parse_size_field(*stage_id, &ev.stage_id) ||
      !parse_double_field(*submitted, &ev.submission_time) ||
      !parse_double_field(*completed, &ev.completion_time) ||
      !parse_size_field(*tasks, &ev.tasks)) {
    return std::nullopt;
  }
  ev.stage_name = *name;
  ev.spilled = *spilled == "1";
  return ev;
}

}  // namespace

std::string to_event_log(const SparkJobResult& result) {
  std::ostringstream os;
  os << std::setprecision(15);
  for (const auto& s : result.stages) {
    os << "{\"Event\":\"StageCompleted\",\"Stage ID\":" << s.stage_id
       << ",\"Stage Name\":\"" << s.name
       << "\",\"Submission Time\":" << s.submission_time
       << ",\"Completion Time\":" << s.completion_time
       << ",\"Tasks\":" << s.tasks << ",\"Spilled\":" << (s.spilled ? 1 : 0)
       << "}\n";
  }
  return os.str();
}

std::vector<StageEvent> parse_event_log(const std::string& log) {
  std::vector<StageEvent> events;
  std::istringstream is(log);
  std::string line;
  while (std::getline(is, line)) {
    if (auto ev = parse_stage_line(line)) events.push_back(std::move(*ev));
  }
  return events;
}

std::optional<double> job_latency(const std::vector<StageEvent>& events) {
  if (events.empty()) return std::nullopt;
  double first = events.front().submission_time;
  double last = events.front().completion_time;
  for (const auto& ev : events) {
    first = std::min(first, ev.submission_time);
    last = std::max(last, ev.completion_time);
  }
  return last - first;
}

std::map<std::string, double> stage_latency_totals(
    const std::vector<StageEvent>& events) {
  std::map<std::string, double> totals;
  for (const auto& ev : events) totals[ev.stage_name] += ev.latency();
  return totals;
}

}  // namespace ipso::spark
