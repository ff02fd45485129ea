#include "src/obs/sinks.h"

#include <fstream>
#include <map>
#include <stdexcept>

namespace daric::obs {

namespace {

/// Stable lane assignment: one tid per (engine, party), in first-seen order.
std::string lane_name(const Event& e) {
  if (e.engine.empty()) return "sim";
  if (e.party.empty()) return e.engine;
  return e.engine + "/" + e.party;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Event>& events) {
  std::map<std::string, int> lanes;
  auto lane = [&lanes](const Event& e) {
    const auto [it, inserted] = lanes.emplace(lane_name(e), 0);
    if (inserted) it->second = static_cast<int>(lanes.size());
    return it->second;
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    // 1 round = 1 ms = 1000 trace µs, so timeline coordinates read as rounds.
    out += "{\"name\":\"" + std::string(event_kind_name(e.kind)) + "\",\"cat\":\"" +
           json_escape(e.engine.empty() ? "sim" : e.engine) +
           "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + std::to_string(e.round * 1000) +
           ",\"pid\":1,\"tid\":" + std::to_string(lane(e)) + ",\"args\":{\"seq\":" +
           std::to_string(e.seq);
    if (!e.channel.empty()) out += ",\"channel\":\"" + json_escape(e.channel) + '"';
    for (const Attr& a : e.attrs) {
      out += ",\"" + json_escape(a.key) + "\":";
      if (a.is_int) {
        out += std::to_string(a.num);
      } else {
        out += '"' + json_escape(a.str) + '"';
      }
    }
    out += "}}";
  }
  // Name the lanes so Perfetto shows engine/party instead of bare tids.
  for (const auto& [name, tid] : lanes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" + json_escape(name) + "\"}}";
  }
  out += "]}";
  return out;
}

void write_jsonl(const std::string& path, const std::vector<Event>& events) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  for (const Event& e : events) out << to_json(e) << '\n';
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

void write_chrome_trace(const std::string& path, const std::vector<Event>& events) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << chrome_trace_json(events) << '\n';
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace daric::obs
