// The in-memory sink and the trace exporters.
//
//   CollectSink        — appends events to an in-memory vector (tests, tools).
//   write_jsonl        — one JSON object per event per line.
//   write_chrome_trace — a Chrome `trace_event` JSON object, loadable in
//                        Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Chrome-trace mapping: one instant event per trace event, ts = round in
// milliseconds of trace time (1 round = 1 ms so Perfetto's timeline shows
// round numbers directly), pid 1, one tid lane per (engine, party) pair
// named via thread_name metadata. Attributes ride in "args".
#pragma once

#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace daric::obs {

class CollectSink : public Sink {
 public:
  void on_event(const Event& e) override { events.push_back(e); }
  std::vector<Event> events;
};

/// The Chrome trace_event JSON for a batch of events (what
/// write_chrome_trace writes); exposed so tests can validate it in memory.
std::string chrome_trace_json(const std::vector<Event>& events);

/// Whole-batch writers for code that captured events via the tracer ring.
void write_jsonl(const std::string& path, const std::vector<Event>& events);
void write_chrome_trace(const std::string& path, const std::vector<Event>& events);

}  // namespace daric::obs
