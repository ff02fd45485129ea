// Trace driver: runs a canned scenario on one channel engine — or replays a
// chaos fault schedule — with the obs tracer enabled, and writes the full
// artifact set for offline analysis:
//
//   trace.jsonl        one JSON object per event, in emission order
//   trace_chrome.json  Chrome trace_event export (load in ui.perfetto.dev)
//   metrics.json       metrics-registry snapshot
//   metrics.txt        plain-text metrics summary
//
//   daric_trace --engine E --scenario S [--out DIR]
//   daric_trace --replay FILE [--protocol P] [--out DIR]
//   daric_trace --list
//
// For the Daric force-close scenario the tool additionally audits the
// Theorem 1 timeline from the trace itself: the revocation (punish) event
// must land within T − Δ rounds of the dispute publication.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/scenarios.h"
#include "src/obs/sinks.h"
#include "src/sim/faults/drill.h"
#include "src/sim/faults/schedule.h"

namespace {

using namespace daric;
using namespace daric::sim::faults;

constexpr Round kTPunish = 8;  // scenario constants (src/obs/scenarios.cpp)
constexpr Round kDelta = 2;

void write_text(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path.string());
  out << body;
  if (!body.empty() && body.back() != '\n') out << '\n';
}

void write_artifacts(const std::filesystem::path& dir, const std::string& stem,
                     const std::vector<obs::Event>& events, const std::string& metrics_json,
                     const std::string& metrics_text) {
  std::filesystem::create_directories(dir);
  obs::write_jsonl((dir / (stem + ".jsonl")).string(), events);
  obs::write_chrome_trace((dir / (stem + "_chrome.json")).string(), events);
  write_text(dir / "metrics.json", metrics_json);
  write_text(dir / "metrics.txt", metrics_text);
  std::cout << "trace: wrote " << events.size() << " events to " << (dir / stem).string()
            << ".jsonl (+ chrome/metrics artifacts)" << std::endl;
}

/// Audits the Theorem 1 timeline directly from the event stream: the first
/// force_close event is the dispute publication; the first punish event is
/// the victim's revocation. Returns false on violation.
bool check_theorem1(const std::vector<obs::Event>& events) {
  std::optional<std::int64_t> dispute, punish;
  for (const obs::Event& e : events) {
    if (e.engine != "daric") continue;
    if (!dispute && e.kind == obs::EventKind::kForceClose) dispute = e.round;
    if (!punish && e.kind == obs::EventKind::kPunish) punish = e.round;
  }
  if (!dispute || !punish) {
    std::cerr << "trace: theorem-1 audit failed: missing "
              << (!dispute ? "force_close" : "punish") << " event" << std::endl;
    return false;
  }
  const std::int64_t bound = kTPunish - kDelta;
  const std::int64_t gap = *punish - *dispute;
  const bool ok = gap >= 0 && gap <= bound;
  std::cout << "trace: theorem-1 timeline: dispute posted round " << *dispute
            << ", punish round " << *punish << ", gap " << gap << " <= T-delta=" << bound
            << (ok ? "  OK" : "  VIOLATION") << std::endl;
  return ok;
}

int run_scenario_mode(const std::string& engine, const std::string& scenario,
                      const std::filesystem::path& out) {
  const obs::ScenarioRun r = obs::run_scenario(engine, scenario);
  std::cout << "trace: " << engine << "/" << scenario << ": " << (r.ok ? "ok" : "FAIL")
            << " (" << r.detail << ")" << std::endl;
  write_artifacts(out, "trace", r.events, r.metrics_json, r.metrics_text);
  bool ok = r.ok;
  if (engine == "daric" && scenario == "force-close") ok = check_theorem1(r.events) && ok;
  return ok ? 0 : 1;
}

Protocol protocol_from(const std::string& name) {
  if (const auto p = protocol_from_name(name)) return *p;
  throw std::runtime_error("unknown protocol '" + name + "'");
}

int run_replay_mode(const std::string& path, const std::string& proto,
                    const std::filesystem::path& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace: cannot open '" << path << "'" << std::endl;
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const FaultSchedule s = parse_schedule(buf.str());

  obs::CollectSink sink;
  std::string metrics_json, metrics_text;
  DrillObs attach{&sink, &metrics_json, &metrics_text};
  const DrillReport r = run_drill(protocol_from(proto), s, attach);

  std::cout << "trace: replay seed " << s.seed << " on " << proto << ": "
            << (r.ok ? "ok" : "FAIL") << " (" << r.detail << ") updates=" << r.updates_done
            << " msgs=" << r.msg_total << " drop=" << r.msg_dropped << std::endl;
  write_artifacts(out, "trace", sink.events, metrics_json, metrics_text);
  return r.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "daric", scenario, replay_path, proto = "daric";
  std::filesystem::path out = "trace-out";
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "trace: " << a << " needs a value" << std::endl;
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--engine") engine = next();
    else if (a == "--scenario") scenario = next();
    else if (a == "--replay") replay_path = next();
    else if (a == "--protocol") proto = next();
    else if (a == "--out") out = next();
    else if (a == "--list") list = true;
    else {
      std::cerr << "usage: daric_trace --engine daric|lightning|eltoo|generalized "
                   "--scenario update|force-close|htlc [--out DIR]\n"
                   "       daric_trace --replay SCHED_FILE [--protocol P] [--out DIR]\n"
                   "       daric_trace --list"
                << std::endl;
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }

  try {
    if (list) {
      std::cout << "engines:";
      for (const auto& e : daric::obs::scenario_engines()) std::cout << ' ' << e;
      std::cout << "\nscenarios:";
      for (const auto& s : daric::obs::scenario_names()) std::cout << ' ' << s;
      std::cout << std::endl;
      return 0;
    }
    if (!replay_path.empty()) return run_replay_mode(replay_path, proto, out);
    if (!scenario.empty()) return run_scenario_mode(engine, scenario, out);
    std::cerr << "trace: nothing to do (try --engine daric --scenario force-close)"
              << std::endl;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "trace: error: " << e.what() << std::endl;
    return 2;
  }
}
