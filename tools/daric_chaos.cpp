// Chaos sweep driver: replays seeded fault schedules against the Daric
// engine and the Lightning / generalized / eltoo baselines, asserting the
// funds-security invariants after every run.
//
//   daric_chaos --sweep N [--seed S0] [--protocol P]   N seeded schedules
//   daric_chaos --durable-sweep N [--seed S0]          N crash-replay schedules
//   daric_chaos --replay FILE [--protocol P]           replay one schedule
//   daric_chaos --emit SEED                            print a schedule
//   daric_chaos --boundary [--t-punish T] [--delta D]  downtime boundary scan
//
// Exit status is non-zero the moment any run misbehaves, and the offending
// schedule is printed in its canonical text form so it can be replayed
// byte-for-byte with --replay. With --trace-out DIR, any failing drill is
// re-run deterministically with the tracer attached and its full event
// trace + metrics snapshot are written under DIR (first 5 failures).
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/sinks.h"
#include "src/sim/faults/drill.h"
#include "src/sim/faults/rng.h"
#include "src/sim/faults/schedule.h"

namespace {

using namespace daric;
using namespace daric::sim::faults;

/// A passing drill's detail; a failing one's also names the first clause it
/// broke: the channel never closed, the payout matches no signed state,
/// value was not conserved, or the resolution is the wrong kind (no
/// punishment, no demanded funds loss, a restored party that did not close
/// non-collaboratively, a stale eltoo settlement).
std::string verdict(const DrillReport& r) {
  if (r.ok) return r.detail;
  const char* clause = !r.closed            ? "closed"
                       : !r.payout_ok       ? "payout"
                       : !r.conservation_ok ? "conservation"
                                            : "outcome";
  return r.detail + ": " + clause;
}

void print_report(const DrillReport& r) {
  std::cout << "  " << protocol_name(r.protocol) << ": "
            << (r.ok ? "ok" : "FAIL") << " (" << verdict(r) << ") updates=" << r.updates_done
            << " msgs=" << r.msg_total << " drop=" << r.msg_dropped
            << " delay=" << r.msg_delayed << " dup=" << r.msg_duplicated;
  if (r.cheated) std::cout << (r.punished ? " punished" : " UNPUNISHED");
  if (r.funds_lost) std::cout << " FUNDS-LOST";
  std::cout << '\n';
}

// --trace-out DIR: failing drills are re-run with the tracer attached and
// dumped as fail-<protocol>-<seed>.jsonl (+ .metrics.json), capped so a
// systematically broken engine cannot flood the disk.
std::string g_trace_out;
int g_failure_traces = 0;
constexpr int kMaxFailureTraces = 5;

void dump_failure_trace(Protocol p, const FaultSchedule& s) {
  if (g_trace_out.empty() || g_failure_traces >= kMaxFailureTraces) return;
  ++g_failure_traces;
  using namespace daric;
  obs::CollectSink sink;
  std::string metrics_json;
  run_drill(p, s, DrillObs{&sink, &metrics_json, nullptr});  // deterministic re-run
  std::filesystem::create_directories(g_trace_out);
  const std::string stem = std::string("fail-") + protocol_name(p) + "-" +
                           std::to_string(s.seed);
  const auto base = std::filesystem::path(g_trace_out) / stem;
  obs::write_jsonl(base.string() + ".jsonl", sink.events);
  std::ofstream mout(base.string() + ".metrics.json");
  mout << metrics_json << '\n';
  std::cerr << "chaos: failure trace written to " << base.string() << ".jsonl" << std::endl;
}

int fail_with_schedule(const FaultSchedule& s, const DrillReport& r) {
  std::cerr << "chaos: invariant violation on " << protocol_name(r.protocol) << " seed "
            << s.seed << " (" << verdict(r) << ")\n"
            << "Replay with: daric_chaos --replay <file> --protocol "
            << protocol_name(r.protocol) << "\n--- schedule ---\n"
            << to_text(s) << "----------------" << std::endl;
  dump_failure_trace(r.protocol, s);
  return 1;
}

std::vector<Protocol> protocols_for(const std::string& name) {
  if (name == "all") return {std::begin(kProtocols), std::end(kProtocols)};
  if (const auto p = protocol_from_name(name)) return {*p};
  throw std::runtime_error("unknown protocol '" + name + "'");
}

int run_sweep(std::uint64_t seed0, std::uint64_t count, const std::string& proto,
              bool verbose) {
  const std::vector<Protocol> protos = protocols_for(proto);
  std::uint64_t runs = 0;
  std::uint64_t cheats = 0, crashes = 0, aborts = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const FaultSchedule s = generate_schedule(seed0 + i);
    for (Protocol p : protos) {
      const DrillReport r = run_drill(p, s);
      ++runs;
      if (verbose) print_report(r);
      if (!r.ok) return fail_with_schedule(s, r);
      if (r.cheated) ++cheats;
      if (r.crashed) ++crashes;
      if (!r.create_ok || r.detail.find("aborted") != std::string::npos) ++aborts;
    }
    if (!verbose && (i + 1) % 50 == 0)
      std::cout << "chaos: " << (i + 1) << "/" << count << " schedules clean" << std::endl;
  }
  std::cout << "chaos: " << runs << " runs over " << count << " schedules ("
            << protos.size() << " protocol(s)), 0 violations; " << cheats
            << " fraud drills punished, " << crashes << " crash recoveries, " << aborts
            << " aborted runs closed safely" << std::endl;
  return 0;
}

// Durable sweep: every schedule kills a party and recovers it from the
// durable store. The base schedule keeps its message faults and downtime
// windows; fraud is cleared (mutually exclusive with crashes) and the
// crash point cycles deterministically through every message boundary
// (0 = after the update, 1..6 = before message k) × tail-fault kind
// (clean / torn record fragment / garbage), so all fsync points and both
// torn-write shapes are covered even for small N.
int run_durable_sweep(std::uint64_t seed0, std::uint64_t count, bool verbose) {
  std::uint64_t runs = 0, crashed = 0, mid = 0, torn = 0, garbage = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultSchedule s = generate_schedule(seed0 + i);
    s.cheat = CheatPlan{};
    CrashPoint c;
    c.after_update =
        1 + static_cast<std::uint32_t>(mix(seed0 + i, 0xc4a54ull) % s.updates);
    c.at_msg = static_cast<std::uint32_t>(i % 7);
    // The proposer (A) sends messages 1/3/5, the responder (B) 2/4/6; pick
    // the victim that actually dies at that boundary.
    c.victim = c.at_msg == 0 ? (i % 2 == 0 ? sim::PartyId::kA : sim::PartyId::kB)
                             : (c.at_msg % 2 == 1 ? sim::PartyId::kA : sim::PartyId::kB);
    const std::uint64_t tail = (i / 7) % 3;
    if (tail != 0) {
      c.torn_bytes = 1 + static_cast<std::uint32_t>(mix(seed0 + i, 0x70bcull) % 48);
      c.corrupt_tail = tail == 2;
    }
    s.crashes.assign(1, c);

    const DrillReport r = run_drill(Protocol::kDaric, s);
    ++runs;
    if (verbose) print_report(r);
    if (!r.ok) return fail_with_schedule(s, r);
    // Message faults may abort an update before the crash point is even
    // reached — that run closes safely without crashing; count the rest.
    if (r.crashed) {
      ++crashed;
      if (c.at_msg != 0) ++mid;
      if (c.torn_bytes != 0) (c.corrupt_tail ? garbage : torn)++;
    }
    if (!verbose && (i + 1) % 50 == 0)
      std::cout << "chaos: " << (i + 1) << "/" << count << " crash replays clean"
                << std::endl;
  }
  std::cout << "chaos: " << runs << " crash-replay runs, 0 violations; " << crashed
            << " crash recoveries (" << mid << " mid-update, " << torn
            << " torn tails, " << garbage << " garbage tails)" << std::endl;
  return 0;
}

int run_replay(const std::string& path, const std::string& proto) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "chaos: cannot open '" << path << "'" << std::endl;
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const FaultSchedule s = parse_schedule(buf.str());
  if (to_text(s) != buf.str())
    std::cout << "chaos: note: input is not in canonical form (replay still exact)\n";
  bool all_ok = true;
  for (Protocol p : protocols_for(proto)) {
    const DrillReport r = run_drill(p, s);
    print_report(r);
    all_ok = all_ok && r.ok;
    if (!r.ok) return fail_with_schedule(s, r);
  }
  return all_ok ? 0 : 1;
}

int run_boundary(Round t_punish, Round delta) {
  const Round safe_limit = t_punish - delta;
  std::cout << "boundary: T=" << t_punish << " delta=" << delta << " => safe downtime <= "
            << safe_limit << " rounds\n";
  int rc = 0;
  for (Round d = 0; d <= safe_limit + 2; ++d) {
    const BoundaryReport r = run_downtime_boundary(d, t_punish, delta);
    const bool expect_safe = d <= safe_limit;
    const bool as_expected =
        r.conservation_ok && (expect_safe ? (r.punished && !r.funds_lost)
                                          : (r.funds_lost && !r.punished));
    std::cout << "  offline=" << d << ": "
              << (r.punished ? "punished" : r.funds_lost ? "funds lost" : "???")
              << (as_expected ? "" : "  <-- UNEXPECTED") << '\n';
    if (!as_expected) rc = 1;
  }
  std::cout << (rc == 0 ? "boundary: exact at T - delta, as Theorem 1 demands"
                        : "boundary: MISMATCH with Theorem 1")
            << std::endl;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sweep = 0, durable = 0, seed0 = 1, emit_seed = 0;
  std::string replay_path, proto = "all";
  Round t_punish = 8, delta = 2;
  bool boundary = false, emit = false, verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "chaos: " << a << " needs a value" << std::endl;
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--sweep") sweep = std::stoull(next());
    else if (a == "--durable-sweep") durable = std::stoull(next());
    else if (a == "--seed") seed0 = std::stoull(next());
    else if (a == "--protocol") proto = next();
    else if (a == "--replay") replay_path = next();
    else if (a == "--emit") { emit = true; emit_seed = std::stoull(next()); }
    else if (a == "--boundary") boundary = true;
    else if (a == "--t-punish") t_punish = static_cast<Round>(std::stoull(next()));
    else if (a == "--delta") delta = static_cast<Round>(std::stoull(next()));
    else if (a == "--verbose" || a == "-v") verbose = true;
    else if (a == "--trace-out") g_trace_out = next();
    else {
      std::cerr << "usage: daric_chaos --sweep N [--seed S0] [--protocol "
                   "daric|lightning|generalized|eltoo|all] [-v] [--trace-out DIR]\n"
                   "       daric_chaos --durable-sweep N [--seed S0] [-v]\n"
                   "       daric_chaos --replay FILE [--protocol P]\n"
                   "       daric_chaos --emit SEED\n"
                   "       daric_chaos --boundary [--t-punish T] [--delta D]"
                << std::endl;
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }

  try {
    if (emit) {
      std::cout << to_text(generate_schedule(emit_seed, delta, t_punish));
      return 0;
    }
    if (!replay_path.empty()) return run_replay(replay_path, proto);
    if (boundary) return run_boundary(t_punish, delta);
    if (durable > 0) return run_durable_sweep(seed0, durable, verbose);
    if (sweep > 0) return run_sweep(seed0, sweep, proto, verbose);
    std::cerr << "chaos: nothing to do (try --sweep 200)" << std::endl;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "chaos: error: " << e.what() << std::endl;
    return 2;
  }
}
