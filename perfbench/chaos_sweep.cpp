// chaos_sweep: sim::faults::run_drill over generate_schedule(seed + i) for
// all four drill engines (daric, lightning, generalized, eltoo). The only
// workload that runs the baseline engines and the retry, abort and
// crash-recovery paths. Each drill builds its own Environment inside the
// library, so only the drill boundary itself is probed.
#include <functional>

#include "src/sim/faults/drill.h"
#include "src/sim/faults/schedule.h"
#include "workloads.h"

namespace perfbench {

using namespace daric;  // NOLINT
using namespace daric::sim::faults;

namespace {

constexpr Protocol kEngines[] = {Protocol::kDaric, Protocol::kLightning,
                                 Protocol::kGeneralized, Protocol::kEltoo};
constexpr int kSetupRepeats = 3;
constexpr double kWindowSeconds = 1.0;
constexpr std::uint64_t kRssOps = 200;
constexpr std::uint64_t kPrepared = 64;  // schedules generated during set-up
constexpr std::size_t kWarmUp = 16;       // of which every engine drills these

/// Set-up: generate the first schedules, check that each survives the
/// canonical text round trip, and warm every engine up on a few of them.
std::vector<FaultSchedule> prepare(const Config& cfg, Result& r) {
  std::vector<FaultSchedule> out;
  for (std::uint64_t i = 0; i < kPrepared; ++i) {
    FaultSchedule s = generate_schedule(cfg.seed * 1'000'003 + i);
    if (parse_schedule(to_text(s)) != s)
      r.fail("schedule " + std::to_string(s.seed) + " round trip");
    out.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < kWarmUp; ++i)
    for (const Protocol p : kEngines)
      if (!run_drill(p, out[i]).ok)
        r.fail(std::string("warm-up drill failed: ") + protocol_name(p));
  return out;
}

}  // namespace

Result run_chaos_sweep(const Config& cfg, Trace* trace) {
  Result r;
  r.op_name = "drill";
  std::vector<FaultSchedule> schedules;
  for (int rep = 0; rep < cfg.setup_repeats(kSetupRepeats); ++rep) {
    GaugedClock setup;
    schedules = prepare(cfg, r);
    r.setup_s.push_back(setup.lap());
  }

  Acc per_engine[std::size(kEngines)];
  std::int64_t msgs = 0, dropped = 0;
  Meter meter(r, cfg, kWindowSeconds, kRssOps);
  for (std::uint64_t i = 0; meter.running(); ++i) {
    const FaultSchedule s = i < schedules.size()
                                ? schedules[i]
                                : generate_schedule(cfg.seed * 1'000'003 + i);
    fold(r.input_digest, std::hash<std::string>{}(to_text(s)));
    for (std::size_t e = 0; e < std::size(kEngines); ++e) {
      ++r.attempted;
      const std::int64_t t0 = cpu_ns();
      const DrillReport rep = run_drill(kEngines[e], s);
      const std::int64_t t1 = cpu_ns();
      per_engine[e].add(t1 - t0);
      msgs += static_cast<std::int64_t>(rep.msg_total);
      dropped += static_cast<std::int64_t>(rep.msg_dropped);
      if (!rep.ok) {
        r.fail(std::string("drill ") + protocol_name(kEngines[e]) + " seed " +
               std::to_string(s.seed) + ": " + rep.detail);
        continue;
      }
      meter.done(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  r.counts["drill.msgs"] = msgs;
  r.counts["drill.dropped"] = dropped;
  if (trace) {
    for (std::size_t e = 0; e < std::size(kEngines); ++e)
      r.layers[std::string("drill.") + protocol_name(kEngines[e]) + ".us"] =
          mean_us(per_engine[e]);
    r.layers["drill.msgs"] = static_cast<double>(msgs);
    r.layers["drill.dropped"] = static_cast<double>(dropped);
  }
  return r;
}

}  // namespace perfbench
