// The four benchmark workloads and what they report.
//
// Each workload generates every input from the seed, runs a set-up phase
// several times (setup_s is the median), then measures for a wall-clock
// budget (or, in the determinism self-test, for a fixed operation count)
// and checks the library's outputs. A non-null Trace turns on the layer
// probes; untraced runs never construct them.
//
// Every end-to-end time is CPU time of the driver thread (cpu_ns()), scaled
// to a reference host speed by a gauge measured around it (speed_factor()).
// Only the run's budget is wall-clock time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

/// Host speed gauge. On a shared host the core itself runs slower while
/// other tenants are busy, so even CPU time swings by a third within
/// minutes. This runs a fixed kernel that never calls the library and
/// returns its reference time over its time now: about 1 on an idle host,
/// less on a busy one. A CPU time multiplied by the factor measured around
/// it reads as the time the work would take on the reference host.
double speed_factor();

/// CPU time of one stretch of work, gauged at both ends.
class GaugedClock {
 public:
  GaugedClock() : before_(speed_factor()), start_(cpu_ns()) {}
  /// Ends the stretch (the clock can then start the next one) and returns
  /// its scaled duration in seconds; `factor` receives the scale used.
  double lap(double* factor = nullptr);

 private:
  double before_;
  std::int64_t start_;
};

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// > 0: stop after this many operations instead of after `seconds`, and
  /// set up only once (the determinism self-test). Input sizes stay the same.
  std::uint64_t fixed_ops = 0;

  int setup_repeats(int normal) const { return fixed_ops ? 1 : normal; }
};

/// One measurement window: throughput is the median over windows, so a
/// burst of interference moves one window, not the run.
struct Window {
  double seconds = 0;  // CPU seconds
  std::uint64_t ops = 0;
  std::size_t first_sample = 0;  // index of its first sample in Result::latency_us
};

/// One workload run. Per-layer numbers are raw totals; main.cpp normalizes
/// them per end-to-end operation.
struct Result {
  std::string op_name;              // "update", "payment", "close", "drill"
  std::vector<double> setup_s;      // CPU seconds, one per set-up repetition
  double rss_mb = 0;                // peak resident set after a fixed amount of work
  std::vector<Window> windows;
  std::vector<double> latency_us;   // CPU µs, one sample per latency event
  std::uint64_t ops = 0;            // completed end-to-end operations
  std::uint64_t attempted = 0;      // operations attempted
  std::uint64_t failed = 0;         // operations whose output check failed
  std::vector<std::string> errors;  // correctness failures, with detail

  /// Named per-layer values: "*.us" totals in µs, counts as counts. Keys
  /// must be names from kLayerMetrics (main.cpp); absent keys report 0.
  std::map<std::string, double> layers;
  /// Counts that must repeat exactly for a fixed seed (self-test).
  std::map<std::string, std::int64_t> counts;
  /// Digest of the generated inputs (a different seed must change it).
  std::uint64_t input_digest = 0;

  /// Scales the latency samples from index `first` on by `factor`.
  void scale_latency(std::size_t first, double factor) {
    for (std::size_t i = first; i < latency_us.size(); ++i) latency_us[i] *= factor;
  }
  /// Reads the peak resident set (VmHWM) into `rss_mb`.
  void read_rss();
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  double measured_s() const {
    double s = 0;
    for (const Window& w : windows) s += w.seconds;
    return s;
  }
};

/// Drives a closed measurement loop: `running()` is checked before each
/// operation (or batch), ends the run when the wall-clock budget is spent,
/// and cuts a new window every `window_s` CPU seconds; `done(latency)`
/// records one completed operation. The peak resident set is read once
/// `rss_ops` operations are done (or at the end, if the run does fewer), so
/// it covers the hot path's allocations but not how many operations a fast
/// host fits into the budget.
class Meter {
 public:
  Meter(Result& r, const Config& cfg, double window_s, std::uint64_t rss_ops);
  bool running();
  void done(double latency_us);

 private:
  void close_window();

  Result& r_;
  const Config& cfg_;
  double window_s_;
  std::int64_t budget_ns_, start_;
  GaugedClock clock_;
  std::int64_t window_cpu_start_;
  std::uint64_t rss_ops_;
  bool rss_read_ = false;
};

Result run_update_hub(const Config& cfg, Trace* trace);
Result run_pcn_mesh(const Config& cfg, Trace* trace);
Result run_close_storm(const Config& cfg, Trace* trace);
Result run_chaos_sweep(const Config& cfg, Trace* trace);

// --- helpers shared by the workloads --------------------------------------

/// FNV-1a fold of one generated input value into a digest.
inline void fold(std::uint64_t& digest, std::uint64_t v) {
  if (digest == 0) digest = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

/// minted = unspent + fees: no value appears or vanishes on the ledger.
bool ledger_conserves(const daric::sim::Environment& env);

/// Copies the environment's always-on counters into `r.counts` and (when
/// tracing) `r.layers`, as deltas against `base` taken before measuring.
struct EnvCounters {
  std::int64_t rounds = 0, msgs = 0, posted = 0, confirmed = 0, rejected = 0;
  static EnvCounters read(daric::sim::Environment& env);
};
void record_env_counters(Result& r, const EnvCounters& base, const EnvCounters& end,
                         bool traced);

/// Nanoseconds recorded so far by the Daric update-phase OBS_SPANs.
struct SpanSums {
  std::int64_t total = 0, sighash = 0, skeleton = 0, sign = 0, flush = 0;
  static SpanSums read();
  SpanSums since(const SpanSums& base) const;
  void add(const SpanSums& d);
};

/// Copies measured layer totals and update-phase span time into `r.layers`.
void record_layers(Result& r, const Layers& L, const SpanSums& spans);

}  // namespace perfbench
