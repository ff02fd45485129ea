// daric_perfbench: one seeded end-to-end benchmark over the Daric library.
//
//   daric_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   daric_perfbench --self-test [--seed N]
//
// Workloads: update_hub, pcn_mesh, close_storm, chaos_sweep (see README.md).
// --trace 0 measures the plain library and prints the end-to-end metrics;
// --trace 1 measures an untraced and then a traced half-run and prints the
// per-layer metrics plus the tracing overhead between the two halves. The
// last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Exit status: 0 when every output check passed, 1 on a correctness
// failure, 2 on bad usage, 3 when the build is not optimized.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "src/obs/span.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

using Runner = Result (*)(const Config&, Trace*);

struct Workload {
  const char* name;
  Runner run;
  std::uint64_t self_test_ops;  // operation count of a self-test run
};

constexpr Workload kWorkloads[] = {
    {"update_hub", run_update_hub, 100},
    {"pcn_mesh", run_pcn_mesh, 24},
    {"close_storm", run_close_storm, 1},
    {"chaos_sweep", run_chaos_sweep, 8},
};

/// Per-layer metrics of the traced run. kPerOp values are divided by the
/// run's completed end-to-end operations; kAsIs values are already rates,
/// ratios or per-call means.
enum class Norm { kPerOp, kAsIs };
struct LayerMetric {
  const char* name;
  const char* unit;
  Norm norm;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"crypto.sign.calls", "count/op", Norm::kPerOp},
    {"crypto.sign.us", "us/op", Norm::kPerOp},
    {"crypto.batch.calls", "count/op", Norm::kPerOp},
    {"crypto.batch.items", "count/op", Norm::kPerOp},
    {"crypto.batch.us", "us/op", Norm::kPerOp},
    {"crypto.verify.calls", "count/op", Norm::kPerOp},
    {"crypto.verify.us", "us/op", Norm::kPerOp},
    {"daric.create.us", "us/call", Norm::kAsIs},
    {"daric.update.us", "us/op", Norm::kPerOp},
    {"daric.update.sighash_us", "us/op", Norm::kPerOp},
    {"daric.update.skeleton_us", "us/op", Norm::kPerOp},
    {"daric.update.sign_us", "us/op", Norm::kPerOp},
    {"daric.update.batch_flush_us", "us/op", Norm::kPerOp},
    {"daric.update.unattributed_us", "us/op", Norm::kPerOp},
    {"sim.rounds", "count/op", Norm::kPerOp},
    {"sim.msgs", "count/op", Norm::kPerOp},
    {"sim.sweep.us", "us/op", Norm::kPerOp},
    {"ledger.round.us", "us/op", Norm::kPerOp},
    {"ledger.verify.us", "us/op", Norm::kPerOp},
    {"ledger.nonsig.us", "us/op", Norm::kPerOp},
    {"ledger.tx.posted", "count/op", Norm::kPerOp},
    {"ledger.tx.confirmed", "count/op", Norm::kPerOp},
    {"ledger.tx.rejected", "count/op", Norm::kPerOp},
    {"ledger.confirm_ratio", "ratio", Norm::kAsIs},
    {"store.persist.calls", "count/op", Norm::kPerOp},
    {"store.persist.us", "us/op", Norm::kPerOp},
    {"store.append.bytes", "B/op", Norm::kPerOp},
    {"store.syncs", "count/op", Norm::kPerOp},
    {"tower.watch.us", "us/op", Norm::kPerOp},
    {"tower.round.us", "us/op", Norm::kPerOp},
    {"tower.reactions", "count/op", Norm::kPerOp},
    {"pcn.route.us", "us/op", Norm::kPerOp},
    {"pcn.route.hops", "hops", Norm::kAsIs},
    {"pcn.lock.us", "us/op", Norm::kPerOp},
    {"pcn.settle.us", "us/op", Norm::kPerOp},
    {"pcn.failed.no_route", "ratio", Norm::kAsIs},
    {"pcn.failed.lock", "ratio", Norm::kAsIs},
    {"pcn.failed.settle", "ratio", Norm::kAsIs},
    {"drill.daric.us", "us/drill", Norm::kAsIs},
    {"drill.lightning.us", "us/drill", Norm::kAsIs},
    {"drill.generalized.us", "us/drill", Norm::kAsIs},
    {"drill.eltoo.us", "us/drill", Norm::kAsIs},
    {"drill.msgs", "count/op", Norm::kPerOp},
    {"drill.dropped", "count/op", Norm::kPerOp},
    {"close.punish_gap_rounds_max", "rounds", Norm::kAsIs},
    {"trace.overhead_pct", "%", Norm::kAsIs},
};

/// Linear-interpolated quantile of `v` (sorted copy), 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Operations per CPU second: the median over the run's windows.
double ops_per_s(const Result& r) {
  std::vector<double> v;
  for (const Window& w : r.windows)
    if (w.seconds > 0) v.push_back(static_cast<double>(w.ops) / w.seconds);
  return median(std::move(v));
}

/// Shortest text that reads back as exactly `v` (every digit kept).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  // End-of-run audits (balances, stores) can miss more often than operations
  // were attempted; report at most every attempted operation as failed.
  failed = std::min(failed, attempted);
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_errors(const Result& r) {
  for (const std::string& e : r.errors) std::cerr << "perfbench: CHECK FAILED: " << e << '\n';
}

/// The end-to-end metrics of an untraced run, plus the same numbers under
/// the names each workload's operation suggests (printed, not reported).
std::vector<Metric> end_to_end(const std::string& workload, const Result& r) {
  const std::vector<Metric> m = {
      {"setup_s", "s", median(r.setup_s)},
      {"ops_per_s", "1/s", ops_per_s(r)},
      {"op_p50_us", "us", quantile(r.latency_us, 0.5)},
      {"op_p90_us", "us", quantile(r.latency_us, 0.9)},
      {"peak_rss_mb", "MB", r.rss_mb},
  };
  const std::size_t samples = r.latency_us.size();
  const char* per_s = workload == "update_hub"    ? "updates_per_s"
                      : workload == "pcn_mesh"    ? "payments_per_s"
                      : workload == "close_storm" ? "closes_per_s"
                                                  : "drills_per_s";
  std::cout << "workload " << workload << ": " << r.ops << " " << r.op_name << "s in "
            << num(r.measured_s()) << " CPU s over " << r.windows.size() << " windows, " << samples
            << " latency samples, " << r.setup_s.size() << " set-ups\n";
  std::cout << "  " << per_s << " " << num(m[1].value) << " 1/s\n";
  if (workload == "update_hub") {
    std::cout << "  update_p50_us " << num(m[2].value) << " us\n"
              << "  update_p90_us " << num(m[3].value) << " us\n";
  } else if (workload == "pcn_mesh") {
    std::cout << "  payment_p50_ms " << num(m[2].value / 1e3) << " ms\n"
              << "  payment_p90_ms " << num(m[3].value / 1e3) << " ms\n"
              << "  declined_ratio "
              << num(static_cast<double>(r.counts.at("pcn.declined")) /
                     static_cast<double>(r.attempted))
              << "\n";
  } else if (workload == "close_storm") {
    std::cout << "  punish_round_p50_us " << num(m[2].value) << " us\n"
              << "  punish_round_p90_us " << num(m[3].value) << " us\n"
              << "  punish_gap_rounds_max " << r.counts.at("close.punish_gap_rounds_max")
              << " rounds (Theorem 1 bound T-delta = 4)\n";
  } else {
    std::cout << "  drill_p50_us " << num(m[2].value) << " us\n";
  }
  std::cout << "  failed_ratio "
            << num(r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                               : 0)
            << "\n";
  for (const Metric& x : m)
    std::cout << "metric " << x.name << " " << num(x.value) << " " << x.unit << "\n";
  return m;
}

std::vector<Metric> per_layer(const Result& traced, double overhead_pct) {
  std::map<std::string, double> v = traced.layers;
  v["ledger.nonsig.us"] = std::max(0.0, v["ledger.round.us"] - v["ledger.verify.us"]);
  v["ledger.confirm_ratio"] =
      v["ledger.tx.posted"] > 0 ? v["ledger.tx.confirmed"] / v["ledger.tx.posted"] : 0;
  v["trace.overhead_pct"] = overhead_pct;
  const double ops = traced.ops ? static_cast<double>(traced.ops) : 1.0;
  std::vector<Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    const double raw = v.count(lm.name) ? v[lm.name] : 0.0;
    out.push_back({lm.name, lm.unit, lm.norm == Norm::kPerOp ? raw / ops : raw});
    std::cout << "layer " << lm.name << " " << num(out.back().value) << " " << lm.unit << "\n";
  }
  return out;
}

int run_one(const Workload& w, const Config& cfg, bool trace) {
  if (!trace) {
    const Result r = w.run(cfg, nullptr);
    print_errors(r);
    print_result(end_to_end(w.name, r), r.attempted, r.failed);
    return r.failed == 0 ? 0 : 1;
  }
  // Traced: an untraced half and a traced half, each with its own set-up,
  // so the overhead compares the same workload with the probes off and on.
  Config half = cfg;
  half.seconds = cfg.seconds / 2;
  const Result plain = w.run(half, nullptr);
  daric::obs::set_spans_enabled(true);
  Trace t;
  const Result traced = w.run(half, &t);
  daric::obs::set_spans_enabled(false);
  print_errors(plain);
  print_errors(traced);
  std::cout << "untraced half:\n";
  end_to_end(w.name, plain);
  std::cout << "traced half:\n";
  end_to_end(w.name, traced);
  const double traced_rate = ops_per_s(traced);
  const double overhead = traced_rate > 0 ? (ops_per_s(plain) / traced_rate - 1) * 100 : 0;
  std::cout << "tracing overhead " << num(overhead) << " % (untraced ops/s over traced ops/s)\n";
  const std::uint64_t failed = plain.failed + traced.failed;
  print_result(per_layer(traced, overhead), plain.attempted + traced.attempted, failed);
  return failed == 0 ? 0 : 1;
}

/// Determinism self-test: the same seed repeats every count and input
/// digest exactly (untraced and traced alike, so tracing does not perturb
/// the run), and the next seed generates different inputs.
int self_test(std::uint64_t seed) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  for (const Workload& w : kWorkloads) {
    std::cout << w.name << ":\n";
    Config cfg;
    cfg.seed = seed;
    cfg.fixed_ops = w.self_test_ops;
    const Result a = w.run(cfg, nullptr);
    const Result b = w.run(cfg, nullptr);
    daric::obs::set_spans_enabled(true);
    Trace t1, t2;
    const Result ta = w.run(cfg, &t1);
    const Result tb = w.run(cfg, &t2);
    daric::obs::set_spans_enabled(false);
    Config other = cfg;
    other.seed = seed + 1;
    const Result c = w.run(other, nullptr);
    for (const Result* r : {&a, &b, &ta, &tb, &c}) print_errors(*r);
    expect(a.failed + b.failed + ta.failed + tb.failed + c.failed == 0,
           "every output check passes");
    expect(a.counts == b.counts && a.input_digest == b.input_digest,
           "same seed, same counts and inputs (" + std::to_string(a.counts.size()) +
               " counts)");
    expect(ta.counts == tb.counts, "same seed, same counts when traced");
    bool same = true;
    for (const auto& [name, v] : a.counts) {
      const auto it = ta.counts.find(name);
      same = same && it != ta.counts.end() && it->second == v;
    }
    expect(same && ta.input_digest == a.input_digest, "tracing does not change the run");
    expect(c.input_digest != a.input_digest, "a different seed generates different inputs");
    for (const auto& [name, v] : a.counts) std::cout << "        " << name << " = " << v << "\n";
  }
  std::cout << (failures ? "self-test FAILED" : "self-test passed") << std::endl;
  return failures ? 1 : 0;
}

int usage(const char* why) {
  std::cerr << "daric_perfbench: " << why << "\n"
            << "usage: daric_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "       daric_perfbench --self-test [--seed N]\n"
            << "workloads: update_hub pcn_mesh close_storm chaos_sweep" << std::endl;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Config cfg;
  bool trace = false, selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--self-test") {
        selftest = true;
      } else if (a == "--workload" && has_value) {
        workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        cfg.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        cfg.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        trace = std::string(argv[++i]) == "1";
      } else {
        return usage(("unknown or incomplete flag '" + a + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }

#ifndef __OPTIMIZE__
  std::cerr << "daric_perfbench: refusing to report timings from a non-optimized build ("
            << PERFBENCH_BUILD_TYPE << ")" << std::endl;
  return 3;
#endif
  std::cout << "build {\"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"optimized\": true}" << std::endl;

  try {
    // The gauge's first runs are slow (cold caches, a core still ramping
    // up); run it once before anything is measured.
    for (int i = 0; i < 10; ++i) speed_factor();
    if (selftest) return self_test(cfg.seed);
    if (cfg.seconds <= 0) return usage("--seconds must be positive");
    for (const Workload& w : kWorkloads)
      if (workload == w.name) return run_one(w, cfg, trace);
    return usage(("unknown workload '" + workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "daric_perfbench: " << e.what() << std::endl;
    return 1;
  }
}
