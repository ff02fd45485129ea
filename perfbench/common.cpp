// Helpers shared by the workloads: the measurement loop, ledger audit and
// counter/span capture.
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <fstream>
#include <string>

#include "src/obs/span.h"
#include "workloads.h"

namespace perfbench {

using namespace daric;  // NOLINT

namespace {

// The gauge runs two fixed kernels, each the fastest of three runs (so an
// interrupt does not count as a slow host), about 1 ms each on an idle host:
//  - a dependent chain of 64x64->128-bit multiplies with a load from a
//    1 MiB table on every step (latency-bound, cache-sensitive);
//  - four independent multiply chains (throughput-bound, the shape of the
//    library's field arithmetic, sensitive to a busy sibling core).
// The factor is the geometric mean of the two speeds. Either kernel alone
// follows the library's speed only loosely: in one 150 s update_hub trace on
// a shared 4-CPU Xeon host, the spread (quartile distance over median) of
// 10 s medians of update throughput was 0.29 raw, 0.14 and 0.11 scaled by
// either kernel, and 0.06 scaled by the pair.
constexpr std::size_t kTableWords = std::size_t{1} << 17;
constexpr std::uint64_t kChainSteps = 100'000;
constexpr std::uint64_t kWideSteps = 400'000;
constexpr int kGaugeRuns = 3;
constexpr double kReferenceNs = 1e6;  // each kernel's time on an idle host

std::uint64_t chain_kernel(const std::vector<std::uint64_t>& table) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  for (std::uint64_t i = 0; i < kChainSteps; ++i) {
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * 0xd1342543de82ef95ull;
    x = static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
    x += table[x & (kTableWords - 1)];
    acc += x;
  }
  return acc;
}

std::uint64_t wide_kernel() {
  using U128 = unsigned __int128;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, acc = 0;
  for (std::uint64_t i = 0; i < kWideSteps; ++i) {
    const U128 ma = static_cast<U128>(a) * 0xd1342543de82ef95ull;
    const U128 mb = static_cast<U128>(b) * 0x9e3779b97f4a7c15ull;
    const U128 mc = static_cast<U128>(c) * 0xbf58476d1ce4e5b9ull;
    const U128 md = static_cast<U128>(d) * 0x94d049bb133111ebull;
    a = static_cast<std::uint64_t>(ma) + static_cast<std::uint64_t>(mb >> 64);
    b = static_cast<std::uint64_t>(mb) + static_cast<std::uint64_t>(mc >> 64);
    c = static_cast<std::uint64_t>(mc) + static_cast<std::uint64_t>(md >> 64);
    d = static_cast<std::uint64_t>(md) + static_cast<std::uint64_t>(ma >> 64);
    acc += (a ^ b) + ((c << 13) | (c >> 51)) + (d >> 7);
  }
  return acc;
}

/// Reference time over the fastest of kGaugeRuns runs of `kernel`.
template <class F>
double speed_of(F&& kernel) {
  static volatile std::uint64_t sink = 0;
  std::int64_t best = INT64_MAX;
  for (int k = 0; k < kGaugeRuns; ++k) {
    const std::int64_t t0 = cpu_ns();
    sink = sink + kernel();
    best = std::min(best, cpu_ns() - t0);
  }
  return kReferenceNs / static_cast<double>(best);
}

}  // namespace

double speed_factor() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTableWords);
    std::uint64_t s = 1;
    for (std::uint64_t& w : t) {
      s += 0x9e3779b97f4a7c15ull;
      w = (s ^ (s >> 31)) * 0xbf58476d1ce4e5b9ull;
    }
    return t;
  }();
  return std::sqrt(speed_of([] { return chain_kernel(table); }) * speed_of(wide_kernel));
}

double GaugedClock::lap(double* factor) {
  const std::int64_t end = cpu_ns();
  const double after = speed_factor();
  const double f = (before_ + after) / 2;
  const double s = static_cast<double>(end - start_) / 1e9 * f;
  if (factor) *factor = f;
  before_ = after;
  start_ = cpu_ns();
  return s;
}

void Result::read_rss() {
  // VmHWM rather than getrusage's ru_maxrss, which keeps the high-water mark
  // of whatever process image ran before exec (the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
      return;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Meter::Meter(Result& r, const Config& cfg, double window_s, std::uint64_t rss_ops)
    : r_(r),
      cfg_(cfg),
      window_s_(window_s),
      budget_ns_(static_cast<std::int64_t>(cfg.seconds * 1e9)),
      start_(now_ns()),
      window_cpu_start_(cpu_ns()),
      rss_ops_(rss_ops) {
  r_.windows.push_back({0, 0, r_.latency_us.size()});
}

bool Meter::running() {
  const bool more =
      cfg_.fixed_ops ? r_.attempted < cfg_.fixed_ops : now_ns() - start_ < budget_ns_;
  if (!more) {
    close_window();
    if (!rss_read_) r_.read_rss();
    rss_read_ = true;
  } else if (!cfg_.fixed_ops &&
             static_cast<double>(cpu_ns() - window_cpu_start_) / 1e9 >= window_s_) {
    close_window();
    r_.windows.push_back({0, 0, r_.latency_us.size()});
  }
  return more;
}

void Meter::done(double latency_us) {
  ++r_.ops;
  ++r_.windows.back().ops;
  r_.latency_us.push_back(latency_us);
  if (!rss_read_ && r_.ops >= rss_ops_) {
    r_.read_rss();
    rss_read_ = true;
  }
}

void Meter::close_window() {
  double factor = 1;
  r_.windows.back().seconds = clock_.lap(&factor);
  r_.scale_latency(r_.windows.back().first_sample, factor);
  window_cpu_start_ = cpu_ns();
}

bool ledger_conserves(const sim::Environment& env) {
  const auto& l = env.ledger();
  return l.utxos().total_value() + l.fees_total() == l.minted_total();
}

EnvCounters EnvCounters::read(sim::Environment& env) {
  auto& m = env.metrics();
  auto v = [&m](const char* name) { return static_cast<std::int64_t>(m.counter(name).value()); };
  return {v("sim.rounds"), v("sim.msg.sent"), v("ledger.tx.posted"), v("ledger.tx.confirmed"),
          v("ledger.tx.rejected")};
}

void record_env_counters(Result& r, const EnvCounters& base, const EnvCounters& end,
                         bool traced) {
  const std::pair<const char*, std::int64_t> deltas[] = {
      {"sim.rounds", end.rounds - base.rounds},
      {"sim.msgs", end.msgs - base.msgs},
      {"ledger.tx.posted", end.posted - base.posted},
      {"ledger.tx.confirmed", end.confirmed - base.confirmed},
      {"ledger.tx.rejected", end.rejected - base.rejected},
  };
  for (const auto& [name, d] : deltas) {
    r.counts[name] += d;
    if (traced) r.layers[name] += static_cast<double>(d);
  }
}

SpanSums SpanSums::read() {
  return {span_ns("daric.update.total"), span_ns("daric.update.sighash"),
          span_ns("daric.update.skeleton"), span_ns("daric.update.sign"),
          span_ns("daric.update.batch_flush")};
}

SpanSums SpanSums::since(const SpanSums& base) const {
  return {total - base.total, sighash - base.sighash, skeleton - base.skeleton,
          sign - base.sign, flush - base.flush};
}

void SpanSums::add(const SpanSums& d) {
  total += d.total;
  sighash += d.sighash;
  skeleton += d.skeleton;
  sign += d.sign;
  flush += d.flush;
}

void record_layers(Result& r, const Layers& L, const SpanSums& spans) {
  auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  auto& m = r.layers;
  m["crypto.sign.calls"] += static_cast<double>(L.sign.calls);
  m["crypto.sign.us"] += us(L.sign.ns);
  m["crypto.batch.calls"] += static_cast<double>(L.batch.calls);
  m["crypto.batch.items"] += static_cast<double>(L.batch.items);
  m["crypto.batch.us"] += us(L.batch.ns);
  m["crypto.verify.calls"] += static_cast<double>(L.verify.calls);
  m["crypto.verify.us"] += us(L.verify.ns);
  m["daric.update.us"] += us(L.update.ns);
  m["sim.sweep.us"] += us(L.sweep.ns);
  m["ledger.round.us"] += us(L.ledger_round.ns);
  m["ledger.verify.us"] += us(L.ledger_crypto.ns);
  m["store.persist.calls"] += static_cast<double>(L.persist.calls);
  m["store.persist.us"] += us(L.persist.ns);
  m["store.append.bytes"] += static_cast<double>(L.append.items);
  m["store.syncs"] += static_cast<double>(L.sync.calls);
  m["tower.watch.us"] += us(L.tower_watch.ns);
  m["tower.round.us"] += us(L.tower_round.ns);
  m["pcn.route.us"] += us(L.route.ns);
  m["pcn.lock.us"] += us(L.lock.ns);
  m["pcn.settle.us"] += us(L.settle.ns);

  const std::int64_t children = spans.sighash + spans.skeleton + spans.sign + spans.flush;
  m["daric.update.sighash_us"] += us(spans.sighash);
  m["daric.update.skeleton_us"] += us(spans.skeleton);
  m["daric.update.sign_us"] += us(spans.sign);
  m["daric.update.batch_flush_us"] += us(spans.flush);
  m["daric.update.unattributed_us"] += us(spans.total - children);
}

}  // namespace perfbench
