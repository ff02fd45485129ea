// Span profiling: scoped wall-clock timers that feed quantile histograms.
//
// Cost model mirrors the tracer's: spans are DISABLED by default, and a
// disabled OBS_SPAN costs exactly one relaxed atomic load plus a branch —
// the property bench_obs_scale gates (BM_SpanDisabled) and the reason the
// instrumented engine hot paths stay inside the BM_DaricUpdate budget.
//
// When enabled, a span records the elapsed steady-clock nanoseconds of its
// scope into a log-linear histogram named "span.<name>_ns" in the
// process-wide PROFILE registry (not the per-Environment registry: spans
// measure code paths, which exist once per process, not once per sim run).
// Each OBS_SPAN site resolves its histogram handle once via a function-local
// static, so the name lookup happens once per site per process.
//
// Span name taxonomy (dotted, coarse-to-fine):
//   daric.update.{total,skeleton,sighash,sign,verify}
//   <engine>.update.total            lightning|eltoo|generalized|cerberus|fppw
//   store.{fsync,replace,compact}    durable-backend barriers
//   tower.{restore,round,react,compact}
//   pcn.pay.{total,lock,settle}
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/obs/metrics.h"

namespace daric::obs {

namespace detail {
extern std::atomic<bool> g_spans_enabled;
}  // namespace detail

/// The one relaxed load a disabled span costs.
inline bool spans_enabled() {
  return detail::g_spans_enabled.load(std::memory_order_relaxed);
}
void set_spans_enabled(bool on);

/// Process-wide registry holding every span histogram (and nothing else by
/// convention). Snapshot/expose it alongside a run's Environment registry.
Registry& profile_registry();

/// The histogram behind span `name` ("span.<name>_ns" in profile_registry()).
Histogram& span_histogram(const std::string& name);

/// RAII scope timer. Construct with nullptr (disabled) or a histogram
/// handle; the destructor observes the elapsed nanoseconds.
class Span {
 public:
  explicit Span(Histogram* h) : h_(h) {
    if (h_ != nullptr)
      start_ = std::chrono::steady_clock::now().time_since_epoch().count();
  }
  ~Span() {
    if (h_ != nullptr)
      h_->observe(std::chrono::steady_clock::now().time_since_epoch().count() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Histogram* h_;
  std::int64_t start_ = 0;
};

}  // namespace daric::obs

#define DARIC_OBS_CAT2(a, b) a##b
#define DARIC_OBS_CAT(a, b) DARIC_OBS_CAT2(a, b)

/// Scoped span: times the rest of the enclosing block under `name`.
/// Disabled cost: one relaxed atomic load + branch (no clock read, no
/// lookup). Enabled cost: two steady_clock reads + one histogram observe;
/// the name lookup runs once per call site (function-local static handle).
#define OBS_SPAN(name)                                                \
  ::daric::obs::Span DARIC_OBS_CAT(obs_span_, __LINE__) {             \
    ::daric::obs::spans_enabled() ? ([]() -> ::daric::obs::Histogram* { \
      static ::daric::obs::Histogram& h = ::daric::obs::span_histogram(name); \
      return &h;                                                      \
    })()                                                              \
                                  : nullptr                           \
  }
