// Observability layer: tracer/sink contracts, histogram bucket math, the
// Chrome trace export, and the exact Daric force-close event sequence that
// tools/daric_trace audits against Theorem 1.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/sig_scheme.h"
#include "src/obs/metrics.h"
#include "src/obs/scenarios.h"
#include "src/obs/sinks.h"
#include "src/obs/span.h"
#include "src/obs/tracer.h"
#include "src/sim/environment.h"

namespace daric {
namespace {

using obs::Event;
using obs::EventKind;

std::optional<std::string> attr_s(const Event& e, const std::string& key) {
  for (const auto& a : e.attrs)
    if (a.key == key && !a.is_int) return a.str;
  return std::nullopt;
}

std::optional<std::int64_t> attr_i(const Event& e, const std::string& key) {
  for (const auto& a : e.attrs)
    if (a.key == key && a.is_int) return a.num;
  return std::nullopt;
}

TEST(Histogram, LogLinearBucketMath) {
  // Values 0..63 get exact unit buckets: the bound IS the value.
  for (std::int64_t v = 0; v <= 63; ++v)
    EXPECT_EQ(obs::Histogram::bucket_bound(obs::Histogram::bucket_index(v)), v);
  // Negative values collapse into bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_index(-5), 0u);
  // Beyond 63 every value's bucket bound is >= the value and within the
  // documented relative error of it.
  for (std::int64_t v : {std::int64_t{64}, std::int64_t{65}, std::int64_t{100},
                         std::int64_t{127}, std::int64_t{128}, std::int64_t{1000},
                         std::int64_t{4096}, std::int64_t{1} << 20,
                         (std::int64_t{1} << 40) + 12345}) {
    const auto idx = obs::Histogram::bucket_index(v);
    const std::int64_t bound = obs::Histogram::bucket_bound(idx);
    EXPECT_GE(bound, v);
    EXPECT_LE(bound - v, static_cast<std::int64_t>(
                             static_cast<double>(v) * obs::Histogram::kRelativeError) +
                             1)
        << "v=" << v;
  }
  // Bounds are strictly increasing across the whole index range.
  for (std::size_t i = 1; i < obs::Histogram::kBucketCount; ++i)
    ASSERT_GT(obs::Histogram::bucket_bound(i), obs::Histogram::bucket_bound(i - 1))
        << "at index " << i;
}

TEST(Histogram, AggregatesAndSparseSnapshot) {
  obs::Histogram h;
  for (std::int64_t v : {-1, 0, 1, 10, 11, 20, 21}) h.observe(v);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 62);
  EXPECT_EQ(h.min(), -1);
  EXPECT_EQ(h.max(), 21);
  const auto buckets = h.nonempty_buckets();
  // All values <= 63: exact unit buckets, -1 shares bucket 0 with 0.
  ASSERT_EQ(buckets.size(), 6u);
  EXPECT_EQ(buckets[0], (std::pair<std::int64_t, std::uint64_t>{0, 2}));
  EXPECT_EQ(buckets[1], (std::pair<std::int64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(buckets.back(), (std::pair<std::int64_t, std::uint64_t>{21, 1}));
  std::uint64_t total = 0;
  for (const auto& [bound, n] : buckets) total += n;
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, QuantileAccuracyAgainstExactRanks) {
  obs::Histogram h;
  for (std::int64_t v = 1; v <= 10000; ++v) h.observe(v);
  const obs::Histogram::Quantiles qs = h.quantiles();
  const auto check = [](std::int64_t got, std::int64_t exact) {
    EXPECT_GE(got, exact);
    EXPECT_LE(static_cast<double>(got - exact),
              static_cast<double>(exact) * obs::Histogram::kRelativeError + 1.0)
        << "got=" << got << " exact=" << exact;
  };
  check(qs.p50, 5000);
  check(qs.p90, 9000);
  check(qs.p99, 9900);
  check(qs.p999, 9990);
  EXPECT_EQ(h.quantile(1.0), h.quantile(0.9999));
  // Quantiles are monotone and bracketed by min/max's buckets.
  EXPECT_LE(qs.p50, qs.p90);
  EXPECT_LE(qs.p90, qs.p99);
  EXPECT_LE(qs.p99, qs.p999);
}

TEST(Histogram, EmptyQuantilesAreZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  const auto qs = h.quantiles();
  EXPECT_EQ(qs.p999, 0);
  EXPECT_TRUE(h.nonempty_buckets().empty());
}

TEST(Tracer, DisabledByDefaultEmitsNothing) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(3, EventKind::kRoundAdvance, "sim", "", "");
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_TRUE(t.ring_snapshot().empty());

  // Attaching a sink enables tracing; disabling again silences the sink.
  obs::CollectSink sink;
  t.add_sink(&sink);
  EXPECT_TRUE(t.enabled());
  t.emit(4, EventKind::kRoundAdvance, "sim", "", "");
  ASSERT_EQ(sink.events.size(), 1u);
  t.set_enabled(false);
  t.emit(5, EventKind::kRoundAdvance, "sim", "", "");
  EXPECT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(t.emitted(), 1u);
}

TEST(Tracer, EnvironmentDefaultsToNullSink) {
  sim::Environment env(2, crypto::schnorr_scheme());
  env.advance_round();
  env.advance_round();
  EXPECT_FALSE(env.tracer().enabled());
  EXPECT_EQ(env.tracer().emitted(), 0u);
  // Metrics stay on even with tracing off.
  EXPECT_EQ(env.metrics().counter("sim.rounds").value(), 2u);
}

TEST(Scenario, EventOrderingMonotone) {
  const obs::ScenarioRun r = obs::run_scenario("daric", "update");
  ASSERT_TRUE(r.ok) << r.detail;
  ASSERT_FALSE(r.events.empty());
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    EXPECT_GT(r.events[i].seq, r.events[i - 1].seq) << "at index " << i;
    EXPECT_GE(r.events[i].round, r.events[i - 1].round) << "at index " << i;
  }
}

TEST(Sinks, ChromeTraceExportIsValidJson) {
  const obs::ScenarioRun r = obs::run_scenario("daric", "force-close");
  ASSERT_TRUE(r.ok) << r.detail;
  const std::string json = obs::chrome_trace_json(r.events);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Braces balance (attrs are flat, so no string ever contains a brace).
  std::ptrdiff_t open = 0, close = 0;
  for (char c : json) {
    if (c == '{') ++open;
    if (c == '}') ++close;
  }
  EXPECT_EQ(open, close);
}

TEST(Scenario, DaricForceCloseExactSequence) {
  const obs::ScenarioRun r = obs::run_scenario("daric", "force-close");
  ASSERT_TRUE(r.ok) << r.detail;

  std::vector<Event> daric_events;
  for (const Event& e : r.events)
    if (e.engine == "daric") daric_events.push_back(e);

  const std::vector<EventKind> expected = {
      EventKind::kChannelState,  // open sn=0
      EventKind::kChannelState,  // updating sn=1
      EventKind::kChannelState,  // updated  sn=1
      EventKind::kChannelState,  // updating sn=2
      EventKind::kChannelState,  // updated  sn=2
      EventKind::kForceClose,    // B publishes revoked state-0 commit
      EventKind::kPunish,        // A posts the revocation
      EventKind::kChannelState,  // closed (A, punished)
      EventKind::kChannelState,  // closed (B, punished)
  };
  ASSERT_EQ(daric_events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(daric_events[i].kind, expected[i]) << "at index " << i;

  EXPECT_EQ(attr_s(daric_events[0], "phase"), "open");
  EXPECT_EQ(attr_i(daric_events[0], "sn"), 0);
  EXPECT_EQ(attr_s(daric_events[4], "phase"), "updated");
  EXPECT_EQ(attr_i(daric_events[4], "sn"), 2);

  const Event& dispute = daric_events[5];
  EXPECT_EQ(dispute.party, "B");
  EXPECT_EQ(attr_i(dispute, "sn"), 0);
  EXPECT_EQ(attr_i(dispute, "revoked"), 1);

  const Event& punish = daric_events[6];
  EXPECT_EQ(punish.party, "A");
  EXPECT_EQ(attr_i(punish, "revoked_state"), 0);
  EXPECT_EQ(attr_i(punish, "latest_sn"), 2);

  EXPECT_EQ(attr_s(daric_events[7], "outcome"), "punished");
  EXPECT_EQ(attr_s(daric_events[8], "outcome"), "punished");

  // Theorem 1: the punishment lands within T - delta rounds of the dispute
  // publication (scenario constants: T = 8, delta = 2).
  const std::int64_t gap = punish.round - dispute.round;
  EXPECT_GE(gap, 0);
  EXPECT_LE(gap, 8 - 2);
}

TEST(Metrics, RegistrySnapshotStructure) {
  obs::Registry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.level").set(-7);
  reg.histogram("a.lat").observe(3);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"a.level\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"quantiles\""), std::string::npos);
  const std::string text = reg.summary_text();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("a.lat"), std::string::npos);
}

TEST(Metrics, LookupCountPinsSteadyStateHotPaths) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hot.counter");
  obs::Histogram& h = reg.histogram("hot.hist");
  const std::uint64_t warm = reg.lookup_count();
  EXPECT_EQ(warm, 2u);
  // The cached-handle discipline: a million events, zero further lookups.
  for (int i = 0; i < 1000; ++i) {
    c.inc();
    h.observe(i);
  }
  EXPECT_EQ(reg.lookup_count(), warm);
  // A repeated name lookup is counted (that is what the tests pin).
  reg.counter("hot.counter").inc();
  EXPECT_EQ(reg.lookup_count(), warm + 1);
  EXPECT_EQ(c.value(), 1001u);
}

TEST(Metrics, GaugeSetIsLastWriterWinsAfterAdds) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("g");
  g.add(5);
  g.add(7);
  EXPECT_EQ(g.value(), 12);
  g.set(3);  // set() resets every stripe, not just the caller's
  EXPECT_EQ(g.value(), 3);
  g.add(-4);
  EXPECT_EQ(g.value(), -1);
}

TEST(Metrics, PrometheusExposition) {
  obs::Registry reg;
  reg.counter("daric.updates").inc(2);
  reg.gauge("tower.channels").set(9);
  reg.histogram("daric.onchain_weight").observe(100);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("# TYPE daric_updates counter"), std::string::npos);
  EXPECT_NE(text.find("daric_updates 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tower_channels gauge"), std::string::npos);
  EXPECT_NE(text.find("tower_channels 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE daric_onchain_weight histogram"), std::string::npos);
  EXPECT_NE(text.find("daric_onchain_weight_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("daric_onchain_weight_sum 100"), std::string::npos);
  EXPECT_NE(text.find("daric_onchain_weight_count 1"), std::string::npos);
  // Names are sanitized: no '.' survives into the exposition.
  EXPECT_EQ(text.find("daric.updates"), std::string::npos);
}

TEST(Spans, DisabledByDefaultRecordsNothing) {
  obs::set_spans_enabled(false);
  EXPECT_FALSE(obs::spans_enabled());
  {
    OBS_SPAN("test.disabled_span");
  }
  const std::string json = obs::profile_registry().snapshot_json();
  EXPECT_EQ(json.find("test.disabled_span"), std::string::npos);
}

TEST(Spans, EnabledSpansRecordDurations) {
  obs::set_spans_enabled(true);
  for (int i = 0; i < 3; ++i) {
    OBS_SPAN("test.enabled_span");
  }
  obs::set_spans_enabled(false);
  obs::Histogram& h = obs::span_histogram("test.enabled_span");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GE(h.sum(), 0);
  const std::string json = obs::profile_registry().snapshot_json();
  EXPECT_NE(json.find("span.test.enabled_span_ns"), std::string::npos);
}

}  // namespace
}  // namespace daric
