#include "src/obs/metrics.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/obs/event.h"  // json_escape

namespace daric::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram()
    : buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(kBucketCount)) {
  min_.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(), std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(std::int64_t v) {
  if (v <= 0) return 0;
  const auto u = static_cast<std::uint64_t>(v);
  const int msb = 63 - std::countl_zero(u);
  if (msb < 6) return static_cast<std::size_t>(u);  // 1..63: exact
  const int shift = msb - 5;
  const auto sub = static_cast<std::size_t>((u >> shift) - 32);
  return 64 + static_cast<std::size_t>(msb - 6) * 32 + sub;
}

std::int64_t Histogram::bucket_bound(std::size_t idx) {
  if (idx < 64) return static_cast<std::int64_t>(idx);
  const std::size_t g = (idx - 64) / 32;
  const std::size_t sub = (idx - 64) % 32;
  const int shift = static_cast<int>(g) + 1;
  // Unsigned: the last bucket's bound is 2^63 - 1, and 2^63 overflows int64.
  return static_cast<std::int64_t>((std::uint64_t{32 + sub + 1} << shift) - 1);
}

void Histogram::observe(std::int64_t v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  auto& cell = cells_[detail::stripe_index()];
  cell.sum.fetch_add(v, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  // Racy min/max update is fine: metrics tolerate a lost extreme under a
  // concurrent tighter one; the CAS only runs while v is a new extreme.
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.count.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Histogram::sum() const {
  std::int64_t total = 0;
  for (const auto& c : cells_) total += c.sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<std::pair<std::int64_t, std::uint64_t>> Histogram::nonempty_buckets() const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) out.emplace_back(bucket_bound(i), c);
  }
  return out;
}

std::int64_t Histogram::quantile(double q) const {
  const auto buckets = nonempty_buckets();
  std::uint64_t total = 0;
  for (const auto& [bound, c] : buckets) total += c;
  if (total == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Exact rank over the recorded counts: the smallest rank whose cumulative
  // count reaches q*total (ceil, at least 1).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(rank) < q * static_cast<double>(total) || rank == 0) ++rank;
  std::uint64_t cum = 0;
  for (const auto& [bound, c] : buckets) {
    cum += c;
    if (cum >= rank) return bound;
  }
  return buckets.back().first;
}

Histogram::Quantiles Histogram::quantiles() const {
  return {quantile(0.50), quantile(0.90), quantile(0.99), quantile(0.999)};
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t Registry::lookup_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

namespace {

/// Histogram fields shared by snapshot_json (per histogram).
void append_histogram_json(std::string& out, const Histogram& h) {
  const auto buckets = h.nonempty_buckets();
  std::uint64_t total = 0;
  out += "{\"bounds\":[";
  if (buckets.empty()) {
    out += '0';
  } else {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(buckets[i].first);
    }
  }
  out += "],\"counts\":[";
  if (buckets.empty()) {
    out += "0,0";
  } else {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(buckets[i].second);
      total += buckets[i].second;
    }
    out += ",0";  // overflow bucket: log-linear covers the int64 range
  }
  out += "],\"count\":" + std::to_string(total) + ",\"sum\":" + std::to_string(h.sum());
  if (total > 0) {
    const auto q = h.quantiles();
    out += ",\"min\":" + std::to_string(h.min()) + ",\"max\":" + std::to_string(h.max());
    out += ",\"quantiles\":{\"p50\":" + std::to_string(q.p50) +
           ",\"p90\":" + std::to_string(q.p90) + ",\"p99\":" + std::to_string(q.p99) +
           ",\"p999\":" + std::to_string(q.p999) + '}';
  } else {
    out += ",\"min\":0,\"max\":0";
  }
  out += '}';
}

/// Prometheus metric-name sanitization: [a-zA-Z0-9_:] only.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

}  // namespace

std::string Registry::snapshot_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    append_histogram_json(out, *h);
  }
  out += "}}";
  return out;
}

std::string Registry::summary_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t width = 8;
  for (const auto& [name, c] : counters_) {
    (void)c;
    width = std::max(width, name.size());
  }
  for (const auto& [name, g] : gauges_) {
    (void)g;
    width = std::max(width, name.size());
  }
  for (const auto& [name, h] : histograms_) {
    (void)h;
    width = std::max(width, name.size());
  }

  std::ostringstream os;
  auto pad = [&](const std::string& s) {
    os << s << std::string(width - s.size() + 2, ' ');
  };
  if (!counters_.empty()) {
    os << "-- counters --\n";
    for (const auto& [name, c] : counters_) {
      pad(name);
      os << c->value() << '\n';
    }
  }
  if (!gauges_.empty()) {
    os << "-- gauges --\n";
    for (const auto& [name, g] : gauges_) {
      pad(name);
      os << g->value() << '\n';
    }
  }
  if (!histograms_.empty()) {
    os << "-- histograms --\n";
    for (const auto& [name, h] : histograms_) {
      pad(name);
      const std::uint64_t n = h->count();
      os << "count=" << n << " sum=" << h->sum();
      if (n > 0) {
        const auto q = h->quantiles();
        os << " min=" << h->min() << " max=" << h->max() << "  p50=" << q.p50
           << " p90=" << q.p90 << " p99=" << q.p99 << " p999=" << q.p999;
      }
      os << '\n';
    }
  }
  return os.str();
}

std::string Registry::expose_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + ' ' + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + ' ' + std::to_string(g->value()) + '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (const auto& [bound, cnt] : h->nonempty_buckets()) {
      cum += cnt;
      out += n + "_bucket{le=\"" + std::to_string(bound) + "\"} " +
             std::to_string(cum) + '\n';
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + '\n';
    out += n + "_sum " + std::to_string(h->sum()) + '\n';
    out += n + "_count " + std::to_string(cum) + '\n';
  }
  return out;
}

}  // namespace daric::obs
