// pcn_mesh: a seeded small-world payment network — a ring plus random
// chords, so routes are roughly log n hops — running a closed loop of
// multi-hop payments between seeded random pairs. Each batch begins up to
// 8 payments (so channel states carry several HTLCs at once), then settles
// them. Amounts are heavy-tailed; a payment no route can carry is declined,
// which is a correct outcome, not a failure. Routing (BFS over string-keyed
// maps) and the per-round monitor sweep over every channel dominate here,
// and are nearly absent from update_hub.
#include <cmath>
#include <memory>
#include <utility>

#include "src/pcn/network.h"
#include "src/sim/faults/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace daric;  // NOLINT
using sim::PartyId;

namespace {

constexpr Round kDelta = 2;
constexpr Round kT = 6;
constexpr std::size_t kNodes = 1000;
constexpr Amount kDeposit = 100'000;
constexpr int kMaxBatch = 8;
constexpr int kSetupRepeats = 3;
constexpr double kWindowSeconds = 2.5;
constexpr std::uint64_t kRssOps = 40;

struct Mesh {
  std::unique_ptr<TimedScheme> scheme;  // traced runs only
  std::unique_ptr<sim::Environment> env;
  std::unique_ptr<pcn::PaymentNetwork> net;
  std::vector<std::string> names;
  std::vector<Amount> expected;  // per-node balance the payments imply
};

std::string node_name(std::size_t i) { return "n" + std::to_string(i); }

std::unique_ptr<Mesh> build_mesh(const Config& cfg, Trace* trace) {
  const std::size_t n = kNodes;
  auto m = std::make_unique<Mesh>();
  m->env = make_env(kDelta, trace, m->scheme);
  m->net = std::make_unique<pcn::PaymentNetwork>(*m->env);
  for (std::size_t i = 0; i < n; ++i) {
    m->names.push_back(node_name(i));
    m->net->add_node(m->names.back());
  }
  m->expected.assign(n, 0);
  sim::faults::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 23);
  auto open = [&](std::size_t a, std::size_t b) {
    timed(trace ? &trace->L.create : nullptr, [&] {
      return m->net->open_channel(m->names[a], m->names[b], kDeposit, kDeposit, kT);
    });
    m->expected[a] += kDeposit;
    m->expected[b] += kDeposit;
  };
  for (std::size_t i = 0; i < n; ++i) open(i, (i + 1) % n);
  for (std::size_t c = 0; c < n / 2; ++c) {
    const std::size_t a = rng.below(n);
    const std::size_t b = (a + 2 + rng.below(n - 3)) % n;  // never a ring neighbour
    open(a, b);
  }
  if (trace) trace->attach_last(*m->env);
  return m;
}

/// Heavy-tailed payment amount: Pareto with alpha = log_4 5 ≈ 1.16, the
/// shape of the 80/20 rule (a fifth of the payments carry four fifths of
/// the value), from 1% of a deposit upwards. Anything above a channel's
/// capacity (2 × deposit) cannot be routed and is declined.
Amount draw_amount(sim::faults::Rng& rng) {
  const double alpha = std::log(5.0) / std::log(4.0);
  const double u = static_cast<double>(rng.below(1u << 20) + 1) / static_cast<double>(1u << 20);
  return static_cast<Amount>(kDeposit / 100.0 / std::pow(u, 1.0 / alpha));
}

/// Every node holds exactly what its payments imply, no HTLC is left in any
/// channel, and both parties of each channel agree on its state.
void check_mesh(Mesh& m, Result& r) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < m.names.size(); ++i) index[m.names[i]] = i;
  std::vector<Amount> held(m.names.size(), 0);
  pcn::PaymentNetwork& net = *m.net;
  for (std::size_t c = 0; c < net.channel_count(); ++c) {
    const auto& a = net.channel(c).party(PartyId::kA);
    const auto& b = net.channel(c).party(PartyId::kB);
    if (!a.channel_open() || a.state() != b.state()) {
      r.fail("channel " + std::to_string(c) + ": parties disagree or channel closed");
      continue;
    }
    if (!a.state().htlcs.empty()) r.fail("channel " + std::to_string(c) + ": HTLC left pending");
    held[index.at(net.left_node(c))] += a.state().to_a;
    held[index.at(net.right_node(c))] += a.state().to_b;
  }
  for (std::size_t i = 0; i < held.size(); ++i)
    if (held[i] != m.expected[i]) r.fail("node " + m.names[i] + ": balance not conserved");
  if (!ledger_conserves(*m.env)) r.fail("ledger value not conserved");
}

}  // namespace

Result run_pcn_mesh(const Config& cfg, Trace* trace) {
  Result r;
  r.op_name = "payment";
  std::unique_ptr<Mesh> mesh;
  for (int rep = 0; rep < cfg.setup_repeats(kSetupRepeats); ++rep) {
    mesh.reset();
    GaugedClock setup;
    mesh = build_mesh(cfg, trace);
    r.setup_s.push_back(setup.lap());
  }
  if (trace) {
    r.layers["daric.create.us"] = mean_us(trace->L.create);
    trace->L = {};
  }
  pcn::PaymentNetwork& net = *mesh->net;
  const std::size_t n = mesh->names.size();

  struct InFlight {
    pcn::PaymentId id;
    std::size_t from, to;
    Amount amount;
    std::int64_t t0;
  };
  sim::faults::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 37);
  std::int64_t no_route = 0, lock_failed = 0, settle_failed = 0, routed = 0, hops = 0;
  const EnvCounters c0 = EnvCounters::read(*mesh->env);
  const SpanSums s0 = SpanSums::read();
  // Batch sizes 1..8 come in seeded shuffles of the full set, so every run
  // has the same mix of batch sizes (payment latency grows with the batch).
  std::vector<int> sizes;
  Meter meter(r, cfg, kWindowSeconds, kRssOps);
  while (meter.running()) {
    if (sizes.empty()) {
      for (int b = 1; b <= kMaxBatch; ++b) sizes.push_back(b);
      for (std::size_t i = sizes.size(); i > 1; --i) std::swap(sizes[i - 1], sizes[rng.below(i)]);
    }
    const int batch = sizes.back();
    sizes.pop_back();
    fold(r.input_digest, static_cast<std::uint64_t>(batch));
    std::vector<InFlight> flight;
    for (int k = 0; k < batch; ++k) {
      const std::size_t from = rng.below(n);
      const std::size_t to = (from + 1 + rng.below(n - 1)) % n;
      const Amount amount = draw_amount(rng);
      fold(r.input_digest, from * n + to);
      fold(r.input_digest, static_cast<std::uint64_t>(amount));
      ++r.attempted;
      const std::int64_t t0 = cpu_ns();
      bool has_route = true;
      if (trace) {  // the extra, read-only routing probe of the traced run
        const auto route = timed(&trace->L.route, [&] {
          return net.find_route(mesh->names[from], mesh->names[to], amount);
        });
        has_route = route.has_value();
        if (route) {
          ++routed;
          hops += static_cast<std::int64_t>(route->size());
        }
      }
      const auto id = timed(trace ? &trace->L.lock : nullptr, [&] {
        return net.begin_payment(mesh->names[from], mesh->names[to], amount);
      });
      if (!id) {
        ++(has_route ? lock_failed : no_route);
        continue;
      }
      flight.push_back({*id, from, to, amount, t0});
    }
    for (const InFlight& f : flight) {
      const bool ok =
          timed(trace ? &trace->L.settle : nullptr, [&] { return net.settle_payment(f.id); });
      const std::int64_t t1 = cpu_ns();
      if (!ok) {
        ++settle_failed;
        r.fail("payment " + std::to_string(f.id) + " failed to settle");
        continue;
      }
      mesh->expected[f.from] -= f.amount;
      mesh->expected[f.to] += f.amount;
      meter.done(static_cast<double>(t1 - f.t0) / 1e3);
    }
  }
  record_env_counters(r, c0, EnvCounters::read(*mesh->env), trace != nullptr);
  r.counts["pcn.declined"] = no_route + lock_failed;
  r.counts["pcn.settled"] = static_cast<std::int64_t>(r.ops);
  if (trace) {
    record_layers(r, trace->L, SpanSums::read().since(s0));
    const double attempts = static_cast<double>(r.attempted);
    r.layers["pcn.failed.no_route"] = static_cast<double>(no_route) / attempts;
    r.layers["pcn.failed.lock"] = static_cast<double>(lock_failed) / attempts;
    r.layers["pcn.failed.settle"] = static_cast<double>(settle_failed) / attempts;
    r.layers["pcn.route.hops"] = routed ? static_cast<double>(hops) / routed : 0.0;
    r.counts["pcn.route.hops"] = hops;
    r.counts["pcn.failed.no_route"] = no_route;
  }
  check_mesh(*mesh, r);
  return r;
}

}  // namespace perfbench
