// close_storm: the on-chain path. Each epoch opens a fresh fleet of 250
// channels with seeded update counts on its own environment and bulk-loads a
// TowerService with every channel's package (this is the set-up). It then
// closes the whole fleet in one storm: exactly a quarter each of
// revoked-commit cheats with the victim online (its own monitor punishes),
// revoked-commit cheats with both clients dark (only the tower punishes),
// cooperative closes and honest force-closes, in a seeded order. The ledger
// validates scripts and single signatures, the tower runs its read path,
// and the punish races produce expected ledger rejections. Almost nothing
// signs.
//
// The storm follows the sizing case of simultaneous disputes: the
// cooperative closes run first (each advances rounds inside the library),
// then every cheat and force-close commit is posted before a single round
// advance, so ~125 revoked commits confirm, and are punished, in one round.
// A 10^3-dispute storm would need a 2000-channel fleet, whose set-up alone
// outlasts a 10 s run (opening costs grow with the square of the fleet,
// because every round sweeps every monitor); fleets of 250 fit at least
// four storms into one.
//
// The latency samples are the CPU time of every round in which a victim or
// the tower posted a punishment, measured between consecutive round
// boundaries (the end of the rounds' last hooks).
#include <algorithm>
#include <memory>

#include "src/daric/watchtower.h"
#include "src/sim/faults/rng.h"
#include "src/store/tower.h"
#include "workloads.h"

namespace perfbench {

using namespace daric;  // NOLINT
using sim::PartyId;

namespace {

constexpr Round kDelta = 2;
constexpr Round kT = 6;
constexpr Amount kDeposit = 500'000;
constexpr std::size_t kFleet = 250;
constexpr int kMinStorms = 4;  // also the minimum number of set-up samples

enum class Kind { kCheatOnline, kCheatDark, kCoop, kForce };

struct Plan {
  Kind kind = Kind::kCoop;
  PartyId actor = PartyId::kA;  // cheater, coop initiator or force-closer
  std::uint32_t updates = 1;
  std::uint32_t cheat_state = 0;
  Hash256 cheat_commit;  // txid of the revoked commit a cheat publishes
};

struct Epoch {
  std::unique_ptr<TimedScheme> scheme;  // traced runs only
  std::unique_ptr<sim::Environment> env;
  store::MemoryBackend tower_disk;
  std::unique_ptr<store::TowerService> tower;
  std::vector<std::unique_ptr<daricch::DaricChannel>> channels;
  std::vector<Plan> plans;
  std::vector<bool> coop_ok;
  obs::Counter* punish_posted = nullptr;
  // Round-boundary clock (always on: it produces the latency samples).
  std::int64_t boundary = 0;
  std::uint64_t punishes_seen = 0;
  std::vector<double>* samples = nullptr;
};

/// Opens the fleet. A channel needs one update to have a revoked commit; a
/// second lets half of the cheats publish a state older than the latest
/// revoked one. Daric punishes every revoked state the same way (one
/// revocation secret per channel), so more updates would only lengthen the
/// set-up.
std::unique_ptr<Epoch> build_epoch(const Config& cfg, std::uint64_t epoch, Trace* trace,
                                   std::uint64_t& digest) {
  auto e = std::make_unique<Epoch>();
  e->env = make_env(kDelta, trace, e->scheme);
  sim::Environment& env = *e->env;
  e->tower = std::make_unique<store::TowerService>(e->tower_disk);
  e->punish_posted = &env.metrics().counter("daric.punish.posted");

  sim::faults::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 53 + 7919 * epoch);
  std::vector<Kind> kinds(kFleet);
  for (std::size_t i = 0; i < kFleet; ++i) kinds[i] = static_cast<Kind>(i % 4);
  for (std::size_t i = kFleet; i > 1; --i) std::swap(kinds[i - 1], kinds[rng.below(i)]);
  for (std::size_t i = 0; i < kFleet; ++i) {
    Plan plan;
    plan.kind = kinds[i];
    plan.actor = rng.chance(500) ? PartyId::kA : PartyId::kB;
    plan.updates = 1 + static_cast<std::uint32_t>(rng.below(2));
    plan.cheat_state = static_cast<std::uint32_t>(rng.below(plan.updates));
    fold(digest, static_cast<std::uint64_t>(plan.kind) * 64 + plan.updates * 8 + plan.cheat_state);

    channel::ChannelParams p;
    p.id = "storm/" + std::to_string(cfg.seed) + "/" + std::to_string(epoch) + "/" +
           std::to_string(i);
    p.cash_a = kDeposit;
    p.cash_b = kDeposit;
    p.t_punish = kT;
    auto ch = std::make_unique<daricch::DaricChannel>(env, p);
    if (!timed(trace ? &trace->L.create : nullptr, [&] { return ch->create(); }))
      throw std::runtime_error("close_storm: channel creation failed");
    for (std::uint32_t u = 0; u < plan.updates; ++u) {
      const Amount a = 100'000 + static_cast<Amount>(rng.below(800'000));
      if (!ch->update({a, 2 * kDeposit - a, {}}))
        throw std::runtime_error("close_storm: channel update failed");
    }
    plan.cheat_commit = ch->archived_commits(plan.actor)[plan.cheat_state].txid();
    e->channels.push_back(std::move(ch));
    e->plans.push_back(plan);
  }
  // The tower watches every channel on behalf of the side that could be
  // cheated (the counterparty of the planned actor).
  e->tower->begin_bulk_load();
  for (std::size_t i = 0; i < kFleet; ++i) {
    auto& ch = *e->channels[i];
    const PartyId client = sim::other(e->plans[i].actor);
    e->tower->watch(store::make_watch_entry(
        ch.params(), client, ch.funding_outpoint(), ch.party(PartyId::kA).pub(),
        ch.party(PartyId::kB).pub(), daricch::make_watchtower_package(ch.party(client))));
  }
  e->tower->end_bulk_load();
  e->tower->on_round(env.ledger());  // absorb the set-up transactions once
  e->coop_ok.assign(kFleet, false);

  Epoch* ep = e.get();
  Acc* tower_acc = trace ? &trace->L.tower_round : nullptr;
  env.add_round_hook([ep, tower_acc] {
    timed(tower_acc, [ep] { ep->tower->on_round(ep->env->ledger()); });
  });
  if (trace) trace->attach_last(env);
  env.add_round_hook([ep] {
    const std::int64_t t = cpu_ns();
    const std::uint64_t seen = ep->punish_posted->value() + ep->tower->reactions();
    if (ep->samples && seen > ep->punishes_seen)
      ep->samples->push_back(static_cast<double>(t - ep->boundary) / 1e3);
    ep->punishes_seen = seen;
    ep->boundary = t;
  });
  return e;
}

/// Starts the close of channel `i`. A cooperative close runs to completion
/// inside the call; the others only post their commit.
void start_close(Epoch& e, std::size_t i) {
  auto& ch = *e.channels[i];
  const Plan& plan = e.plans[i];
  switch (plan.kind) {
    case Kind::kCheatDark:
      ch.party(PartyId::kA).set_online(false);
      ch.party(PartyId::kB).set_online(false);
      [[fallthrough]];
    case Kind::kCheatOnline:
      ch.publish_old_commit(plan.actor, plan.cheat_state);
      break;
    case Kind::kCoop:
      e.coop_ok[i] = ch.cooperative_close(plan.actor);
      break;
    case Kind::kForce:
      ch.party(plan.actor).force_close();
      break;
  }
}

bool resolved(Epoch& e, std::size_t i) {
  auto& ch = *e.channels[i];
  const Plan& plan = e.plans[i];
  switch (plan.kind) {
    case Kind::kCheatOnline:
    case Kind::kCheatDark:
      return e.env->ledger().is_confirmed(plan.cheat_commit) &&
             !e.env->ledger().is_unspent({plan.cheat_commit, 0});
    case Kind::kCoop:
      return e.coop_ok[i];
    case Kind::kForce:
      return !ch.party(PartyId::kA).channel_open() && !ch.party(PartyId::kB).channel_open();
  }
  return false;
}

/// Audits one finished epoch: every close resolved the way its kind
/// demands, every cheat was punished within T − Δ, the tower reacted to
/// every cheat, and the ledger conserved value. Returns the worst gap.
std::int64_t check_epoch(Epoch& e, Result& r) {
  const ledger::Ledger& l = e.env->ledger();
  std::int64_t worst_gap = 0;
  std::uint64_t cheats = 0;
  for (std::size_t i = 0; i < e.channels.size(); ++i) {
    auto& ch = *e.channels[i];
    const Plan& plan = e.plans[i];
    const std::string id = ch.params().id;
    if (!resolved(e, i)) {
      r.fail(id + ": close did not resolve");
      continue;
    }
    if (plan.kind == Kind::kForce &&
        (ch.party(PartyId::kA).outcome() != daricch::CloseOutcome::kNonCollaborative ||
         ch.party(PartyId::kB).outcome() != daricch::CloseOutcome::kNonCollaborative))
      r.fail(id + ": force close ended in the wrong outcome");
    if (plan.kind != Kind::kCheatOnline && plan.kind != Kind::kCheatDark) continue;
    ++cheats;
    // Posts carry the default delay Δ, so the punishment was posted Δ
    // rounds before it confirmed.
    const Hash256& commit = plan.cheat_commit;
    const auto spender = l.spender_of({commit, 0});
    const Round committed = *l.confirmation_round(commit);
    const Round punished = *l.confirmation_round(spender->txid());
    const std::int64_t gap = punished - kDelta - committed;
    worst_gap = std::max(worst_gap, gap);
    if (gap > kT - kDelta || punished - committed >= kT)
      r.fail(id + ": punished " + std::to_string(gap) + " rounds after the cheat confirmed");
  }
  if (e.tower->reactions() != cheats) r.fail("tower reactions differ from the cheats made");
  if (!ledger_conserves(*e.env)) r.fail("ledger value not conserved");
  return worst_gap;
}

}  // namespace

Result run_close_storm(const Config& cfg, Trace* trace) {
  Result r;
  r.op_name = "close";
  const std::int64_t budget = static_cast<std::int64_t>(cfg.seconds * 1e9);
  const std::int64_t run_start = now_ns();
  const std::uint64_t min_storms = cfg.fixed_ops ? 1 : kMinStorms;
  std::int64_t worst_gap = 0;
  // Layer totals and span time of the storms only (set-up excluded).
  Layers storms;
  SpanSums storm_spans;
  Acc create;
  for (std::uint64_t epoch = 0;; ++epoch) {
    const bool enough =
        cfg.fixed_ops ? r.attempted >= cfg.fixed_ops : now_ns() - run_start >= budget;
    if (enough && epoch >= min_storms) break;

    GaugedClock clock;
    std::unique_ptr<Epoch> e = build_epoch(cfg, epoch, trace, r.input_digest);
    r.setup_s.push_back(clock.lap());
    if (trace) {
      create.calls += trace->L.create.calls;
      create.ns += trace->L.create.ns;
      trace->L = {};
    }
    const SpanSums s0 = SpanSums::read();
    const EnvCounters c0 = EnvCounters::read(*e->env);

    const std::size_t first_sample = r.latency_us.size();
    e->boundary = cpu_ns();
    e->samples = &r.latency_us;
    for (std::size_t i = 0; i < kFleet; ++i)
      if (e->plans[i].kind == Kind::kCoop) start_close(*e, i);
    for (std::size_t i = 0; i < kFleet; ++i)
      if (e->plans[i].kind != Kind::kCoop) start_close(*e, i);
    r.attempted += kFleet;
    // Drain: every dispute and force close finishes within a few T.
    for (Round tail = 0; tail < 4 * kT; ++tail) {
      bool all = true;
      for (std::size_t i = 0; i < kFleet && all; ++i) all = resolved(*e, i);
      if (all) break;
      if (trace) trace->mark();
      e->env->advance_round();
    }
    double factor = 1;
    r.windows.push_back({clock.lap(&factor), kFleet, first_sample});
    r.scale_latency(first_sample, factor);
    e->samples = nullptr;
    r.ops += kFleet;
    if (epoch == 0) r.read_rss();
    record_env_counters(r, c0, EnvCounters::read(*e->env), trace != nullptr);
    if (trace) {
      storms += trace->L;
      storm_spans.add(SpanSums::read().since(s0));
      r.layers["tower.reactions"] += static_cast<double>(e->tower->reactions());
    }
    worst_gap = std::max(worst_gap, check_epoch(*e, r));
  }
  r.counts["close.punish_gap_rounds_max"] = worst_gap;
  if (trace) {
    record_layers(r, storms, storm_spans);
    r.layers["daric.create.us"] = mean_us(create);
    r.layers["close.punish_gap_rounds_max"] = static_cast<double>(worst_gap);
  }
  return r;
}

}  // namespace perfbench
