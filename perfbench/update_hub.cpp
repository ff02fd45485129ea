// update_hub: a closed loop of Daric updates, round-robin over the hub's
// channels on one environment. Every state carries a seeded number of
// HTLCs (0-16); both sides persist through a ChannelStore on a
// MemoryBackend, and every update hands the spoke's fresh watchtower package
// to a TowerService. This is the off-chain hot path: crypto, tx, the Daric
// template skeletons and the store/tower write path. The ledger and routing
// are nearly idle.
#include <memory>
#include <optional>

#include "src/daric/persistence.h"
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
constexpr Amount kDeposit = 1'000'000;
constexpr int kMaxHtlcs = 16;
constexpr int kChannels = 64;
constexpr int kSetupRepeats = 5;
constexpr double kWindowSeconds = 1.0;
constexpr std::uint64_t kRssOps = 500;

/// A ChannelStore over a MemoryBackend, with the forwarding probes in front
/// of both when tracing.
struct StoreStack {
  store::MemoryBackend disk;
  std::optional<TimedBackend> io;
  std::unique_ptr<store::ChannelStore> store;
  std::optional<TimedDurability> hook;

  explicit StoreStack(Trace* t) {
    if (t) io.emplace(disk, *t);
    store = std::make_unique<store::ChannelStore>(
        io ? static_cast<store::StorageBackend&>(*io) : disk);
    if (t) hook.emplace(*store, *t);
  }
  daricch::DurabilityHook* durability() {
    return hook ? static_cast<daricch::DurabilityHook*>(&*hook) : store.get();
  }
};

struct Hub {
  std::unique_ptr<TimedScheme> scheme;  // traced runs only
  std::unique_ptr<sim::Environment> env;
  std::unique_ptr<StoreStack> hub_store, spoke_store;
  store::MemoryBackend tower_disk;
  std::unique_ptr<store::TowerService> tower;
  std::vector<std::unique_ptr<daricch::DaricChannel>> channels;
  std::vector<Bytes> payment_hashes;  // HTLC hash pool
};

std::unique_ptr<Hub> build_hub(const Config& cfg, Trace* trace) {
  auto hub = std::make_unique<Hub>();
  hub->env = make_env(kDelta, trace, hub->scheme);
  hub->hub_store = std::make_unique<StoreStack>(trace);
  hub->spoke_store = std::make_unique<StoreStack>(trace);
  hub->tower = std::make_unique<store::TowerService>(hub->tower_disk);
  for (int i = 0; i < kMaxHtlcs * 4; ++i)
    hub->payment_hashes.push_back(
        channel::make_htlc_secret("hub/" + std::to_string(cfg.seed) + "/" + std::to_string(i))
            .payment_hash);
  for (int i = 0; i < kChannels; ++i) {
    channel::ChannelParams p;
    p.id = "hub/" + std::to_string(cfg.seed) + "/" + std::to_string(i);
    p.cash_a = kDeposit;
    p.cash_b = kDeposit;
    p.t_punish = kT;
    auto ch = std::make_unique<daricch::DaricChannel>(*hub->env, p);
    ch->party(PartyId::kA).set_durability_hook(hub->hub_store->durability());
    ch->party(PartyId::kB).set_durability_hook(hub->spoke_store->durability());
    if (!timed(trace ? &trace->L.create : nullptr, [&] { return ch->create(); }))
      throw std::runtime_error("update_hub: channel creation failed");
    hub->channels.push_back(std::move(ch));
  }
  if (trace) trace->attach_last(*hub->env);
  return hub;
}

/// The next seeded state for a channel: a random split of the capacity
/// minus 0-16 HTLCs of random size, direction and timeout.
channel::StateVec next_state(sim::faults::Rng& rng, const Hub& hub, std::uint64_t& digest) {
  channel::StateVec st;
  const int k = static_cast<int>(rng.below(kMaxHtlcs + 1));
  Amount locked = 0;
  for (int h = 0; h < k; ++h) {
    channel::Htlc htlc;
    htlc.cash = 1'000 + static_cast<Amount>(rng.below(20'000));
    htlc.payment_hash = hub.payment_hashes[rng.below(hub.payment_hashes.size())];
    htlc.offered_by_a = rng.chance(500);
    htlc.timeout = 20 + static_cast<std::uint32_t>(rng.below(200));
    locked += htlc.cash;
    st.htlcs.push_back(std::move(htlc));
  }
  const Amount free = 2 * kDeposit - locked;
  st.to_a = 1 + static_cast<Amount>(rng.below(static_cast<std::uint64_t>(free - 1)));
  st.to_b = free - st.to_a;
  fold(digest, static_cast<std::uint64_t>(k));
  fold(digest, static_cast<std::uint64_t>(st.to_a));
  return st;
}

void rewatch(store::TowerService& tower, daricch::DaricChannel& ch) {
  tower.watch(store::make_watch_entry(
      ch.params(), PartyId::kB, ch.funding_outpoint(), ch.party(PartyId::kA).pub(),
      ch.party(PartyId::kB).pub(), daricch::make_watchtower_package(ch.party(PartyId::kB))));
}

/// After the loop: both parties agree on the last proposed state, each
/// store holds each party's latest state number, and the tower's package
/// still punishes a revoked commit.
void check_hub(Hub& hub, const std::vector<channel::StateVec>& last,
               const std::vector<std::uint32_t>& updates, Result& r) {
  for (std::size_t i = 0; i < hub.channels.size(); ++i) {
    auto& ch = *hub.channels[i];
    for (const PartyId side : {PartyId::kA, PartyId::kB}) {
      const auto& party = ch.party(side);
      if (party.state() != last[i] || party.state_number() != updates[i])
        r.fail("channel " + ch.params().id + ": party state differs from the last update");
      const StoreStack& s = side == PartyId::kA ? *hub.hub_store : *hub.spoke_store;
      const Bytes* blob = s.store->get(store::ChannelStore::channel_key(party));
      if (!blob || daricch::deserialize_snapshot(*blob).sn != updates[i])
        r.fail("channel " + ch.params().id + ": store lags the channel");
    }
  }
  if (hub.tower->channels() != hub.channels.size()) r.fail("tower lost channels");

  // The tower must punish channel 0's revoked state 0 with both clients dark.
  auto& ch = *hub.channels[0];
  if (ch.party(PartyId::kA).state_number() >= 1) {
    ch.party(PartyId::kA).set_online(false);
    ch.party(PartyId::kB).set_online(false);
    const std::uint64_t before = hub.tower->reactions();
    ch.publish_old_commit(PartyId::kA, 0);
    const Hash256 cheat = ch.archived_commits(PartyId::kA)[0].txid();
    for (Round k = 0; k < 2 * kDelta + 2; ++k) {
      hub.env->advance_round();
      hub.tower->on_round(hub.env->ledger());
    }
    if (hub.tower->reactions() != before + 1 || !hub.env->ledger().spender_of({cheat, 0}))
      r.fail("tower did not punish a revoked commit");
  }
  if (!ledger_conserves(*hub.env)) r.fail("ledger value not conserved");
}

}  // namespace

Result run_update_hub(const Config& cfg, Trace* trace) {
  Result r;
  r.op_name = "update";
  std::unique_ptr<Hub> hub;
  for (int rep = 0; rep < cfg.setup_repeats(kSetupRepeats); ++rep) {
    hub.reset();
    GaugedClock setup;
    hub = build_hub(cfg, trace);
    r.setup_s.push_back(setup.lap());
  }
  Acc* update_acc = nullptr;
  Acc* watch_acc = nullptr;
  if (trace) {
    r.layers["daric.create.us"] = mean_us(trace->L.create);
    trace->L = {};
    update_acc = &trace->L.update;
    watch_acc = &trace->L.tower_watch;
  }

  sim::faults::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 11);
  const std::size_t n = hub->channels.size();
  std::vector<channel::StateVec> last(n);
  for (std::size_t i = 0; i < n; ++i) last[i] = hub->channels[i]->party(PartyId::kA).state();
  std::vector<std::uint32_t> updates(n, 0);
  const EnvCounters c0 = EnvCounters::read(*hub->env);
  const SpanSums s0 = SpanSums::read();
  Meter meter(r, cfg, kWindowSeconds, kRssOps);
  for (std::uint64_t op = 0; meter.running(); ++op) {
    const std::size_t i = op % n;
    auto& ch = *hub->channels[i];
    const channel::StateVec st = next_state(rng, *hub, r.input_digest);
    const PartyId proposer = rng.chance(500) ? PartyId::kA : PartyId::kB;
    ++r.attempted;
    const std::int64_t t0 = cpu_ns();
    const bool ok = timed(update_acc, [&] { return ch.update(st, proposer); });
    if (ok) timed(watch_acc, [&] { rewatch(*hub->tower, ch); });
    const std::int64_t t1 = cpu_ns();
    if (!ok) {
      r.fail("update " + std::to_string(op) + " on " + ch.params().id + " failed");
      continue;
    }
    last[i] = st;
    ++updates[i];
    meter.done(static_cast<double>(t1 - t0) / 1e3);
  }
  record_env_counters(r, c0, EnvCounters::read(*hub->env), trace != nullptr);
  if (trace) record_layers(r, trace->L, SpanSums::read().since(s0));
  check_hub(*hub, last, updates, r);
  return r;
}

}  // namespace perfbench
