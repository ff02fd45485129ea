#include "src/sim/faults/drill.h"

#include <algorithm>
#include <initializer_list>
#include <optional>

#include "src/crypto/sig_scheme.h"
#include "src/daric/persistence.h"
#include "src/daric/protocol.h"
#include "src/store/channel_store.h"
#include "src/eltoo/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"
#include "src/obs/sinks.h"
#include "src/sim/faults/chaos.h"
#include "src/sim/faults/rng.h"

namespace daric::sim::faults {

namespace {

using channel::StateVec;

constexpr Amount kCashA = 60'000;
constexpr Amount kCashB = 40'000;
constexpr Amount kCapacity = kCashA + kCashB;
/// Rounds the Daric endgame and crash recovery wait for the victim's or the
/// restored monitor to resolve (a funds-loss endgame waits them all out).
constexpr Round kEndgameRounds = 400;

/// Sum of unspent P2WPKH outputs paying `pk33`.
Amount credited(const ledger::Ledger& l, BytesView pk33) {
  const tx::Condition cond = tx::Condition::p2wpkh(pk33);
  Amount sum = 0;
  for (const auto& [op, u] : l.utxos().entries()) {
    (void)op;
    if (u.output.cond == cond) sum += u.output.cash;
  }
  return sum;
}

bool conserved(const ledger::Ledger& l) {
  return l.utxos().total_value() + l.fees_total() == l.minted_total();
}

struct Payout {
  Amount a = 0;
  Amount b = 0;
  bool operator==(const Payout&) const = default;
};

bool payout_matches(const Payout& got, std::initializer_list<Payout> candidates) {
  for (const Payout& c : candidates)
    if (got == c) return true;
  return false;
}

/// Per-update balance, a stateless function of the seed so a replayed
/// schedule drives the identical state sequence.
Amount update_to_a(std::uint64_t seed, std::uint32_t i) {
  return 1'000 + static_cast<Amount>(mix(seed, 0xa0000ull + i) %
                                     static_cast<std::uint64_t>(kCapacity - 2'000));
}

/// Counters come straight from the environment's metrics registry — the
/// same `sim.msg.*` series every tool reads.
void finish_report(DrillReport& rep, Environment& env, const DrillObs& o) {
  obs::Registry& m = env.metrics();
  rep.msg_total = m.counter("sim.msg.sent").value();
  rep.msg_dropped = m.counter("sim.msg.dropped").value();
  rep.msg_delayed = m.counter("sim.msg.delayed").value();
  rep.msg_duplicated = m.counter("sim.msg.duplicated").value();
  if (o.metrics_json) *o.metrics_json = m.snapshot_json();
  if (o.metrics_text) *o.metrics_text = m.summary_text();
}

// ---------------------------------------------------------------------------
// Daric
// ---------------------------------------------------------------------------

struct EndgameResult {
  bool punished = false;
  bool funds_lost = false;
  bool closed = false;
};

/// The cheater's best play: publish the revoked commit with confirmation
/// delay 1 (fee priority), keep its own honest monitor off, and bind + post
/// the revoked split the instant the commit's CSV(T) matures. The victim's
/// monitor misses `offline` rounds after the publication and its reaction
/// suffers the worst-case ledger delay Δ.
EndgameResult run_cheat_endgame(Environment& env, daricch::DaricChannel& ch, PartyId cheater,
                                std::uint32_t state, Round offline, Round t_punish,
                                Round delta) {
  daricch::DaricParty& victim = ch.party(other(cheater));
  ch.party(cheater).set_online(false);
  const Hash256 cheat_txid = ch.archived_commits(cheater)[state].txid();
  env.ledger().set_delay_policy([cheat_txid, delta](const tx::Transaction& t, Round d) {
    (void)d;
    return t.txid() == cheat_txid ? 1 : delta;
  });

  const Round t0 = env.now();
  victim.set_online(false);
  ch.publish_old_commit(cheater, state);  // posted at t0, confirms at t0 + 1

  // The sweep must be posted at commit-confirmation + T − Δ so that its
  // adversarial delay Δ lands it exactly when the CSV matures.
  const Round sweep_round = t0 + 1 + t_punish - delta;
  bool swept = false;
  auto maybe_sweep = [&] {
    if (!swept && env.now() == sweep_round) {
      ch.publish_old_split(cheater, state, delta);
      swept = true;
    }
  };

  while (env.now() < t0 + offline) {
    maybe_sweep();
    env.advance_round();
  }
  victim.set_online(true);
  for (Round i = 0; i < kEndgameRounds && victim.channel_open(); ++i) {
    maybe_sweep();
    env.advance_round();
  }

  EndgameResult res;
  res.punished = victim.outcome() == daricch::CloseOutcome::kPunished;
  res.funds_lost = env.ledger().spender_of({cheat_txid, 0}) && !res.punished;
  res.closed = !victim.channel_open() || res.funds_lost;
  return res;
}

/// Daric crash recovery off the durable store: the victim's surviving state
/// is exactly what its ChannelStore synced, plus whatever fragment of the
/// in-flight write the disk kept. Recovery truncates that tail, loads the
/// last durable snapshot back into the victim's DaricParty (restore_party),
/// and force-closes through the engine contract, with the recovered store as
/// the party's durability hook. Returns the restored party's outcome
/// (kNone when no snapshot survived or its monitor never resolved).
channel::Outcome recover_from_store(Environment& env, const FaultSchedule& s,
                                    const CrashPoint& crash, daricch::DaricChannel& ch,
                                    const store::MemoryBackend& disk) {
  daricch::DaricParty& victim = ch.party(crash.victim);
  Bytes image = disk.durable_image();
  if (crash.torn_bytes != 0) {
    if (crash.corrupt_tail) {
      // Bit rot in the unsynced tail: garbage after the synced prefix.
      for (std::uint32_t k = 0; k < crash.torn_bytes; ++k)
        image.push_back(static_cast<Byte>(mix(s.seed, 0x7042ull + k)));
    } else {
      // Torn write: a strict prefix of a record that never hit the sync
      // barrier, so recovery must drop it without touching earlier ones.
      const Bytes frame = store::encode_record(
          store::encode_put(store::ChannelStore::channel_key(victim), Bytes(48, 0xab)));
      const std::size_t take = std::min<std::size_t>(crash.torn_bytes, frame.size() - 1);
      image.insert(image.end(), frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(take));
    }
  }
  store::MemoryBackend crashed_disk;
  crashed_disk.replace(image);
  store::ChannelStore recovered_store(crashed_disk);
  const Bytes* blob = recovered_store.get(store::ChannelStore::channel_key(victim));
  if (!blob) return channel::Outcome::kNone;
  daricch::restore_party(ch, crash.victim, daricch::deserialize_snapshot(*blob));
  victim.set_durability_hook(&recovered_store);
  ch.force_close(crash.victim);
  for (Round r = 0; r < kEndgameRounds && ch.outcome(crash.victim) == channel::Outcome::kNone; ++r)
    env.advance_round();
  victim.set_durability_hook(nullptr);  // `recovered_store` dies with this frame
  return ch.outcome(crash.victim);
}

/// Channel-id tag per engine; the id feeds every key derivation.
const char* id_tag(Protocol p) {
  switch (p) {
    case Protocol::kDaric: return "daric";
    case Protocol::kLightning: return "ln";
    case Protocol::kGeneralized: return "gc";
    case Protocol::kEltoo: return "eltoo";
  }
  return "?";
}

std::size_t idx(PartyId p) { return p == PartyId::kA ? 0 : 1; }

}  // namespace

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kDaric: return "daric";
    case Protocol::kLightning: return "lightning";
    case Protocol::kGeneralized: return "generalized";
    case Protocol::kEltoo: return "eltoo";
  }
  return "?";
}

std::optional<Protocol> protocol_from_name(std::string_view name) {
  for (const Protocol p : kProtocols)
    if (name == protocol_name(p)) return p;
  return std::nullopt;
}

std::unique_ptr<channel::Engine> make_engine(Protocol p, Environment& env,
                                             channel::ChannelParams params) {
  switch (p) {
    case Protocol::kDaric: return std::make_unique<daricch::DaricChannel>(env, std::move(params));
    case Protocol::kLightning:
      return std::make_unique<lightning::LightningChannel>(env, std::move(params));
    case Protocol::kGeneralized:
      return std::make_unique<generalized::GeneralizedChannel>(env, std::move(params));
    case Protocol::kEltoo: return std::make_unique<eltoo::EltooChannel>(env, std::move(params));
  }
  return nullptr;
}

DrillReport run_drill(Protocol proto, const FaultSchedule& s, const DrillObs& o) {
  DrillReport rep;
  rep.protocol = proto;
  rep.seed = s.seed;

  Environment env(s.delta, crypto::schnorr_scheme());
  env.set_message_delay_budget(s.delay_budget);
  ChaosInjector inj(s);
  env.set_fault_injector(&inj);
  env.ledger().set_delay_policy(
      [&inj](const tx::Transaction&, Round d) { return inj.post_delay(0, d); });
  if (o.sink) env.tracer().add_sink(o.sink);

  channel::ChannelParams params;
  params.id = std::string("chaos-") + id_tag(proto) + "-" + std::to_string(s.seed);
  params.cash_a = kCashA;
  params.cash_b = kCashB;
  params.t_punish = s.t_punish;

  // Monitor blackouts run before the engine's monitors each round. The
  // fraud endgame takes both online flags over; a crash takes only its
  // victim's (dark until restored), so the survivor's window still ends on
  // schedule.
  channel::Engine* chp = nullptr;
  bool windows_active = true;
  daricch::DaricParty* survivor = nullptr;
  env.add_round_hook([&env, &s, &chp, &windows_active, &survivor] {
    if (!chp || !windows_active) return;
    const Round r = env.now();
    bool on[2] = {true, true};
    for (const DowntimeWindow& w : s.downtime)
      if (r >= w.start && r < w.start + w.length) on[idx(w.victim)] = false;
    if (survivor)
      survivor->set_online(on[idx(survivor->id())]);
    else
      chp->set_monitor_online(on[0], on[1]);
  });

  const std::unique_ptr<channel::Engine> engine = make_engine(proto, env, params);
  channel::Engine& ch = *engine;
  chp = &ch;
  auto* const daric = dynamic_cast<daricch::DaricChannel*>(&ch);

  // Daric runs both parties over a durable channel store so the engine's
  // fsync points fire on every schedule, not only crashing ones. Crash
  // recovery reads the victim's state back from its backend image.
  store::MemoryBackend backend[2];
  std::optional<store::ChannelStore> stores[2];
  if (daric) {
    for (const PartyId p : {PartyId::kA, PartyId::kB})
      daric->party(p).set_durability_hook(&stores[idx(p)].emplace(backend[idx(p)], &env.metrics()));
  }

  rep.create_ok = ch.create();
  if (!rep.create_ok) {
    // Abandoned open: Daric's funding sources must still sit untouched (the
    // baselines mint only after the handshake).
    const auto source = [&](PartyId id) {
      const auto key = daricch::funding_source_keypair(params.id, id);
      return credited(env.ledger(), key.pk.compressed());
    };
    rep.closed = true;
    rep.conservation_ok = conserved(env.ledger());
    rep.payout_ok = !daric || (source(PartyId::kA) == kCashA && source(PartyId::kB) == kCashB);
    rep.ok = rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = "create aborted";
    finish_report(rep, env, o);
    return rep;
  }

  StateVec stable{kCashA, kCashB, {}};
  std::optional<StateVec> attempted;
  bool update_aborted = false;
  // Crashes are Daric-only: recovery needs its durable store.
  const CrashPoint* crash = daric && !s.crashes.empty() ? &s.crashes[0] : nullptr;
  // A mid-update crash only makes sense for a message the victim actually
  // sends (the proposer — always A here — sends 1/3/5, the responder
  // 2/4/6); a mismatched pairing degrades to the legacy post-update crash.
  const bool mid_crash =
      crash && crash->at_msg != 0 &&
      (crash->victim == PartyId::kA) == (crash->at_msg % 2 == 1);
  bool crashed_mid = false;
  for (std::uint32_t i = 0; i < s.updates; ++i) {
    const Amount to_a = update_to_a(s.seed, i);
    const StateVec next{to_a, kCapacity - to_a, {}};
    attempted = next;
    if (mid_crash && rep.updates_done + 1 == crash->after_update) {
      // The victim dies immediately before sending message at_msg of this
      // update: everything after the engine's last fsync is gone, and the
      // counterparty sees only silence and force-closes.
      survivor = &daric->party(other(crash->victim));
      daricch::DaricParty& victim = daric->party(crash->victim);
      victim.set_online(false);
      victim.behavior.abort_update_before_msg = static_cast<int>(crash->at_msg);
      crashed_mid = true;
    }
    if (!ch.update(next)) {
      update_aborted = !crashed_mid;
      break;
    }
    stable = next;
    attempted.reset();
    ++rep.updates_done;
    if (crash && crash->after_update == rep.updates_done) break;
  }

  const Payout got_stable{stable.to_a, stable.to_b};
  auto audit = [&](std::initializer_list<Payout> candidates) {
    const Payout got{credited(env.ledger(), ch.payout_pk(PartyId::kA)),
                     credited(env.ledger(), ch.payout_pk(PartyId::kB))};
    rep.conservation_ok = conserved(env.ledger());
    rep.payout_ok = payout_matches(got, candidates);
  };

  if (update_aborted) {
    // The retry budget ran out mid-update and one side force-closed; the
    // split may pay either the last stable or the attempted state (both
    // are fully signed by both parties).
    rep.closed = ch.run_until_closed();
    audit({got_stable, Payout{attempted->to_a, attempted->to_b}});
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = "update aborted to force-close";
  } else if (crash && (crashed_mid || rep.updates_done == crash->after_update)) {
    rep.crashed = true;
    survivor = &daric->party(other(crash->victim));
    daric->party(crash->victim).set_online(false);  // dark until restored
    const channel::Outcome restored =
        recover_from_store(env, s, *crash, *daric, backend[idx(crash->victim)]);
    rep.closed = restored != channel::Outcome::kNone;
    if (crashed_mid && attempted) {
      // A mid-update crash may settle at either fully-signed state: the old
      // one (crash before the victim saw the new commit fully signed) or
      // the attempted one (counterparty already promoted it).
      audit({got_stable, Payout{attempted->to_a, attempted->to_b}});
    } else {
      audit({got_stable});
    }
    // The restored party closes on a state both signed, never by punishment.
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok &&
             restored == channel::Outcome::kNonCollaborative && !s.cheat.expect_loss;
    rep.detail = crashed_mid ? "mid-update crash recovery" : "crash-recovery close";
  } else if (s.cheat.enabled && s.cheat.state < rep.updates_done) {
    rep.cheated = true;
    windows_active = false;
    const PartyId cheater = s.cheat.cheater;
    const PartyId victim = other(cheater);
    if (daric) {
      const EndgameResult res = run_cheat_endgame(env, *daric, cheater, s.cheat.state,
                                                  s.cheat.victim_offline, s.t_punish, s.delta);
      rep.closed = res.closed;
      rep.punished = res.punished;
      rep.funds_lost = res.funds_lost;
    } else {
      // Every monitor stays dark while the revoked commit confirms.
      ch.set_monitor_online(false, false);
      ch.publish_old_commit(cheater, s.cheat.state);
      env.advance_rounds(s.cheat.victim_offline);
      ch.set_monitor_online(true, true);
      rep.closed = ch.run_until_closed();
      rep.punished = ch.outcome(victim) == channel::Outcome::kPunished;
    }
    rep.conservation_ok = conserved(env.ledger());
    if (s.cheat.expect_loss) {
      // The crafted boundary schedule: the victim must come out short.
      const Amount owed = victim == PartyId::kA ? stable.to_a : stable.to_b;
      rep.payout_ok = credited(env.ledger(), ch.payout_pk(victim)) < owed;
      rep.ok = rep.closed && rep.conservation_ok && rep.funds_lost && !rep.punished &&
               rep.payout_ok;
      rep.detail = "expected funds loss beyond T - delta";
    } else if (ch.punishes()) {
      // The victim takes the whole capacity: the cheater's funds and its own.
      audit({victim == PartyId::kA ? Payout{kCapacity, 0} : Payout{0, kCapacity}});
      rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && rep.punished &&
               !rep.funds_lost;
      rep.detail = "fraud punished";
    } else {
      // eltoo has no punishment: the honest monitor overrides the stale
      // update with the newest one and settles the latest state.
      const auto& eltoo_ch = dynamic_cast<const eltoo::EltooChannel&>(ch);
      audit({got_stable});
      rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok &&
               eltoo_ch.settled_state() == rep.updates_done;
      rep.detail = "stale update overridden";
    }
  } else {
    const bool coop = mix(s.seed, 0xc105eull) % 2 == 0;
    const PartyId initiator = mix(s.seed, 0x1417ull) % 2 == 0 ? PartyId::kA : PartyId::kB;
    bool done;
    if (coop) {
      // The seed picks who closes; a baseline drill's cooperative close is
      // always A's.
      done = ch.cooperative_close(daric ? initiator : PartyId::kA);
    } else {
      ch.force_close(initiator);
      done = ch.run_until_closed();
    }
    if (!done) done = ch.run_until_closed();
    rep.closed = done;
    audit({got_stable});
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = coop ? "cooperative close" : "force close";
  }
  finish_report(rep, env, o);
  return rep;
}

BoundaryReport run_downtime_boundary(Round offline_rounds, Round t_punish, Round delta) {
  BoundaryReport rep;
  rep.offline_rounds = offline_rounds;

  Environment env(delta, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = "boundary-" + std::to_string(t_punish) + "-" + std::to_string(delta) + "-" +
              std::to_string(offline_rounds);
  params.cash_a = kCashA;
  params.cash_b = kCashB;
  params.t_punish = t_punish;

  daricch::DaricChannel ch(env, params);
  if (!ch.create()) return rep;
  if (!ch.update({50'000, 50'000, {}})) return rep;
  if (!ch.update({70'000, 30'000, {}})) return rep;

  // B cheats with revoked state 0 (B held 40k there, 30k now) while A's
  // monitor misses `offline_rounds` rounds after the publication.
  const EndgameResult res =
      run_cheat_endgame(env, ch, PartyId::kB, 0, offline_rounds, t_punish, delta);
  rep.punished = res.punished;
  rep.funds_lost = res.funds_lost;
  rep.closed = res.closed;
  rep.conservation_ok = conserved(env.ledger());
  rep.observed_gap = static_cast<Round>(ch.party(PartyId::kA).max_offline_gap());
  return rep;
}

}  // namespace daric::sim::faults
