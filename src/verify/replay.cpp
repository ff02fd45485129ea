#include "src/verify/replay.h"

#include <stdexcept>

namespace daric::verify {

using daricch::CloseOutcome;
using daricch::DaricChannel;
using sim::PartyId;

State model_final(const Options& opts, const std::vector<Action>& trace) {
  State s = initial_state(opts);
  for (const Action& a : trace) s = apply(s, a, opts);
  return s;
}

CloseOutcome expected_outcome(Resolution r) {
  switch (r) {
    case Resolution::kCoop: return CloseOutcome::kCooperative;
    case Resolution::kSplit: return CloseOutcome::kNonCollaborative;
    case Resolution::kPunish: return CloseOutcome::kPunished;
    case Resolution::kOpen: break;
  }
  return CloseOutcome::kNone;
}

namespace {

channel::StateVec state_vec(const Options& opts, int state) {
  return {opts.to_a(state), opts.to_b(state), {}};
}

/// Reads the final payouts off the confirmed transaction chain: funding →
/// (coop split | commit → (split | revocation)).
std::optional<ReplayOutcome> read_payouts(const sim::Environment& env, DaricChannel& ch) {
  const auto& a = ch.party(PartyId::kA);
  const auto& b = ch.party(PartyId::kB);
  ReplayOutcome out;
  out.outcome = a.outcome();
  if (b.outcome() != a.outcome()) return std::nullopt;  // parties must agree

  const ledger::AcceptedTx* settle = env.ledger().spender_of(ch.funding_outpoint());
  if (settle && out.outcome != CloseOutcome::kCooperative)
    settle = env.ledger().spender_of({settle->txid(), 0});
  if (!settle) return std::nullopt;

  const tx::Condition pay_a = tx::Condition::p2wpkh(a.pub().main);
  const tx::Condition pay_b = tx::Condition::p2wpkh(b.pub().main);
  for (const tx::Output& o : settle->tx().outputs) {
    if (o.cond == pay_a) out.payout_a += o.cash;
    else if (o.cond == pay_b) out.payout_b += o.cash;
    else return std::nullopt;  // unexpected output
  }
  return out;
}

}  // namespace

std::optional<ReplayOutcome> replay_trace(const Options& opts,
                                          const std::vector<Action>& trace,
                                          const std::string& channel_id) {
  sim::Environment env(opts.delta, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = channel_id;
  params.cash_a = opts.to_a(0);
  params.cash_b = opts.to_b(0);
  params.t_punish = opts.t_punish;
  DaricChannel ch(env, params);
  if (!ch.create()) return std::nullopt;

  int sn = 0;
  bool closing = false;  // an abort/coop already ran the channel to close
  for (const Action& a : trace) {
    switch (a.kind) {
      case ActionKind::kTick:
        env.advance_round();
        break;
      case ActionKind::kUpdate:
        if (closing) return std::nullopt;
        if (!ch.update(state_vec(opts, sn + 1), PartyId::kA)) return std::nullopt;
        ++sn;
        break;
      case ActionKind::kUpdateAbort: {
        if (closing) return std::nullopt;
        // Odd messages are sent by the proposer A: silence before them is
        // A misbehaving; even messages are B's.
        const PartyId silent = (a.arg % 2 == 1) ? PartyId::kA : PartyId::kB;
        ch.party(silent).behavior.abort_update_before_msg = a.arg;
        if (ch.update(state_vec(opts, sn + 1), PartyId::kA)) return std::nullopt;
        ch.party(silent).behavior.abort_update_before_msg = 0;
        closing = true;
        break;
      }
      case ActionKind::kPublish: {
        const PartyId who = a.p == 0 ? PartyId::kA : PartyId::kB;
        const auto& archive = ch.archived_commits(who);
        if (a.arg >= archive.size()) return std::nullopt;
        env.ledger().post_with_delay(archive[a.arg], a.tau);
        break;
      }
      case ActionKind::kCoopClose:
        if (closing) return std::nullopt;
        if (!ch.cooperative_close(PartyId::kA)) return std::nullopt;
        closing = true;
        break;
      case ActionKind::kCrash:
        return std::nullopt;  // monitors cannot be detached from a live party
    }
  }

  if (!ch.run_until_closed(400)) return std::nullopt;
  return read_payouts(env, ch);
}

}  // namespace daric::verify
