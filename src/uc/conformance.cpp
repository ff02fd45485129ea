#include "src/uc/conformance.h"

#include "src/daric/scripts.h"

namespace daric::uc {

using daricch::CloseOutcome;
using sim::PartyId;

ConformanceChecker::ConformanceChecker(sim::Environment& env, daricch::DaricChannel& channel)
    : env_(env), channel_(channel) {
  env_.add_round_hook([this] { on_round(); });
}

void ConformanceChecker::observe_created() {
  const auto& a = channel_.party(PartyId::kA);
  const auto& b = channel_.party(PartyId::kB);
  if (!a.channel_open() || !b.channel_open()) {
    fail("consensus-on-creation: CREATED while a party is not open");
    return;
  }
  if (!(a.state() == b.state()) || a.state_number() != b.state_number())
    fail("consensus-on-creation: parties disagree on the initial state");
  if (!env_.ledger().is_unspent(channel_.funding_outpoint()))
    fail("consensus-on-creation: funding output not live on the ledger");
}

void ConformanceChecker::observe_update_begin() {
  ledger_txs_before_update_ = env_.ledger().accepted().size();
}

void ConformanceChecker::observe_update_end(bool updated) {
  if (!updated) return;  // aborted updates legitimately hit the chain
  if (env_.ledger().accepted().size() != ledger_txs_before_update_)
    fail("optimistic-update: honest update touched the ledger");
  const auto& a = channel_.party(PartyId::kA);
  const auto& b = channel_.party(PartyId::kB);
  if (!(a.state() == b.state()) || a.state_number() != b.state_number())
    fail("consensus-on-update: parties disagree after UPDATED");
}

bool ConformanceChecker::matches_state(const std::vector<tx::Output>& outputs,
                                       const channel::StateVec& st) const {
  const auto expect = daricch::state_outputs(st, channel_.party(PartyId::kA).pub().main,
                                             channel_.party(PartyId::kB).pub().main);
  return outputs == expect;
}

void ConformanceChecker::on_round() {
  if (resolved_) return;
  auto& ledger = env_.ledger();

  if (!funding_spent_round_) {
    const ledger::AcceptedTx* spender = ledger.spender_of(channel_.funding_outpoint());
    if (!spender) return;
    funding_spent_round_ = spender->round();
    // Snapshot γ at the moment of the spend (Punish phase of F). When an
    // update is in flight the two parties may sit one state apart; both
    // states are acceptable resolutions (γ.st / γ.st′ with flag = 2).
    const auto& a = channel_.party(PartyId::kA);
    const auto& b = channel_.party(PartyId::kB);
    gamma_st_ = a.state();
    gamma_st_prime_ = b.state();
    had_st_prime_ = true;
    // With flag = 2 the in-flight γ.st′ is also acceptable (F.Punish case 2).
    if (a.flag() == channel::ChannelFlag::kUpdating) gamma_st_prime_ = a.pending_state();
    if (b.flag() == channel::ChannelFlag::kUpdating) gamma_st_prime_ = b.pending_state();

    // The spender itself may already resolve the channel (TX_SP̄ path).
    if (matches_state(spender->tx().outputs, gamma_st_) ||
        matches_state(spender->tx().outputs, gamma_st_prime_)) {
      resolved_ = true;
      return;
    }
    return;
  }

  // Funding spent by a commit: F expects resolution within T + Δ rounds
  // (+2 rounds of monitor scheduling slack in this engine).
  const ledger::AcceptedTx* spender = ledger.spender_of(channel_.funding_outpoint());
  const Round deadline =
      *funding_spent_round_ + channel_.params().t_punish + env_.delta() + 2;

  if (const ledger::AcceptedTx* resolution = ledger.spender_of({spender->txid(), 0})) {
    const std::vector<tx::Output>& outputs = resolution->tx().outputs;
    // Case 1 of F.Punish: everything to one party.
    if (outputs.size() == 1 && outputs[0].cash == channel_.params().capacity()) {
      const auto& a_pk = channel_.party(PartyId::kA).pub().main;
      const auto& b_pk = channel_.party(PartyId::kB).pub().main;
      if (outputs[0].cond == tx::Condition::p2wpkh(a_pk) ||
          outputs[0].cond == tx::Condition::p2wpkh(b_pk)) {
        resolved_ = true;
        return;
      }
      fail("bounded-closure: full-capacity payout to an unknown key");
      resolved_ = true;
      return;
    }
    // Case 2: the split realizes γ.st (or γ.st' mid-update).
    if (matches_state(outputs, gamma_st_) ||
        (had_st_prime_ && matches_state(outputs, gamma_st_prime_))) {
      resolved_ = true;
      return;
    }
    fail("bounded-closure: commit output resolved to an unexpected state");
    resolved_ = true;
    return;
  }

  if (env_.now() > deadline) {
    fail("bounded-closure: no resolution within T + Δ rounds of the funding spend");
    resolved_ = true;
  }
}

}  // namespace daric::uc
