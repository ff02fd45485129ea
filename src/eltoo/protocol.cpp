#include "src/eltoo/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::eltoo {

using script::SighashFlag;
using sim::PartyId;

namespace {
std::size_t idx(PartyId p) { return p == PartyId::kA ? 0 : 1; }
}  // namespace

EltooChannel::EltooChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "eltoo", "override.posted"), keys_(derive_keys(params_.id)) {
  env_.add_round_hook([this] { on_round(); });
}

void EltooChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  const SettlementKeys ks = settlement_keys(params_.id, state);  // derived once: two mul_gens
  const crypto::KeyPair& upd_a = keys_.a.upd;
  const crypto::KeyPair& upd_b = keys_.b.upd;
  script::Script out_script = update_output_script(params_, keys_, ks, state);
  upd_body_ = update_body(params_, out_script, state);
  const tx::SighashCache sh_upd(upd_body_);
  upd_sig_a_ =
      tx::sign_input(upd_body_, 0, upd_a, scheme, SighashFlag::kAllAnyPrevOut, &sh_upd);
  upd_sig_b_ =
      tx::sign_input(upd_body_, 0, upd_b, scheme, SighashFlag::kAllAnyPrevOut, &sh_upd);
  set_body_ = settlement_body(keys_, st);
  const tx::SighashCache sh_set(set_body_);
  set_sig_a_ = tx::sign_input(set_body_, 0, ks.a, scheme, SighashFlag::kAllAnyPrevOut, &sh_set);
  set_sig_b_ = tx::sign_input(set_body_, 0, ks.b, scheme, SighashFlag::kAllAnyPrevOut, &sh_set);
  // Each party verifies the two signatures it received (Table 3: 2 per
  // party), batched into one check per party. The sighash caches share the
  // serialized bodies with the signing side above.
  const Hash256 upd_digest = sh_upd.digest(0, SighashFlag::kAllAnyPrevOut);
  const Hash256 set_digest = sh_set.digest(0, SighashFlag::kAllAnyPrevOut);
  auto claim = [&](std::vector<crypto::SigBatchItem>& batch, const crypto::Point& pk,
                   const Hash256& digest, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec) throw std::logic_error("counterparty signature invalid");
    batch.push_back({pk, digest, dec->raw});
  };
  std::vector<crypto::SigBatchItem> batch_a, batch_b;
  claim(batch_a, upd_b.pk, upd_digest, upd_sig_b_);  // A checks B
  claim(batch_b, upd_a.pk, upd_digest, upd_sig_a_);  // B checks A
  claim(batch_a, ks.b.pk, set_digest, set_sig_b_);
  claim(batch_b, ks.a.pk, set_digest, set_sig_a_);
  if (!scheme.verify_batch(batch_a) || !scheme.verify_batch(batch_b))
    throw std::logic_error("counterparty signature invalid");
  archive_.push_back({upd_body_, set_body_, upd_sig_a_, upd_sig_b_, set_sig_a_, set_sig_b_,
                      std::move(out_script), st});
}

bool EltooChannel::create() {
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  if (!mint_funding("eltoo/create", funding_script(keys_), params_.capacity())) return false;
  sign_state(0, st_);
  open_ = true;
  note_opened();
  return true;
}

bool EltooChannel::update(const channel::StateVec& next) {
  OBS_SPAN("eltoo.update.total");
  check_next_state(next, 1);
  if (send_or_close(PartyId::kA, "eltoo/update-sigs-1") == 0) return false;
  if (send_or_close(PartyId::kB, "eltoo/update-sigs-2") == 0) return false;
  sign_state(sn_ + 1, next);
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

bool EltooChannel::cooperative_close(PartyId initiator) {
  return close_2of2(initiator, "eltoo/close",
                    daricch::gen_fin_split(fund_op_, st_, keys_.a.payout, keys_.b.payout),
                    keys_.a.upd, keys_.b.upd);
}

void EltooChannel::post_update_bound(std::uint32_t state, const tx::OutPoint& op,
                                     const script::Script& prev_script, bool spending_funding) {
  const ArchivedState& s = archive_.at(state);
  tx::Transaction t = s.upd_body;
  daricch::bind_floating(t, op);
  if (spending_funding) {
    daricch::attach_funding_witness(t, 0, fund_script_, s.upd_sig_a, s.upd_sig_b);
  } else {
    // ELSE branch of the update-output script: selector element is empty.
    t.witnesses.resize(1);
    t.witnesses[0].stack = {Bytes{}, s.upd_sig_a, s.upd_sig_b, Bytes{}};
    t.witnesses[0].witness_script = prev_script;
  }
  observe_weight(t);
  env_.ledger().post(t);
}

void EltooChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  if (state >= archive_.size()) throw std::out_of_range("no such archived state");
  note_dispute(who, state);
  if (env_.ledger().is_unspent(fund_op_)) {
    post_update_bound(state, fund_op_, {}, true);
    return;
  }
  // Bind to the current tip update output if the CLTV floor allows it.
  if (tip_txid_ && state > tip_state_) {
    post_update_bound(state, {*tip_txid_, 0}, archive_.at(tip_state_).out_script, false);
  }
}

void EltooChannel::attacker_settle(PartyId who, std::uint32_t state) {
  (void)who;
  if (!tip_txid_ || tip_state_ != state) return;
  const ArchivedState& s = archive_.at(state);
  tx::Transaction t = s.set_body;
  daricch::bind_floating(t, {*tip_txid_, 0});
  t.witnesses.resize(1);
  t.witnesses[0].stack = {Bytes{}, s.set_sig_a, s.set_sig_b, Bytes{1}};
  t.witnesses[0].witness_script = s.out_script;
  env_.ledger().post(t);
}

void EltooChannel::set_reacting(PartyId who, bool reacts) { reacts_[idx(who)] = reacts; }

void EltooChannel::force_close(PartyId who) {
  if (!open_) return;
  note_force_close(who, sn_);
  if (env_.ledger().is_unspent(fund_op_)) post_update_bound(sn_, fund_op_, {}, true);
  // Settlement is scheduled by the monitor once the update confirms.
}

void EltooChannel::settle(std::uint32_t state, channel::Outcome o, const char* how) {
  settled_state_ = state;
  close_as(o, how, state);
}

void EltooChannel::on_round() {
  if (!monitoring()) return;
  auto& ledger = env_.ledger();

  const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  if (coop_close_txid_ == spender->txid()) {
    settle(sn_, channel::Outcome::kCooperative, "cooperative");
    return;
  }

  // Walk the update chain to the deepest confirmed update transaction.
  std::uint32_t cur_state = 0;
  const ledger::AcceptedTx* holder = nullptr;
  while (spender) {
    if (spender->tx().outputs.size() != 1) {
      // A settlement (two or more outputs) finalized the channel.
      settle(cur_state, channel::Outcome::kNonCollaborative,
             cur_state < sn_ ? "stale-settled" : "settled");
      return;
    }
    holder = spender;
    cur_state = holder->tx().nlocktime - params_.s0;
    spender = ledger.spender_of({holder->txid(), 0});
  }

  const Round conf = holder->round();
  if (!tip_txid_ || *tip_txid_ != holder->txid()) {
    tip_txid_ = holder->txid();
    tip_state_ = cur_state;
    settlement_posted_ = false;
    reacted_for_tip_ = false;
  }

  if (cur_state < sn_) {
    // Stale state on-chain: a reacting honest party overrides it with the
    // latest update (eltoo's only defence — no punishment available).
    if ((reacts_[0] || reacts_[1]) && !reacted_for_tip_) {
      // The override is eltoo's stand-in for punishment: record it under the
      // same punish counter/event so cross-engine dashboards line up.
      obs_.punish_posted->inc();
      if (tracing())
        emit(obs::EventKind::kPunish, {},
             {obs::Attr::s("kind", "override"),
              obs::Attr::i("stale_state", static_cast<std::int64_t>(cur_state)),
              obs::Attr::i("latest_sn", static_cast<std::int64_t>(sn_))});
      post_update_bound(sn_, {holder->txid(), 0}, archive_.at(cur_state).out_script, false);
      reacted_for_tip_ = true;
    }
    return;
  }

  // Latest state on-chain: settle once the CSV matured.
  if (!settlement_posted_ && env_.now() >= conf + params_.t_punish) {
    const ArchivedState& s = archive_.at(sn_);
    tx::Transaction t = s.set_body;
    daricch::bind_floating(t, {holder->txid(), 0});
    t.witnesses.resize(1);
    t.witnesses[0].stack = {Bytes{}, s.set_sig_a, s.set_sig_b, Bytes{1}};
    t.witnesses[0].witness_script = s.out_script;
    observe_weight(t);
    note_phase({}, "settlement_posted", sn_);
    ledger.post(t);
    settlement_posted_ = true;
  }
}

std::size_t EltooChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  (void)who;
  channel::StorageMeter m;
  m.add_raw(36);  // funding outpoint
  m.add_tx(upd_body_);
  m.add_tx(set_body_);
  m.add_signature();  // upd_sig_a
  m.add_signature();  // upd_sig_b
  m.add_signature();  // set_sig_a
  m.add_signature();  // set_sig_b
  m.add_raw(32 + 33 + 33);       // own update key + both update pubkeys
  m.add_raw(32 + 33 + 33);       // latest settlement keys
  return m.bytes();
}

}  // namespace daric::eltoo
