#include "src/eltoo/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::eltoo {

using script::SighashFlag;
using sim::PartyId;

namespace {
std::size_t idx(PartyId p) { return p == PartyId::kA ? 0 : 1; }
}  // namespace

EltooChannel::EltooChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "eltoo", "override.posted") {
  const daricch::DaricKeys ka = daricch::DaricKeys::derive("A", params_.id + "/eltoo");
  const daricch::DaricKeys kb = daricch::DaricKeys::derive("B", params_.id + "/eltoo");
  pub_a_ = to_pub(ka);
  pub_b_ = to_pub(kb);
  upd_a_ = crypto::derive_keypair(params_.id + "/eltoo/A/upd");
  upd_b_ = crypto::derive_keypair(params_.id + "/eltoo/B/upd");
  env_.add_round_hook([this] { on_round(); });
}

EltooChannel::PerStateKeys EltooChannel::settlement_keys(std::uint32_t state) const {
  const std::string base = params_.id + "/eltoo/set/" + std::to_string(state);
  return {crypto::derive_keypair(base + "/A"), crypto::derive_keypair(base + "/B")};
}

script::Script EltooChannel::update_output_script(std::uint32_t state) const {
  const PerStateKeys ks = settlement_keys(state);
  return update_script(ks.set_a.pk.compressed(), ks.set_b.pk.compressed(),
                       upd_a_.pk.compressed(), upd_b_.pk.compressed(),
                       params_.s0 + state + 1, static_cast<std::uint32_t>(params_.t_punish));
}

tx::Transaction EltooChannel::build_update_body(std::uint32_t state) const {
  tx::Transaction t;
  t.nlocktime = params_.s0 + state;
  t.outputs = {{params_.capacity(), tx::Condition::p2wsh(update_output_script(state))}};
  return t;  // floating
}

tx::Transaction EltooChannel::build_settlement_body(const channel::StateVec& st,
                                                    std::uint32_t state) const {
  (void)state;
  tx::Transaction t;
  t.nlocktime = 0;
  t.outputs = daricch::state_outputs(st, pub_a_.main, pub_b_.main);
  return t;  // floating, bound to update `state`'s output
}

void EltooChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  upd_body_ = build_update_body(state);
  const tx::SighashCache sh_upd(upd_body_);
  upd_sig_a_ =
      tx::sign_input(upd_body_, 0, upd_a_, scheme, SighashFlag::kAllAnyPrevOut, &sh_upd);
  upd_sig_b_ =
      tx::sign_input(upd_body_, 0, upd_b_, scheme, SighashFlag::kAllAnyPrevOut, &sh_upd);
  set_body_ = build_settlement_body(st, state);
  const tx::SighashCache sh_set(set_body_);
  const PerStateKeys ks = settlement_keys(state);
  set_sig_a_ =
      tx::sign_input(set_body_, 0, ks.set_a, scheme, SighashFlag::kAllAnyPrevOut, &sh_set);
  set_sig_b_ =
      tx::sign_input(set_body_, 0, ks.set_b, scheme, SighashFlag::kAllAnyPrevOut, &sh_set);
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
  claim(batch_a, upd_b_.pk, upd_digest, upd_sig_b_);  // A checks B
  claim(batch_b, upd_a_.pk, upd_digest, upd_sig_a_);  // B checks A
  claim(batch_a, ks.set_b.pk, set_digest, set_sig_b_);
  claim(batch_b, ks.set_a.pk, set_digest, set_sig_a_);
  if (!scheme.verify_batch(batch_a) || !scheme.verify_batch(batch_b))
    throw std::logic_error("counterparty signature invalid");
  archive_.push_back({upd_body_, set_body_, upd_sig_a_, upd_sig_b_, set_sig_a_, set_sig_b_,
                      update_output_script(state), st});
}

bool EltooChannel::create() {
  fund_script_ = funding_script(upd_a_.pk.compressed(), upd_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "eltoo/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
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
  require_open();
  const auto& scheme = env_.scheme();
  tx::Transaction close = daricch::gen_fin_split(fund_op_, st_, pub_a_, pub_b_);
  const tx::SighashCache sh_close(close);
  const Bytes sa = tx::sign_input(close, 0, upd_a_, scheme, SighashFlag::kAll, &sh_close);
  const Bytes sb = tx::sign_input(close, 0, upd_b_, scheme, SighashFlag::kAll, &sh_close);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  return post_cooperative_close(initiator, "eltoo/close", close);
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

  auto spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  if (coop_close_txid_ == spender->txid()) {
    settle(sn_, channel::Outcome::kCooperative, "cooperative");
    return;
  }

  // Walk the update chain to the deepest confirmed update transaction.
  std::uint32_t cur_state = 0;
  tx::Transaction holder;
  for (;;) {
    if (spender->outputs.size() != 1) {
      // A settlement (two or more outputs) finalized the channel.
      settle(cur_state, channel::Outcome::kNonCollaborative,
             cur_state < sn_ ? "stale-settled" : "settled");
      return;
    }
    holder = *spender;
    cur_state = holder.nlocktime - params_.s0;
    auto next = ledger.spender_of({holder.txid(), 0});
    if (!next) break;
    spender = next;
  }

  const auto conf = ledger.confirmation_round(holder.txid());
  if (!tip_txid_ || *tip_txid_ != holder.txid()) {
    tip_txid_ = holder.txid();
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
      post_update_bound(sn_, {holder.txid(), 0}, archive_.at(cur_state).out_script, false);
      reacted_for_tip_ = true;
    }
    return;
  }

  // Latest state on-chain: settle once the CSV matured.
  if (!settlement_posted_ && conf && env_.now() >= *conf + params_.t_punish) {
    const ArchivedState& s = archive_.at(sn_);
    tx::Transaction t = s.set_body;
    daricch::bind_floating(t, {holder.txid(), 0});
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
