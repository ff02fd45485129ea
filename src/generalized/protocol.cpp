#include "src/generalized/protocol.h"

#include <stdexcept>

#include "src/channel/publisher.h"
#include "src/channel/storage.h"
#include "src/crypto/sha256.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::generalized {

using script::SighashFlag;
using sim::PartyId;

GeneralizedChannel::GeneralizedChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "generalized") {
  if (!env_.scheme().supports_adaptor())
    throw std::invalid_argument(
        "Generalized channels need adaptor signatures; scheme '" + env_.scheme().name() +
        "' has none (this is the compatibility limitation Daric avoids)");
  const daricch::DaricKeys ka = daricch::DaricKeys::derive("A", params_.id + "/gc");
  const daricch::DaricKeys kb = daricch::DaricKeys::derive("B", params_.id + "/gc");
  pub_a_ = to_pub(ka);
  pub_b_ = to_pub(kb);
  main_a_ = crypto::derive_keypair(params_.id + "/gc/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/gc/B/main");
  env_.add_round_hook([this] { on_round(); });
}

GeneralizedChannel::StateSecrets GeneralizedChannel::state_secrets(std::uint32_t state) const {
  const std::string base = params_.id + "/gc/state/" + std::to_string(state);
  auto preimage = [&](const std::string& label) {
    const Hash256 h = crypto::Sha256::tagged("daric/gc-rev", {
        reinterpret_cast<const Byte*>(label.data()), label.size()});
    return Bytes(h.view().begin(), h.view().end());
  };
  return {crypto::derive_keypair(base + "/yA"), crypto::derive_keypair(base + "/yB"),
          preimage(base + "/rA"), preimage(base + "/rB")};
}

script::Script GeneralizedChannel::output_script(const StateSecrets& s) const {
  const Hash256 ha = crypto::Sha256::double_hash(s.r_a);
  const Hash256 hb = crypto::Sha256::double_hash(s.r_b);
  return commit_output_script(pub_a_.main, pub_b_.main, s.y_a.pk.compressed(),
                              s.y_b.pk.compressed(), ha.view(), hb.view(),
                              static_cast<std::uint32_t>(params_.t_punish));
}

tx::Transaction GeneralizedChannel::build_commit_body(const script::Script& out_script,
                                                      std::uint32_t state) const {
  tx::Transaction t;
  t.inputs = {{fund_op_}};
  t.nlocktime = params_.s0 + state;  // state identifier (Sec. 8 trick)
  t.outputs = {{params_.capacity(), tx::Condition::p2wsh(out_script)}};
  return t;
}

void GeneralizedChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  const StateSecrets sec = state_secrets(state);  // derived once: two mul_gens
  out_script_ = output_script(sec);
  commit_body_ = build_commit_body(out_script_, state);
  const Hash256 digest = tx::sighash_digest(commit_body_, 0, SighashFlag::kAll);
  // Each party generates its statement (1 exp) and a pre-signature (1 sign).
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);
  crypto::op_counters().signs.fetch_add(2, std::memory_order_relaxed);
  pre_a_ = crypto::adaptor_pre_sign(main_a_.sk, digest, sec.y_b.pk);  // held by B
  pre_b_ = crypto::adaptor_pre_sign(main_b_.sk, digest, sec.y_a.pk);  // held by A

  split_body_ = tx::Transaction{};
  split_body_.inputs = {{{commit_body_.txid(), 0}}};
  split_body_.nlocktime = 0;
  split_body_.outputs = daricch::state_outputs(st, pub_a_.main, pub_b_.main);
  const tx::SighashCache sh_split(split_body_);
  split_sig_a_ = tx::sign_input(split_body_, 0, main_a_, scheme, SighashFlag::kAll, &sh_split);
  split_sig_b_ = tx::sign_input(split_body_, 0, main_b_, scheme, SighashFlag::kAll, &sh_split);

  // Each party verifies the counterparty's pre-signature (counted through
  // the op hook, as adaptor verification bypasses the scheme interface)
  // and split signature (Table 3: 2 verifications per party).
  crypto::op_counters().verifies.fetch_add(2, std::memory_order_relaxed);
  if (!crypto::adaptor_pre_verify(main_a_.pk, digest, sec.y_b.pk, pre_a_) ||
      !crypto::adaptor_pre_verify(main_b_.pk, digest, sec.y_a.pk, pre_b_))
    throw std::logic_error("adaptor pre-signature invalid");
  const Hash256 split_digest = sh_split.digest(0, SighashFlag::kAll);
  auto check = [&](const crypto::Point& pk, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec || !scheme.verify(pk, split_digest, dec->raw))
      throw std::logic_error("counterparty split signature invalid");
  };
  check(main_b_.pk, split_sig_b_);  // A checks B
  check(main_a_.pk, split_sig_a_);  // B checks A

  archive_.push_back({commit_body_, out_script_, pre_a_, pre_b_, st});
}

bool GeneralizedChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "gc/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
  sign_state(0, st_);
  open_ = true;
  note_opened();
  return true;
}

bool GeneralizedChannel::update(const channel::StateVec& next) {
  OBS_SPAN("generalized.update.total");
  check_next_state(next, 1);
  if (send_or_close(PartyId::kA, "gc/presig") == 0) return false;
  if (send_or_close(PartyId::kB, "gc/split-sig") == 0) return false;
  sign_state(sn_ + 1, next);
  if (send_reliable(PartyId::kA, "gc/revoke") == 0) {
    // Both sides fully signed state sn_+1 and nothing was revoked yet; the
    // live commit/split material already refers to it, so close there —
    // closing at the old sn_ would post a commit the overwritten split can
    // no longer bind to.
    ++sn_;
    st_ = next;
    return abort_to(PartyId::kA);
  }
  const StateSecrets old = state_secrets(sn_);
  revealed_r_a_.push_back(old.r_a);
  revealed_r_b_.push_back(old.r_b);
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

tx::Transaction GeneralizedChannel::assemble_commit(PartyId publisher, std::uint32_t state) const {
  const ArchivedState& s = archive_.at(state);
  const StateSecrets sec = state_secrets(state);
  tx::Transaction t = s.commit_body;
  Bytes sig_a, sig_b;
  if (publisher == PartyId::kA) {
    const Hash256 digest = tx::sighash_digest(t, 0, SighashFlag::kAll);
    sig_a = script::encode_wire_sig(env_.scheme().sign(main_a_.sk, digest), SighashFlag::kAll);
    sig_b = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_b, sec.y_a.sk), SighashFlag::kAll);
  } else {
    const Hash256 digest = tx::sighash_digest(t, 0, SighashFlag::kAll);
    sig_a = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_a, sec.y_b.sk), SighashFlag::kAll);
    sig_b = script::encode_wire_sig(env_.scheme().sign(main_b_.sk, digest), SighashFlag::kAll);
  }
  daricch::attach_funding_witness(t, 0, fund_script_, sig_a, sig_b);
  return t;
}

bool GeneralizedChannel::cooperative_close(PartyId initiator) {
  require_open();
  const auto& scheme = env_.scheme();
  tx::Transaction close = daricch::gen_fin_split(fund_op_, st_, pub_a_, pub_b_);
  const tx::SighashCache sh_close(close);
  const Bytes sa = tx::sign_input(close, 0, main_a_, scheme, SighashFlag::kAll, &sh_close);
  const Bytes sb = tx::sign_input(close, 0, main_b_, scheme, SighashFlag::kAll, &sh_close);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  return post_cooperative_close(initiator, "gc/close", close);
}

void GeneralizedChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction cm = assemble_commit(who, sn_);
  observe_weight(cm);
  note_force_close(who, sn_);
  env_.ledger().post(cm);
}

void GeneralizedChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  if (state >= archive_.size()) throw std::out_of_range("no archived commit for that state");
  const tx::Transaction cm = assemble_commit(who, state);
  observe_weight(cm);
  note_dispute(who, state);
  env_.ledger().post(cm);
}

void GeneralizedChannel::on_round() {
  if (!monitoring()) return;
  auto& ledger = env_.ledger();
  const auto& scheme = env_.scheme();

  if (pending_punish_txid_) {
    if (ledger.is_confirmed(*pending_punish_txid_)) close_as(channel::Outcome::kPunished);
    return;
  }
  if (pending_split_) {
    if (!pending_split_->posted && env_.now() >= pending_split_->post_round) {
      observe_weight(pending_split_->bound);
      note_phase({}, "split_posted");
      ledger.post(pending_split_->bound);
      pending_split_->posted = true;
    } else if (pending_split_->posted && ledger.is_confirmed(pending_split_->bound.txid())) {
      close_as(channel::Outcome::kNonCollaborative);
    }
    return;
  }

  const auto spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256 id = spender->txid();
  if (coop_close_txid_ == id) {
    close_as(channel::Outcome::kCooperative);
    return;
  }

  // Identify the published state by txid (bodies are unique per state).
  const ArchivedState* rec = nullptr;
  std::uint32_t state = 0;
  for (std::uint32_t i = 0; i < archive_.size(); ++i) {
    if (archive_[i].commit_body.txid() == id) {
      rec = &archive_[i];
      state = i;
      break;
    }
  }
  if (!rec) return;

  if (state == sn_) {
    // Latest state: schedule the split after the dispute delay.
    const auto conf = ledger.confirmation_round(id);
    tx::Transaction split = split_body_;
    split.witnesses.resize(1);
    split.witnesses[0].stack = {Bytes{}, split_sig_a_, split_sig_b_, Bytes{1}};
    split.witnesses[0].witness_script = out_script_;
    pending_split_ =
        PendingSplit{std::move(split), (conf ? *conf : env_.now()) + params_.t_punish, false};
    return;
  }

  // Revoked state: identify the publisher by adaptor extraction, then
  // punish with (extracted y, revealed r).
  const StateSecrets sec = state_secrets(state);
  const auto publisher = channel::identify_publisher(*spender, rec->pre_a, rec->pre_b,
                                                     sec.y_a.pk, sec.y_b.pk, scheme);
  if (!publisher) return;
  const bool a_published = publisher->who == PartyId::kA;
  const Bytes& r = a_published ? revealed_r_a_.at(state) : revealed_r_b_.at(state);
  tx::Transaction punish;
  punish.inputs = {{{id, 0}}};
  punish.nlocktime = 0;
  punish.outputs = {{params_.capacity(),
                     tx::Condition::p2wpkh(a_published ? pub_b_.main : pub_a_.main)}};
  const Hash256 digest = tx::sighash_digest(punish, 0, SighashFlag::kAll);
  const Bytes sig_y = script::encode_wire_sig(scheme.sign(publisher->y, digest), SighashFlag::kAll);
  const crypto::Scalar& victim_sk = a_published ? main_b_.sk : main_a_.sk;
  const Bytes sig_main = script::encode_wire_sig(scheme.sign(victim_sk, digest),
                                                 SighashFlag::kAll);
  punish.witnesses.resize(1);
  // Branch selectors: outer ε (punish side), inner 1 = punish A / ε = punish B.
  punish.witnesses[0].stack = {sig_main, r, sig_y, a_published ? Bytes{1} : Bytes{}, Bytes{}};
  punish.witnesses[0].witness_script = rec->out_script;
  observe_weight(punish);
  note_punish(other(publisher->who), state, sn_);
  ledger.post(punish);
  pending_punish_txid_ = punish.txid();
}

std::size_t GeneralizedChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  (void)who;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(commit_body_);
  m.add_tx(split_body_);
  m.add_signature();  // split sig (own copy of counterparty's)
  m.add_raw(33 + 32);  // counterparty pre-signature (R̂, ŝ)
  // Revealed revocation preimages of the counterparty: O(n).
  const auto& revealed = who == PartyId::kA ? revealed_r_b_ : revealed_r_a_;
  for (const Bytes& r : revealed) m.add_raw(r.size());
  m.add_raw(2 * (32 + 33));  // own keys + counterparty pubkey
  return m.bytes();
}

}  // namespace daric::generalized
