#include "src/fppw/protocol.h"

#include <stdexcept>

#include "src/channel/publisher.h"
#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::fppw {

using script::SighashFlag;
using sim::PartyId;

FppwChannel::FppwChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "fppw"), keys_(derive_keys(params_.id)) {
  if (!env_.scheme().supports_adaptor())
    throw std::invalid_argument("FPPW needs adaptor signatures (publisher identification)");
  env_.add_round_hook([this] { on_round(); });
}

tx::Transaction FppwChannel::build_revocation(std::uint32_t state, PartyId victim) const {
  const Commit& c = archive_.at(state).commit;
  tx::Transaction t = revocation_body(params_, keys_, c.body.txid(), victim);
  t.witnesses.resize(2);
  sign_3of3(t, 0, c.out0);
  sign_3of3(t, 1, c.out1);
  return t;
}

void FppwChannel::sign_3of3(tx::Transaction& t, std::size_t input,
                            const script::Script& witness_script) const {
  const Bytes sa = tx::sign_input(t, input, keys_.a.rev.sk, env_.scheme(), SighashFlag::kAll);
  const Bytes sb = tx::sign_input(t, input, keys_.b.rev.sk, env_.scheme(), SighashFlag::kAll);
  const Bytes sw = tx::sign_input(t, input, keys_.tower_rev.sk, env_.scheme(), SighashFlag::kAll);
  t.witnesses[input].stack = {Bytes{}, sa, sb, sw, Bytes{1}};
  t.witnesses[input].witness_script = witness_script;
}

void FppwChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  const StateSecrets sec = state_secrets(params_.id, state);
  const crypto::Scalar& sk_a = keys_.a.main.sk;
  const crypto::Scalar& sk_b = keys_.b.main.sk;
  commit_ = build_commit(params_, keys_, fund_op_, state, sec);
  const Hash256 digest = tx::sighash_digest(commit_.body, 0, SighashFlag::kAll);
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);
  crypto::op_counters().signs.fetch_add(2, std::memory_order_relaxed);
  pre_a_ = crypto::adaptor_pre_sign(sk_a, digest, sec.y_b.pk);
  pre_b_ = crypto::adaptor_pre_sign(sk_b, digest, sec.y_a.pk);

  split_body_ =
      daricch::gen_fin_split({commit_.body.txid(), 0}, st, keys_.a.payout, keys_.b.payout);
  split_sig_a_ = tx::sign_input(split_body_, 0, sk_a, scheme, SighashFlag::kAll);
  split_sig_b_ = tx::sign_input(split_body_, 0, sk_b, scheme, SighashFlag::kAll);

  archive_.push_back({commit_, pre_a_, pre_b_});
}

bool FppwChannel::create() {
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // The funding holds channel capacity plus the tower's collateral
  // (escrowed at setup; the tower recovers it through every exit path).
  if (!mint_funding("fppw/create", funding_script(keys_), params_.capacity() + collateral()))
    return false;
  sign_state(0, st_);
  open_ = true;
  note_opened();
  return true;
}

bool FppwChannel::update(const channel::StateVec& next) {
  OBS_SPAN("fppw.update.total");
  check_next_state(next, 1);
  if (send_or_close(PartyId::kA, "fppw/presig") == 0) return false;
  if (send_or_close(PartyId::kB, "fppw/split-sig") == 0) return false;
  if (send_or_close(PartyId::kA, "fppw/revoke") == 0) return false;
  // Revoke the current state: both revocation variants go to the tower.
  const std::uint32_t old = sn_;
  const Hash256 old_txid = archive_.at(old).commit.body.txid();
  tower_revocations_.push_back({old_txid, build_revocation(old, PartyId::kA)});
  tower_revocations_.push_back({old_txid, build_revocation(old, PartyId::kB)});
  sign_state(old + 1, next);
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

tx::Transaction FppwChannel::assemble_commit(PartyId publisher, std::uint32_t state) const {
  const ArchivedState& s = archive_.at(state);
  const StateSecrets sec = state_secrets(params_.id, state);
  tx::Transaction t = s.commit.body;
  const Hash256 digest = tx::sighash_digest(t, 0, SighashFlag::kAll);
  Bytes sig_a, sig_b;
  if (publisher == PartyId::kA) {
    sig_a = script::encode_wire_sig(env_.scheme().sign(keys_.a.main.sk, digest), SighashFlag::kAll);
    sig_b = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_b, sec.y_a.sk),
                                    SighashFlag::kAll);
  } else {
    sig_a = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_a, sec.y_b.sk),
                                    SighashFlag::kAll);
    sig_b = script::encode_wire_sig(env_.scheme().sign(keys_.b.main.sk, digest), SighashFlag::kAll);
  }
  daricch::attach_funding_witness(t, 0, fund_script_, sig_a, sig_b);
  return t;
}

bool FppwChannel::cooperative_close(PartyId initiator) {
  return close_2of2(initiator, "fppw/close", coop_close_body(params_, keys_, fund_op_, st_),
                    keys_.a.main.sk, keys_.b.main.sk);
}

void FppwChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction cm = assemble_commit(who, sn_);
  observe_weight(cm);
  note_force_close(who, sn_);
  env_.ledger().post(cm);
}

void FppwChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  if (state >= archive_.size()) throw std::out_of_range("no archived commit");
  const tx::Transaction cm = assemble_commit(who, state);
  observe_weight(cm);
  note_dispute(who, state);
  env_.ledger().post(cm);
}

void FppwChannel::on_round() {
  if (!monitoring()) return;
  auto& ledger = env_.ledger();
  const auto& scheme = env_.scheme();

  if (pending_txid_) {
    if (ledger.is_confirmed(*pending_txid_))
      close_as(pending_is_compensation_ ? channel::Outcome::kCompensated
                                        : channel::Outcome::kPunished);
    return;
  }
  if (pending_split_) {
    PendingSplit& split = *pending_split_;
    if (!split.txid && env_.now() >= split.post_round) {
      split.txid = ledger.post(split.bound);
    } else if (split.txid && ledger.is_confirmed(*split.txid) &&
               ledger.is_confirmed(*pending_release_)) {
      close_as(channel::Outcome::kNonCollaborative);
    }
    return;
  }

  // The archived state whose commit has txid `id`, and who published it.
  auto state_of = [this](const Hash256& id) -> std::optional<std::uint32_t> {
    for (std::uint32_t i = 0; i < archive_.size(); ++i)
      if (archive_[i].commit.body.txid() == id) return i;
    return std::nullopt;
  };
  auto publisher_of = [&](const tx::Transaction& commit, std::uint32_t state) {
    const StateSecrets sec = state_secrets(params_.id, state);
    const ArchivedState& rec = archive_[state];
    return channel::identify_publisher(commit, rec.pre_a, rec.pre_b, sec.y_a.pk, sec.y_b.pk,
                                       scheme);
  };

  // Tower-failure path: fraud seen, tower offline, CSV matured.
  if (fraud_seen_round_ && !tower_online_) {
    if (env_.now() < *fraud_seen_round_ + params_.t_punish) return;
    // Identify the publisher by extraction, then claim the collateral.
    const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
    const auto state = state_of(*fraud_commit_txid_);
    if (!state || !spender) return;
    const auto publisher = publisher_of(spender->tx(), *state);
    if (!publisher) return;
    const bool a_pub = publisher->who == PartyId::kA;
    const PartyKeys& victim = keys_.of(other(publisher->who));
    tx::Transaction pen = daricch::gen_sweep({*fraud_commit_txid_, 1}, collateral(), victim.payout);
    const Hash256 digest = tx::sighash_digest(pen, 0, SighashFlag::kAll);
    const Bytes sig_pen =
        script::encode_wire_sig(scheme.sign(victim.pen.sk, digest), SighashFlag::kAll);
    const Bytes sig_y =
        script::encode_wire_sig(scheme.sign(publisher->y, digest), SighashFlag::kAll);
    pen.witnesses.resize(1);
    pen.witnesses[0].stack = {Bytes{}, sig_pen, sig_y, a_pub ? Bytes{1} : Bytes{}, Bytes{}};
    pen.witnesses[0].witness_script = archive_[*state].commit.out1;
    pending_txid_ = ledger.post(pen);
    note_punish(other(publisher->who), *state, sn_);
    pending_is_compensation_ = true;
    return;
  }

  const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();
  if (coop_close_txid_ == id) {
    close_as(channel::Outcome::kCooperative);
    return;
  }
  const auto state = state_of(id);
  if (!state) return;

  if (*state < sn_) {
    // Revoked: the tower (if online) fires the pre-signed revocation for
    // the non-publishing victim.
    if (!tower_online_) {
      fraud_seen_round_ = spender->round();
      fraud_commit_txid_ = id;
      return;
    }
    // An unidentified publisher is taken to be B.
    const auto publisher = publisher_of(spender->tx(), *state);
    const PartyId victim = publisher && publisher->who == PartyId::kA ? PartyId::kB : PartyId::kA;
    for (const RevocationRecord& rv : tower_revocations_) {
      if (rv.commit_txid != id) continue;
      // The stored pair is [victim=A, victim=B]; match by payout key.
      const auto& payout = rv.revocation.outputs[0].cond;
      const bool pays_a = payout == tx::Condition::p2wpkh(keys_.a.payout);
      if ((victim == PartyId::kA) == pays_a) {
        pending_txid_ = ledger.post(rv.revocation);
        note_punish(victim, *state, sn_);
        pending_is_compensation_ = false;
        return;
      }
    }
    return;
  }

  // Latest commit: the split after the CSV delay, and at once the tower's
  // collateral release, which spends output 1 through its 3-of-3 branch
  // back to the tower (the co-signed collateral-release template). The
  // close counts once both confirm.
  tx::Transaction split = split_body_;
  split.witnesses.resize(1);
  split.witnesses[0].stack = {Bytes{}, split_sig_a_, split_sig_b_, Bytes{}};
  split.witnesses[0].witness_script = commit_.out0;
  pending_split_ = PendingSplit{spender->round() + params_.t_punish, std::move(split), {}};
  tx::Transaction release = daricch::gen_sweep({id, 1}, collateral(), tower_payout_pk());
  release.witnesses.resize(1);
  sign_3of3(release, 0, commit_.out1);
  pending_release_ = ledger.post(release);
}

std::size_t FppwChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  (void)who;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(commit_.body);
  m.add_tx(split_body_);
  m.add_signature();
  m.add_raw(33 + 32);  // counterparty pre-signature
  // Parties also retain the per-state revocations they co-signed (O(n)).
  for (const RevocationRecord& rv : tower_revocations_) m.add_tx(rv.revocation);
  m.add_raw(5 * (32 + 33));
  return m.bytes();
}

std::size_t FppwChannel::tower_storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36 + 33);
  for (const RevocationRecord& rv : tower_revocations_) {
    m.add_raw(32);
    m.add_tx(rv.revocation);
  }
  return m.bytes();
}

}  // namespace daric::fppw
