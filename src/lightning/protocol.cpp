#include "src/lightning/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::lightning {

using script::SighashFlag;
using sim::PartyId;

LightningChannel::LightningChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "lightning"), keys_(derive_keys(params_.id)) {
  env_.add_round_hook([this] { on_round(); });
}

void LightningChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  // Each party generates its new per-commitment point (1 exponentiation) —
  // counted toward Table 3's Exp column.
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);

  Commit ca = build_commit(params_, keys_, fund_op_, PartyId::kA, state, st);
  Commit cb = build_commit(params_, keys_, fund_op_, PartyId::kB, state, st);
  commit_a_ = std::move(ca.body);
  commit_b_ = std::move(cb.body);
  // One digest cache per commit body, shared between the two signatures on
  // it and the verification below.
  const tx::SighashCache sh_a(commit_a_), sh_b(commit_b_);
  const crypto::KeyPair& main_a = keys_.a.main;
  const crypto::KeyPair& main_b = keys_.b.main;
  const Bytes sa_on_a = tx::sign_input(commit_a_, 0, main_a, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sb_on_a = tx::sign_input(commit_a_, 0, main_b, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sa_on_b = tx::sign_input(commit_b_, 0, main_a, scheme, SighashFlag::kAll, &sh_b);
  const Bytes sb_on_b = tx::sign_input(commit_b_, 0, main_b, scheme, SighashFlag::kAll, &sh_b);
  // Each party verifies the counterparty's signature on its own commit
  // (Table 3: 1 verification per party at m = 0).
  auto check = [&](const tx::SighashCache& sh, const crypto::Point& pk, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec || !scheme.verify(pk, sh.digest(0, SighashFlag::kAll), dec->raw))
      throw std::logic_error("counterparty signature invalid");
  };
  check(sh_a, main_b.pk, sb_on_a);  // A checks B's sig on TX^A
  check(sh_b, main_a.pk, sa_on_b);  // B checks A's sig on TX^B
  daricch::attach_funding_witness(commit_a_, 0, fund_script_, sa_on_a, sb_on_a);
  daricch::attach_funding_witness(commit_b_, 0, fund_script_, sa_on_b, sb_on_b);
  archive_.push_back({commit_a_, std::move(ca.to_local), PartyId::kA, state});
  archive_.push_back({commit_b_, std::move(cb.to_local), PartyId::kB, state});
}

bool LightningChannel::create() {
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  if (!mint_funding("ln/create", funding_script(keys_), params_.capacity())) return false;
  sign_state(0, st_);
  open_ = true;
  note_opened();
  return true;
}

bool LightningChannel::update(const channel::StateVec& next) {
  OBS_SPAN("lightning.update.total");
  check_next_state(next, 1);
  // Two rounds to cross-sign the new commitments, one to exchange the old
  // states' revocation secrets. A peer silent past the retry budget means
  // the sender aborts to its newest fully-signed commit.
  if (send_or_close(PartyId::kA, "ln/commit-sig") == 0) return false;
  if (send_or_close(PartyId::kB, "ln/commit-sig") == 0) return false;
  sign_state(sn_ + 1, next);
  if (send_or_close(PartyId::kA, "ln/revoke") == 0) return false;
  // Reveal the state-sn_ secrets; the counterparty stores them forever.
  secrets_of_a_.push_back(revocation_keypair(params_.id, PartyId::kA, sn_).sk.to_be_bytes());
  secrets_of_b_.push_back(revocation_keypair(params_.id, PartyId::kB, sn_).sk.to_be_bytes());
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

bool LightningChannel::cooperative_close(PartyId initiator) {
  return close_2of2(initiator, "ln/close",
                    daricch::gen_fin_split(fund_op_, st_, keys_.a.payout, keys_.b.payout),
                    keys_.a.main, keys_.b.main);
}

void LightningChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction& cm = who == PartyId::kA ? commit_a_ : commit_b_;
  observe_weight(cm);
  note_force_close(who, sn_);
  env_.ledger().post(cm);
}

void LightningChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  for (const CommitRecord& r : archive_) {
    if (r.owner == who && r.state == state) {
      observe_weight(r.tx);
      note_dispute(who, state);
      env_.ledger().post(r.tx);
      return;
    }
  }
  throw std::out_of_range("no archived commit for that state");
}

void LightningChannel::on_round() {
  if (!monitoring()) return;
  auto& ledger = env_.ledger();

  if (pending_claim_txid_) {
    if (ledger.is_confirmed(*pending_claim_txid_)) close_as(channel::Outcome::kPunished);
    return;
  }
  if (pending_sweep_) {
    const auto& scheme = env_.scheme();
    if (!pending_sweep_->posted && env_.now() >= pending_sweep_->post_round) {
      const PartyKeys& owner = keys_.of(pending_sweep_->owner);
      tx::Transaction sweep =
          daricch::gen_sweep(pending_sweep_->to_local_op, pending_sweep_->cash, owner.payout);
      const Bytes sig = tx::sign_input(sweep, 0, owner.delayed.sk, scheme, SighashFlag::kAll);
      sweep.witnesses.resize(1);
      sweep.witnesses[0].stack = {sig, Bytes{}};  // ELSE (delayed) branch
      sweep.witnesses[0].witness_script = pending_sweep_->script;
      observe_weight(sweep);
      note_phase(sim::party_name(pending_sweep_->owner), "sweep_posted");
      pending_sweep_->txid = ledger.post(sweep);
      pending_sweep_->posted = true;
    } else if (pending_sweep_->posted && ledger.is_confirmed(pending_sweep_->txid)) {
      close_as(channel::Outcome::kNonCollaborative);
    }
    return;
  }

  const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();
  if (coop_close_txid_ == id) {
    close_as(channel::Outcome::kCooperative);
    return;
  }

  const CommitRecord* rec = nullptr;
  for (const CommitRecord& r : archive_) {
    if (r.tx.txid() == id) {
      rec = &r;
      break;
    }
  }
  if (!rec) return;

  if (rec->state < sn_) {
    // Revoked commitment: the victim signs with the revealed secret and
    // claims the cheater's to_local output instantly.
    const crypto::KeyPair rev = revocation_keypair(params_.id, rec->owner, rec->state);
    const PartyId victim = other(rec->owner);
    tx::Transaction claim =
        daricch::gen_sweep({id, 0}, rec->tx.outputs[0].cash, keys_.of(victim).payout);
    const Bytes sig = tx::sign_input(claim, 0, rev.sk, env_.scheme(), SighashFlag::kAll);
    claim.witnesses.resize(1);
    claim.witnesses[0].stack = {sig, Bytes{1}};  // IF (revocation) branch
    claim.witnesses[0].witness_script = rec->to_local;
    observe_weight(claim);
    note_punish(victim, rec->state, sn_);
    pending_claim_txid_ = ledger.post(claim);
    return;
  }

  // Latest commitment: owner sweeps its to_local after the CSV delay.
  pending_sweep_ = PendingSweep{{id, 0},
                                rec->to_local,
                                rec->owner,
                                rec->tx.outputs[0].cash,
                                spender->round() + params_.t_punish,
                                false,
                                {}};
}

std::size_t LightningChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  channel::StorageMeter m;
  m.add_raw(36);  // funding outpoint
  // Latest own commit + counterparty's revealed secrets (O(n) term).
  m.add_tx(who == PartyId::kA ? commit_a_ : commit_b_);
  const auto& secrets = who == PartyId::kA ? secrets_of_b_ : secrets_of_a_;
  for (const Bytes& s : secrets) m.add_raw(s.size());
  m.add_raw(3 * (32 + 33));  // main/delayed/current-rev own keys
  m.add_raw(3 * 33);         // counterparty pubkeys
  return m.bytes();
}

const tx::Transaction& LightningChannel::latest_commit(PartyId who) const {
  return who == PartyId::kA ? commit_a_ : commit_b_;
}

const tx::Transaction& LightningChannel::archived_commit(PartyId owner,
                                                         std::uint32_t state) const {
  for (const CommitRecord& r : archive_) {
    if (r.owner == owner && r.state == state) return r.tx;
  }
  throw std::out_of_range("no archived commit");
}

const script::Script& LightningChannel::archived_to_local(PartyId owner,
                                                          std::uint32_t state) const {
  for (const CommitRecord& r : archive_) {
    if (r.owner == owner && r.state == state) return r.to_local;
  }
  throw std::out_of_range("no archived commit");
}

crypto::Scalar LightningChannel::revealed_secret(PartyId owner, std::uint32_t state) const {
  if (state >= sn_) throw std::logic_error("state not revoked yet");
  const auto& secrets = owner == PartyId::kA ? secrets_of_a_ : secrets_of_b_;
  return crypto::Scalar::from_be_bytes_reduce(secrets.at(state));
}

}  // namespace daric::lightning
