#include "src/lightning/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/crypto/sha256.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::lightning {

using script::SighashFlag;
using sim::PartyId;

LightningChannel::LightningChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "lightning") {
  const daricch::DaricKeys ka = daricch::DaricKeys::derive("A", params_.id + "/ln");
  const daricch::DaricKeys kb = daricch::DaricKeys::derive("B", params_.id + "/ln");
  pub_a_ = to_pub(ka);
  pub_b_ = to_pub(kb);
  main_a_ = crypto::derive_keypair(params_.id + "/ln/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/ln/B/main");
  delayed_a_ = crypto::derive_keypair(params_.id + "/ln/A/delayed");
  delayed_b_ = crypto::derive_keypair(params_.id + "/ln/B/delayed");
  env_.add_round_hook([this] { on_round(); });
}

crypto::KeyPair LightningChannel::revocation_keypair(PartyId owner, std::uint32_t state) const {
  // The per-commitment secret of `owner`'s commit #state; revealed to the
  // counterparty at revocation time.
  return crypto::derive_keypair(params_.id + "/ln/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state));
}

tx::Transaction LightningChannel::build_commit(PartyId owner, std::uint32_t state,
                                               const channel::StateVec& st,
                                               script::Script* to_local_out) const {
  const bool a = owner == PartyId::kA;
  const crypto::KeyPair rev = revocation_keypair(owner, state);
  const script::Script to_local =
      to_local_script(rev.pk.compressed(), static_cast<std::uint32_t>(params_.t_punish),
                      (a ? delayed_a_ : delayed_b_).pk.compressed());
  tx::Transaction t;
  t.inputs = {{fund_op_}};
  // Commitment number rides in nLockTime (BOLT 3 hides it there too; here
  // it doubles as the honest parties' state identifier).
  t.nlocktime = params_.s0 + state;
  t.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(to_local)},
               {a ? st.to_b : st.to_a, tx::Condition::p2wpkh(a ? pub_b_.main : pub_a_.main)}};
  for (const channel::Htlc& h : st.htlcs) {
    t.outputs.push_back(
        {h.cash, tx::Condition::p2wsh(daricch::htlc_script(h, pub_a_.main, pub_b_.main))});
  }
  if (to_local_out) *to_local_out = to_local;
  return t;
}

void LightningChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  // Each party generates its new per-commitment point (1 exponentiation) —
  // counted toward Table 3's Exp column.
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);

  commit_a_ = build_commit(PartyId::kA, state, st, &to_local_a_);
  commit_b_ = build_commit(PartyId::kB, state, st, &to_local_b_);
  // One digest cache per commit body, shared between the two signatures on
  // it and the verification below.
  const tx::SighashCache sh_a(commit_a_), sh_b(commit_b_);
  const Bytes sa_on_a = tx::sign_input(commit_a_, 0, main_a_, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sb_on_a = tx::sign_input(commit_a_, 0, main_b_, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sa_on_b = tx::sign_input(commit_b_, 0, main_a_, scheme, SighashFlag::kAll, &sh_b);
  const Bytes sb_on_b = tx::sign_input(commit_b_, 0, main_b_, scheme, SighashFlag::kAll, &sh_b);
  // Each party verifies the counterparty's signature on its own commit
  // (Table 3: 1 verification per party at m = 0).
  auto check = [&](const tx::SighashCache& sh, const crypto::Point& pk, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec || !scheme.verify(pk, sh.digest(0, SighashFlag::kAll), dec->raw))
      throw std::logic_error("counterparty signature invalid");
  };
  check(sh_a, main_b_.pk, sb_on_a);  // A checks B's sig on TX^A
  check(sh_b, main_a_.pk, sa_on_b);  // B checks A's sig on TX^B
  daricch::attach_funding_witness(commit_a_, 0, fund_script_, sa_on_a, sb_on_a);
  daricch::attach_funding_witness(commit_b_, 0, fund_script_, sa_on_b, sb_on_b);
  archive_.push_back({commit_a_, to_local_a_, PartyId::kA, state});
  archive_.push_back({commit_b_, to_local_b_, PartyId::kB, state});
}

bool LightningChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "ln/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
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
  secrets_of_a_.push_back(revocation_keypair(PartyId::kA, sn_).sk.to_be_bytes());
  secrets_of_b_.push_back(revocation_keypair(PartyId::kB, sn_).sk.to_be_bytes());
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

bool LightningChannel::cooperative_close(PartyId initiator) {
  require_open();
  const auto& scheme = env_.scheme();
  tx::Transaction close = daricch::gen_fin_split(fund_op_, st_, pub_a_, pub_b_);
  const tx::SighashCache sh_close(close);
  const Bytes sa = tx::sign_input(close, 0, main_a_, scheme, SighashFlag::kAll, &sh_close);
  const Bytes sb = tx::sign_input(close, 0, main_b_, scheme, SighashFlag::kAll, &sh_close);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  return post_cooperative_close(initiator, "ln/close", close);
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
      tx::Transaction sweep;
      sweep.inputs = {{pending_sweep_->to_local_op}};
      sweep.nlocktime = 0;
      const bool a = pending_sweep_->owner == PartyId::kA;
      sweep.outputs = {{pending_sweep_->cash, tx::Condition::p2wpkh(a ? pub_a_.main : pub_b_.main)}};
      const Bytes sig = tx::sign_input(sweep, 0, (a ? delayed_a_ : delayed_b_).sk, scheme,
                                       SighashFlag::kAll);
      sweep.witnesses.resize(1);
      sweep.witnesses[0].stack = {sig, Bytes{}};  // ELSE (delayed) branch
      sweep.witnesses[0].witness_script = pending_sweep_->script;
      observe_weight(sweep);
      note_phase(sim::party_name(pending_sweep_->owner), "sweep_posted");
      ledger.post(sweep);
      pending_sweep_->posted = true;
      pending_sweep_->txid = sweep.txid();
    } else if (pending_sweep_->posted && ledger.is_confirmed(pending_sweep_->txid)) {
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
    const crypto::KeyPair rev = revocation_keypair(rec->owner, rec->state);
    const bool victim_is_a = rec->owner == PartyId::kB;
    tx::Transaction claim;
    claim.inputs = {{{id, 0}}};
    claim.nlocktime = 0;
    claim.outputs = {{rec->tx.outputs[0].cash,
                      tx::Condition::p2wpkh(victim_is_a ? pub_a_.main : pub_b_.main)}};
    const Bytes sig = tx::sign_input(claim, 0, rev.sk, env_.scheme(), SighashFlag::kAll);
    claim.witnesses.resize(1);
    claim.witnesses[0].stack = {sig, Bytes{1}};  // IF (revocation) branch
    claim.witnesses[0].witness_script = rec->to_local;
    observe_weight(claim);
    note_punish(victim_is_a ? PartyId::kA : PartyId::kB, rec->state, sn_);
    ledger.post(claim);
    pending_claim_txid_ = claim.txid();
    return;
  }

  // Latest commitment: owner sweeps its to_local after the CSV delay.
  const auto conf = ledger.confirmation_round(id);
  pending_sweep_ = PendingSweep{{id, 0},
                                rec->to_local,
                                rec->owner,
                                rec->tx.outputs[0].cash,
                                (conf ? *conf : env_.now()) + params_.t_punish,
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
