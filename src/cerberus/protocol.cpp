#include "src/cerberus/protocol.h"

#include <algorithm>
#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"

namespace daric::cerberus {

using script::SighashFlag;
using sim::PartyId;

script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk) {
  script::Script s;
  s.op(script::Op::OP_IF)
      .small_int(2)
      .push(rev1)
      .push(rev2)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ELSE)
      .num4(csv)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .push(delayed_pk)
      .op(script::Op::OP_CHECKSIG)
      .op(script::Op::OP_ENDIF);
  return s;
}

// --- Watchtower ------------------------------------------------------------

void CerberusWatchtower::on_round(ledger::Ledger& l) {
  if (reacted_) return;
  const auto spender = l.spender_of(fund_op_);
  if (!spender) return;
  const Hash256 id = spender->txid();
  for (const RevocationPackage& pkg : packages_) {
    if (pkg.revoked_commit_txid == id) {
      l.post(pkg.revocation);
      reacted_ = true;
      return;
    }
  }
}

std::size_t CerberusWatchtower::storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36);
  for (const RevocationPackage& pkg : packages_) {
    m.add_raw(32);
    m.add_tx(pkg.revocation);
  }
  return m.bytes();
}

// --- Channel ----------------------------------------------------------------

CerberusChannel::CerberusChannel(sim::Environment& env, channel::ChannelParams params,
                                 Amount tower_reward)
    : Engine(env, std::move(params), "cerberus"), tower_reward_(tower_reward) {
  if (tower_reward_ <= 0 || tower_reward_ >= params_.capacity())
    throw std::invalid_argument("tower reward must be positive and below the capacity");
  const daricch::DaricKeys ka = daricch::DaricKeys::derive("A", params_.id + "/cb");
  const daricch::DaricKeys kb = daricch::DaricKeys::derive("B", params_.id + "/cb");
  pub_a_ = to_pub(ka);
  pub_b_ = to_pub(kb);
  main_a_ = crypto::derive_keypair(params_.id + "/cb/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/cb/B/main");
  delayed_a_ = crypto::derive_keypair(params_.id + "/cb/A/delayed");
  delayed_b_ = crypto::derive_keypair(params_.id + "/cb/B/delayed");
  tower_key_ = crypto::derive_keypair(params_.id + "/cb/tower");
  env_.add_round_hook([this] { on_round(); });
  env_.add_round_hook([this] { tower_a_.on_round(env_.ledger()); });
  env_.add_round_hook([this] { tower_b_.on_round(env_.ledger()); });
}

crypto::KeyPair CerberusChannel::rev_keypair(PartyId owner, std::uint32_t state,
                                             int leg) const {
  return crypto::derive_keypair(params_.id + "/cb/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state) + "/" + std::to_string(leg));
}

tx::Transaction CerberusChannel::build_commit(PartyId owner, std::uint32_t state,
                                              const channel::StateVec& st, script::Script* s0,
                                              script::Script* s1) const {
  const bool a = owner == PartyId::kA;
  const auto csv = static_cast<std::uint32_t>(params_.t_punish);
  // Both outputs carry a revocation path (H.6's two-P2WSH-output commit).
  const script::Script local =
      cerberus_output_script(rev_keypair(owner, state, 0).pk.compressed(),
                             rev_keypair(owner, state, 1).pk.compressed(), csv,
                             (a ? delayed_a_ : delayed_b_).pk.compressed());
  const script::Script remote =
      cerberus_output_script(rev_keypair(owner, state, 2).pk.compressed(),
                             rev_keypair(owner, state, 3).pk.compressed(), csv,
                             (a ? delayed_b_ : delayed_a_).pk.compressed());
  tx::Transaction t;
  t.inputs = {{fund_op_}};
  t.nlocktime = params_.s0 + state;
  t.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(local)},
               {a ? st.to_b : st.to_a, tx::Condition::p2wsh(remote)}};
  if (s0) *s0 = local;
  if (s1) *s1 = remote;
  return t;
}

tx::Transaction CerberusChannel::build_revocation(const CommitRecord& rec,
                                                  PartyId victim) const {
  // Claims both commit outputs: (capacity − reward) to the victim, the
  // reward to the watchtower — the incentive that keeps the tower honest.
  tx::Transaction t;
  const Hash256 id = rec.tx.txid();
  t.inputs = {{{id, 0}}, {{id, 1}}};
  t.nlocktime = 0;
  t.outputs = {{params_.capacity() - tower_reward_,
                tx::Condition::p2wpkh(victim == PartyId::kA ? pub_a_.main : pub_b_.main)},
               {tower_reward_, tx::Condition::p2wpkh(tower_key_.pk.compressed())}};
  t.witnesses.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    const int leg = static_cast<int>(i) * 2;
    const Bytes sig1 = tx::sign_input(t, i, rev_keypair(rec.owner, rec.state, leg).sk,
                                      env_.scheme(), SighashFlag::kAll);
    const Bytes sig2 = tx::sign_input(t, i, rev_keypair(rec.owner, rec.state, leg + 1).sk,
                                      env_.scheme(), SighashFlag::kAll);
    t.witnesses[i].stack = {Bytes{}, sig1, sig2, Bytes{1}};  // revocation branch
    t.witnesses[i].witness_script = i == 0 ? rec.out0_script : rec.out1_script;
  }
  return t;
}

void CerberusChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  script::Script a0, a1, b0, b1;
  commit_a_ = build_commit(PartyId::kA, state, st, &a0, &a1);
  commit_b_ = build_commit(PartyId::kB, state, st, &b0, &b1);
  const Bytes sa_on_a = tx::sign_input(commit_a_, 0, main_a_.sk, scheme, SighashFlag::kAll);
  const Bytes sb_on_a = tx::sign_input(commit_a_, 0, main_b_.sk, scheme, SighashFlag::kAll);
  const Bytes sa_on_b = tx::sign_input(commit_b_, 0, main_a_.sk, scheme, SighashFlag::kAll);
  const Bytes sb_on_b = tx::sign_input(commit_b_, 0, main_b_.sk, scheme, SighashFlag::kAll);
  daricch::attach_funding_witness(commit_a_, 0, fund_script_, sa_on_a, sb_on_a);
  daricch::attach_funding_witness(commit_b_, 0, fund_script_, sa_on_b, sb_on_b);
  archive_.push_back({commit_a_, a0, a1, PartyId::kA, state});
  archive_.push_back({commit_b_, b0, b1, PartyId::kB, state});
}

bool CerberusChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
  tower_a_ = CerberusWatchtower(fund_op_);
  tower_b_ = CerberusWatchtower(fund_op_);
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  if (send_reliable(PartyId::kA, "cb/create") == 0) return false;
  sign_state(0, st_);
  open_ = true;
  note_opened();
  return true;
}

bool CerberusChannel::update(const channel::StateVec& next) {
  OBS_SPAN("cerberus.update.total");
  check_next_state(next, tower_reward_ + 1);  // balances must exceed the tower reward
  if (send_or_close(PartyId::kA, "cb/commit-sig") == 0) return false;
  if (send_or_close(PartyId::kB, "cb/revocation-sig") == 0) return false;
  // Revoke the *current* state: both parties co-sign the revocation txs
  // for both old commits and hand them to the victims' towers.
  const std::uint32_t old = sn_;
  for (const CommitRecord& rec : archive_) {
    if (rec.state != old) continue;
    const PartyId victim = other(rec.owner);
    const tx::Transaction rv = build_revocation(rec, victim);
    (victim == PartyId::kA ? revocations_held_by_a_ : revocations_held_by_b_).push_back(rv);
    tower(victim).add_package({rec.tx.txid(), rv});
  }
  sign_state(old + 1, next);
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

bool CerberusChannel::cooperative_close(PartyId initiator) {
  require_open();
  const auto& scheme = env_.scheme();
  tx::Transaction close = daricch::gen_fin_split(fund_op_, st_, pub_a_, pub_b_);
  const Bytes sa = tx::sign_input(close, 0, main_a_.sk, scheme, SighashFlag::kAll);
  const Bytes sb = tx::sign_input(close, 0, main_b_.sk, scheme, SighashFlag::kAll);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  return post_cooperative_close(initiator, "cb/close", close);
}

void CerberusChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction& cm = who == PartyId::kA ? commit_a_ : commit_b_;
  observe_weight(cm);
  note_force_close(who, sn_);
  env_.ledger().post(cm);
}

void CerberusChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  for (const CommitRecord& r : archive_) {
    if (r.owner == who && r.state == state) {
      observe_weight(r.tx);
      note_dispute(who, state);
      env_.ledger().post(r.tx);
      return;
    }
  }
  throw std::out_of_range("no archived commit");
}

void CerberusChannel::on_round() {
  if (!monitoring()) return;
  auto& ledger = env_.ledger();

  if (!sweeps_.empty()) {
    if (!sweeps_posted_ && env_.now() >= sweep_round_) {
      for (PendingSweep& sw : sweeps_) {
        tx::Transaction sweep;
        sweep.inputs = {{sw.op}};
        sweep.nlocktime = 0;
        const bool a = sw.owner == PartyId::kA;
        sweep.outputs = {{sw.cash, tx::Condition::p2wpkh(a ? pub_a_.main : pub_b_.main)}};
        const Bytes sig = tx::sign_input(sweep, 0, (a ? delayed_a_ : delayed_b_).sk,
                                         env_.scheme(), SighashFlag::kAll);
        sweep.witnesses.resize(1);
        sweep.witnesses[0].stack = {sig, Bytes{}};
        sweep.witnesses[0].witness_script = sw.script;
        ledger.post(sweep);
        sw.txid = sweep.txid();
      }
      sweeps_posted_ = true;
    } else if (sweeps_posted_ &&
               std::all_of(sweeps_.begin(), sweeps_.end(), [&](const PendingSweep& sw) {
                 return ledger.is_confirmed(sw.txid);
               })) {
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
    // Revoked: the tower posts the pre-signed revocation; the channel is
    // punished once it confirms (spender_of sees only confirmed spends).
    if (ledger.spender_of({id, 0})) {
      note_punish(other(rec->owner), rec->state, sn_);
      close_as(channel::Outcome::kPunished);
    }
    return;
  }
  // Latest commit: after T, the owner sweeps its local output 0 and the
  // counterparty its output 1, each with its own delayed key.
  const auto conf = ledger.confirmation_round(id);
  sweep_round_ = (conf ? *conf : env_.now()) + params_.t_punish;
  sweeps_ = {{{id, 0}, rec->out0_script, rec->owner, rec->tx.outputs[0].cash, {}},
             {{id, 1}, rec->out1_script, other(rec->owner), rec->tx.outputs[1].cash, {}}};
}

std::size_t CerberusChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(who == PartyId::kA ? commit_a_ : commit_b_);
  const auto& revs = who == PartyId::kA ? revocations_held_by_a_ : revocations_held_by_b_;
  for (const tx::Transaction& t : revs) m.add_tx(t);
  m.add_raw(3 * (32 + 33) + 3 * 33);
  return m.bytes();
}

}  // namespace daric::cerberus
