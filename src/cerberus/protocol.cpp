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

// --- Watchtower ------------------------------------------------------------

void CerberusWatchtower::on_round(ledger::Ledger& l) {
  if (reacted_) return;
  const ledger::AcceptedTx* spender = l.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();
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
    : Engine(env, std::move(params), "cerberus"),
      tower_reward_(tower_reward),
      keys_(derive_keys(params_.id)) {
  if (tower_reward_ <= 0 || tower_reward_ >= params_.capacity())
    throw std::invalid_argument("tower reward must be positive and below the capacity");
  env_.add_round_hook([this] { on_round(); });
  env_.add_round_hook([this] { tower_a_.on_round(env_.ledger()); });
  env_.add_round_hook([this] { tower_b_.on_round(env_.ledger()); });
}

tx::Transaction CerberusChannel::sign_revocation(const CommitRecord& rec, PartyId victim) const {
  const Commit& c = rec.commit;
  tx::Transaction t = revocation_body(params_, keys_, c.body.txid(), victim, tower_reward_);
  t.witnesses.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    const int leg = static_cast<int>(i) * 2;
    const Bytes sig1 =
        tx::sign_input(t, i, revocation_keypair(params_.id, rec.owner, rec.state, leg).sk,
                       env_.scheme(), SighashFlag::kAll);
    const Bytes sig2 =
        tx::sign_input(t, i, revocation_keypair(params_.id, rec.owner, rec.state, leg + 1).sk,
                       env_.scheme(), SighashFlag::kAll);
    t.witnesses[i].stack = {Bytes{}, sig1, sig2, Bytes{1}};  // revocation branch
    t.witnesses[i].witness_script = i == 0 ? c.local : c.remote;
  }
  return t;
}

void CerberusChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  Commit ca = build_commit(params_, keys_, fund_op_, PartyId::kA, state, st);
  Commit cb = build_commit(params_, keys_, fund_op_, PartyId::kB, state, st);
  const crypto::Scalar& sk_a = keys_.a.main.sk;
  const crypto::Scalar& sk_b = keys_.b.main.sk;
  const Bytes sa_on_a = tx::sign_input(ca.body, 0, sk_a, scheme, SighashFlag::kAll);
  const Bytes sb_on_a = tx::sign_input(ca.body, 0, sk_b, scheme, SighashFlag::kAll);
  const Bytes sa_on_b = tx::sign_input(cb.body, 0, sk_a, scheme, SighashFlag::kAll);
  const Bytes sb_on_b = tx::sign_input(cb.body, 0, sk_b, scheme, SighashFlag::kAll);
  daricch::attach_funding_witness(ca.body, 0, fund_script_, sa_on_a, sb_on_a);
  daricch::attach_funding_witness(cb.body, 0, fund_script_, sa_on_b, sb_on_b);
  commit_a_ = ca.body;
  commit_b_ = cb.body;
  archive_.push_back({std::move(ca), PartyId::kA, state});
  archive_.push_back({std::move(cb), PartyId::kB, state});
}

bool CerberusChannel::create() {
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  if (!mint_funding("cb/create", funding_script(keys_), params_.capacity())) return false;
  tower_a_ = CerberusWatchtower(fund_op_);
  tower_b_ = CerberusWatchtower(fund_op_);
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
    const tx::Transaction rv = sign_revocation(rec, victim);
    (victim == PartyId::kA ? revocations_held_by_a_ : revocations_held_by_b_).push_back(rv);
    tower(victim).add_package({rec.commit.body.txid(), rv});
  }
  sign_state(old + 1, next);
  ++sn_;
  st_ = next;
  note_updated({});
  return true;
}

bool CerberusChannel::cooperative_close(PartyId initiator) {
  return close_2of2(initiator, "cb/close",
                    daricch::gen_fin_split(fund_op_, st_, keys_.a.payout, keys_.b.payout),
                    keys_.a.main.sk, keys_.b.main.sk);
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
      observe_weight(r.commit.body);
      note_dispute(who, state);
      env_.ledger().post(r.commit.body);
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
        const PartyKeys& owner = keys_.of(sw.owner);
        tx::Transaction sweep = daricch::gen_sweep(sw.op, sw.cash, owner.payout);
        const Bytes sig =
            tx::sign_input(sweep, 0, owner.delayed.sk, env_.scheme(), SighashFlag::kAll);
        sweep.witnesses.resize(1);
        sweep.witnesses[0].stack = {sig, Bytes{}};
        sweep.witnesses[0].witness_script = sw.script;
        sw.txid = ledger.post(sweep);
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

  const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();
  if (coop_close_txid_ == id) {
    close_as(channel::Outcome::kCooperative);
    return;
  }
  const CommitRecord* rec = nullptr;
  for (const CommitRecord& r : archive_) {
    if (r.commit.body.txid() == id) {
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
  sweep_round_ = spender->round() + params_.t_punish;
  const Commit& c = rec->commit;
  sweeps_ = {{{id, 0}, c.local, rec->owner, c.body.outputs[0].cash, {}},
             {{id, 1}, c.remote, other(rec->owner), c.body.outputs[1].cash, {}}};
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
