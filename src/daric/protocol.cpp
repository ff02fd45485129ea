#include "src/daric/protocol.h"

#include "src/channel/storage.h"

#include <stdexcept>

#include "src/daric/fees.h"
#include "src/obs/event.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace daric::daricch {

using script::SighashFlag;
using sim::PartyId;

namespace {

/// Verifies a wire signature against a precomputed counterparty key, reusing
/// `cache`'s digest for the body it was built over. False on a malformed
/// signature or a flag mismatch too.
bool verify_wire_cached(const tx::SighashCache& cache, SighashFlag flag,
                        const crypto::PrecomputedPoint& pre, BytesView wire,
                        const crypto::SignatureScheme& scheme) {
  const auto decoded = script::decode_wire_sig(wire, scheme.signature_size());
  if (!decoded || decoded->flag != flag) return false;
  return scheme.verify_cached(pre, cache.digest(0, flag), decoded->raw);
}

}  // namespace

// ---------------------------------------------------------------------------
// DaricParty
// ---------------------------------------------------------------------------

DaricParty::DaricParty(DaricChannel& ch, PartyId id, const channel::ChannelParams& params,
                       sim::Environment& env, crypto::KeyPair funding_key, Amount funding_cash)
    : ch_(ch),
      id_(id),
      params_(params),
      env_(env),
      funding_key_(std::move(funding_key)),
      funding_source_(env.ledger().mint(funding_cash,
                                        tx::Condition::p2wpkh(funding_key_.pk.compressed()))),
      keys_(DaricKeys::derive(sim::party_name(id), params.id)),
      pub_own_(to_pub(keys_)) {}

std::size_t DaricParty::storage_bytes() const {
  if (!open_) return 0;
  channel::StorageMeter m;
  m.add_tx(tx_fu_);
  m.add_tx(cm_own_);
  m.add_tx(cm_other_body_);
  m.add_tx(split_.body);
  m.add_signature();  // split_.sig_a
  m.add_signature();  // split_.sig_b
  if (!theta_sig_.empty()) m.add_signature();
  // Own four keypairs and the counterparty's four public keys.
  m.add_raw(4 * (32 + 33) + 4 * 33);
  if (flag_ == channel::ChannelFlag::kUpdating) {
    if (cm_own_new_) m.add_tx(*cm_own_new_);
    m.add_tx(cm_other_new_body_);
    m.add_tx(split_new_.body);
    m.add_signature();
    m.add_signature();
  }
  return m.bytes();
}

namespace {
SighashFlag revocation_flag(const channel::ChannelParams& p) {
  return p.feeable_revocations ? SighashFlag::kSingleAnyPrevOut
                               : SighashFlag::kAllAnyPrevOut;
}
}  // namespace

Bytes DaricParty::sign_own_revocation(const tx::Transaction& body) const {
  const SighashFlag flag = revocation_flag(params_);
  const Hash256 digest = tx::sighash_digest(body, 0, flag);
  if (own_rv_sig_.wire.empty() || own_rv_sig_.digest != digest) {
    // TX^A_RV spends TX^B_CM (rv2 keys); TX^B_RV spends TX^A_CM (rv keys).
    const crypto::KeyPair& kp = id_ == PartyId::kA ? keys_.rv2 : keys_.rv;
    own_rv_sig_ = {digest, script::encode_wire_sig(env_.scheme().sign_with(kp, digest), flag)};
  }
  return own_rv_sig_.wire;
}

const crypto::PrecomputedPoint& DaricParty::peer_table(PeerKey key) const {
  std::optional<crypto::PrecomputedPoint>& table = peer_[static_cast<std::size_t>(key)];
  if (!table) {
    // TX^A_RV is guarded by rv2 keys, TX^B_RV by rv keys (Appendix B).
    const Bytes& pk33 = key == PeerKey::kMain ? pub_other_.main
                        : key == PeerKey::kSp ? pub_other_.sp
                        : id_ == PartyId::kA  ? pub_other_.rv2
                                              : pub_other_.rv;
    const auto p = crypto::Point::from_compressed(pk33);
    if (!p) throw std::logic_error("counterparty public key is not on the curve");
    table.emplace(*p);
  }
  return *table;
}

void DaricParty::set_fee_source(const FeeSource& source, Amount fee) {
  if (!params_.feeable_revocations)
    throw std::logic_error("fee bumping needs params.feeable_revocations");
  fee_outpoint_value_ = {source.outpoint, source.value};
  fee_key_ = source.key;
  punish_fee_ = fee;
}

void DaricParty::commit_to_published_split(const ledger::AcceptedTx& commit,
                                           const FloatingSplit& split,
                                           const script::Script& commit_scr) {
  tx::Transaction bound = split.body;
  bind_floating(bound, {commit.txid(), 0});
  attach_split_witness(bound, 0, commit_scr, split.sig_a, split.sig_b);
  pending_split_ = PendingSplit{std::move(bound), commit.round() + params_.t_punish, false, {}};
}

void DaricParty::punish(const Hash256& commit_txid, const CommitMatch& match) {
  tx::Transaction rv = gen_revoke(pub_own_.main, params_.capacity(), sn_ - 1, params_);
  bind_floating(rv, {commit_txid, 0});
  const Bytes own = sign_own_revocation(rv);
  if (id_ == PartyId::kA) {
    attach_revoke_witness(rv, 0, match.script, own, theta_sig_);  // [rv2_A, rv2_B]
  } else {
    attach_revoke_witness(rv, 0, match.script, theta_sig_, own);  // [rv_A, rv_B]
  }
  if (fee_outpoint_value_ && fee_key_) {
    attach_fee(rv, {fee_outpoint_value_->first, fee_outpoint_value_->second, *fee_key_},
               punish_fee_, env_.scheme());
  }
  pending_revocation_txid_ = env_.ledger().post(rv);
  ch_.observe_weight(rv);
  ch_.note_punish(id_, match.state, sn_);
}

void DaricParty::close_with(CloseOutcome outcome, Round round) {
  outcome_ = outcome;
  closed_round_ = round;
  open_ = false;
  ch_.emit_closed(sim::party_name(id_), outcome_);
  if (durability_) durability_->closed(*this);
}

void DaricParty::set_online(bool online) {
  online_ = online;
  refresh_wake();
}

bool DaricParty::idle() const {
  if (!open_) return true;
  // The funding output confirmed before open_ was set, so "still unspent"
  // and "no spender" coincide; is_unspent is the cheap lookup.
  return online_ && offline_gap_ == 0 && !pending_revocation_txid_ && !pending_split_ &&
         env_.ledger().is_unspent(fund_op_);
}

void DaricParty::refresh_wake() { env_.set_hook_awake(hook_, !idle()); }

void DaricParty::on_round() {
  monitor();
  refresh_wake();
}

void DaricParty::monitor() {
  if (!open_) return;
  if (!online_) {
    // Theorem 1 accounting: every missed monitor round widens the gap the
    // T−Δ bound must cover.
    ++missed_rounds_;
    ++offline_gap_;
    if (offline_gap_ > max_gap_) max_gap_ = offline_gap_;
    return;
  }
  offline_gap_ = 0;
  auto& ledger = env_.ledger();

  if (pending_revocation_txid_) {
    if (ledger.is_confirmed(*pending_revocation_txid_)) close_with(CloseOutcome::kPunished, env_.now());
    return;
  }

  if (pending_split_) {
    if (!pending_split_->posted && env_.now() >= pending_split_->post_round) {
      pending_split_->txid = ledger.post(pending_split_->bound);
      pending_split_->posted = true;
      ch_.observe_weight(pending_split_->bound);
      ch_.note_phase(sim::party_name(id_), "split_posted");
    } else if (pending_split_->posted && ledger.is_confirmed(pending_split_->txid)) {
      close_with(CloseOutcome::kNonCollaborative, env_.now());
    }
    return;
  }

  const ledger::AcceptedTx* spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();

  if (expected_coop_txid_ && id == *expected_coop_txid_) {
    close_with(CloseOutcome::kCooperative, env_.now());
    return;
  }

  // Appendix D Punish: is the spender in the allowed set I? Commit i has
  // nLT = S0 + i, so only a commit with the spender's nLockTime can share
  // its txid, and the others are not hashed.
  const auto published = [&](const tx::Transaction& commit) {
    return commit.nlocktime == spender->tx().nlocktime && commit.txid() == id;
  };
  if (published(cm_own_)) {
    commit_to_published_split(*spender, split_, cm_own_script_);
    return;
  }
  if (published(cm_other_body_)) {
    commit_to_published_split(*spender, split_, cm_other_script_);
    return;
  }
  if (flag_ == channel::ChannelFlag::kUpdating) {
    if (cm_own_new_ && published(*cm_own_new_)) {
      commit_to_published_split(*spender, split_new_, cm_own_new_script_);
      return;
    }
    if (published(cm_other_new_body_)) {
      commit_to_published_split(*spender, split_new_, cm_other_new_script_);
      return;
    }
  }

  // Not in I: if it is a counterparty commit Θ revokes (state < sn), punish
  // instantly.
  if (sn_ > 0 && !theta_sig_.empty()) {
    const DaricPubKeys& pa = id_ == PartyId::kA ? pub_own_ : pub_other_;
    const DaricPubKeys& pb = id_ == PartyId::kA ? pub_other_ : pub_own_;
    if (const auto match = match_counterparty_commit(spender->tx(), id_, pa, pb, params_.s0,
                                                     params_.t_punish, sn_ - 1)) {
      punish(id, *match);
      return;
    }
  }
  // A commit this party can neither split nor punish: its own revoked
  // commit, its own Γ′ commit force-closed but never persisted before a
  // crash, or a counterparty commit at or above Θ's coverage. Whoever holds
  // that commit's split or revocation spends its output, and the channel
  // resolves then: punished if the spend took the revocation branch.
  if (const ledger::AcceptedTx* out = ledger.spender_of({id, 0}))
    close_with(takes_revocation_branch(out->tx()) ? CloseOutcome::kPunished
                                                  : CloseOutcome::kNonCollaborative,
               env_.now());
}

void DaricParty::force_close() {
  if (!open_) return;
  const bool use_new = flag_ == channel::ChannelFlag::kUpdating && cm_own_new_.has_value();
  const tx::Transaction& cm = use_new ? *cm_own_new_ : cm_own_;
  ch_.observe_weight(cm);
  ch_.note_force_close(id_, use_new ? sn_ + 1 : sn_);
  env_.ledger().post(cm);
  // The Punish monitor picks it up once confirmed and schedules the split.
}

// ---------------------------------------------------------------------------
// DaricChannel
// ---------------------------------------------------------------------------

DaricChannel::DaricChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, std::move(params), "daric"),
      a_(*this, PartyId::kA, params_, env, funding_source_keypair(params_.id, PartyId::kA),
         params_.cash_a),
      b_(*this, PartyId::kB, params_, env, funding_source_keypair(params_.id, PartyId::kB),
         params_.cash_b),
      tcache_(params_, a_.pub_own_, b_.pub_own_) {
  a_.hook_ = env_.add_round_hook([this] { a_.on_round(); });
  b_.hook_ = env_.add_round_hook([this] { b_.on_round(); });
}

bool DaricChannel::create() {
  const auto& scheme = env_.scheme();
  const Amount cash = params_.capacity();

  // Step 1: createInfo in both directions (one message round). A timeout
  // before the funding transaction exists simply abandons the channel.
  if (send_reliable(PartyId::kA, "createInfo") == 0) return false;
  a_.pub_other_ = b_.pub_own_;
  b_.pub_other_ = a_.pub_own_;

  // Step 2: both construct the funding, commit and split bodies (template
  // skeletons: create seeds the caches that update() then patches).
  const FundingTemplate fund =
      gen_fund(a_.funding_source_, b_.funding_source_, cash, a_.pub_own_, b_.pub_own_);
  const tx::OutPoint fund_op = fund.output();
  const CommitPair& commits = tcache_.commit(fund_op, cash, 0);
  const channel::StateVec st0{params_.cash_a, params_.cash_b, {}};
  const tx::Transaction& split0 = tcache_.split(st0, 0);
  tx::SighashCache sh_split(split0), sh_cm_a(commits.body_a), sh_cm_b(commits.body_b);

  // Step 3: createCom — exchange split (ANYPREVOUT) and cross-commit sigs.
  if (send_reliable(PartyId::kA, "createCom") == 0) return false;
  const Bytes sp_sig_a =
      tx::sign_input(split0, 0, a_.keys_.sp, scheme, SighashFlag::kAllAnyPrevOut, &sh_split);
  const Bytes sp_sig_b =
      tx::sign_input(split0, 0, b_.keys_.sp, scheme, SighashFlag::kAllAnyPrevOut, &sh_split);
  const Bytes cm_b_sig_a =  // A's signature on [TX^B_CM,0]
      tx::sign_input(commits.body_b, 0, a_.keys_.main, scheme, SighashFlag::kAll, &sh_cm_b);
  const Bytes cm_a_sig_b =  // B's signature on [TX^A_CM,0]
      tx::sign_input(commits.body_a, 0, b_.keys_.main, scheme, SighashFlag::kAll, &sh_cm_a);

  // Step 4: both verify what they received.
  using enum DaricParty::PeerKey;
  if (!verify_wire_cached(sh_split, SighashFlag::kAllAnyPrevOut, a_.peer_table(kSp), sp_sig_b,
                          scheme) ||
      !verify_wire_cached(sh_cm_a, SighashFlag::kAll, a_.peer_table(kMain), cm_a_sig_b, scheme))
    return false;
  if (!verify_wire_cached(sh_split, SighashFlag::kAllAnyPrevOut, b_.peer_table(kSp), sp_sig_a,
                          scheme) ||
      !verify_wire_cached(sh_cm_b, SighashFlag::kAll, b_.peer_table(kMain), cm_b_sig_a, scheme))
    return false;

  // Step 5: exchange funding signatures and post TX_FU.
  if (send_reliable(PartyId::kA, "createFund") == 0) return false;
  tx::Transaction tx_fu = fund.body;
  // Each input is a P2WPKH funding source: input 0 = A's, input 1 = B's.
  // The ALL-family digest is input-index independent, so one cache serves
  // both signatures (attached witnesses are outside the base serialization).
  tx::SighashCache sh_fu(tx_fu);
  attach_p2wpkh_witness(
      tx_fu, 0, tx::sign_input(tx_fu, 0, a_.funding_key_, scheme, SighashFlag::kAll, &sh_fu),
      a_.funding_key_.pk.compressed());
  attach_p2wpkh_witness(
      tx_fu, 1, tx::sign_input(tx_fu, 1, b_.funding_key_, scheme, SighashFlag::kAll, &sh_fu),
      b_.funding_key_.pk.compressed());
  const Hash256 fu_id = env_.ledger().post(tx_fu);

  // Step 6: wait ≤ Δ for confirmation, then finalize both Γ stores.
  for (Round r = 0; r <= env_.delta() + 1 && !env_.ledger().is_confirmed(fu_id); ++r)
    env_.advance_round();
  if (!env_.ledger().is_confirmed(fu_id)) return false;

  auto finalize = [&](DaricParty& p, const tx::Transaction& body_own,
                      const script::Script& script_own, const tx::Transaction& body_other,
                      const script::Script& script_other, const Bytes& own_commit_counter_sig,
                      const tx::SighashCache& sh_own) {
    p.tx_fu_ = tx_fu;
    p.fund_op_ = fund_op;
    p.fund_script_ = fund.fund_script;
    p.cm_own_ = body_own;
    const Bytes own_sig =
        tx::sign_input(body_own, 0, p.keys_.main, scheme, SighashFlag::kAll, &sh_own);
    const Bytes& sig_a = p.id_ == PartyId::kA ? own_sig : own_commit_counter_sig;
    const Bytes& sig_b = p.id_ == PartyId::kA ? own_commit_counter_sig : own_sig;
    attach_funding_witness(p.cm_own_, 0, fund.fund_script, sig_a, sig_b);
    p.cm_own_script_ = script_own;
    p.cm_other_body_ = body_other;
    p.cm_other_script_ = script_other;
    p.split_ = {split0, sp_sig_a, sp_sig_b};
    p.st_ = st0;
    p.sn_ = 0;
    p.flag_ = channel::ChannelFlag::kStable;
    p.theta_sig_.clear();
    p.open_ = true;
    env_.watch_spend(p.hook_, fund_op);
    p.refresh_wake();
  };
  finalize(a_, commits.body_a, commits.script_a, commits.body_b, commits.script_b, cm_a_sig_b,
           sh_cm_a);
  finalize(b_, commits.body_b, commits.script_b, commits.body_a, commits.script_a, cm_b_sig_a,
           sh_cm_b);
  if (a_.durability_) a_.durability_->persist(a_);
  if (b_.durability_) b_.durability_->persist(b_);
  archive_a_.push_back(a_.cm_own_);
  archive_b_.push_back(b_.cm_own_);
  archive_splits_.push_back({split0, sp_sig_a, sp_sig_b, commits.script_a, commits.script_b});
  observe_weight(tx_fu);
  note_opened();
  return true;
}

bool DaricChannel::update(const channel::StateVec& next, PartyId proposer) {
  check_next_state(next, params_.min_balance());
  if (a_.flag_ != channel::ChannelFlag::kStable) throw std::logic_error("update in flight");

  OBS_SPAN("daric.update.total");
  const auto& scheme = env_.scheme();
  DaricParty& p = party(proposer);
  DaricParty& q = party(other(proposer));
  const std::uint32_t i = a_.sn_;
  const Amount cash = params_.capacity();

  // Phase timers for the update pipeline (span.h taxonomy). Each wrapper
  // times one operation; all of them vanish to a relaxed load when spans
  // are disabled. A cache hashes its body's digest for the flag the body is
  // signed under inside its span, so the signs and verifies that read it
  // later time only the curve work.
  auto timed_cache = [](const tx::Transaction& body, SighashFlag flag) {
    OBS_SPAN("daric.update.sighash");
    tx::SighashCache cache(body);
    cache.digest(0, flag);
    return cache;
  };
  auto timed_sign = [&scheme](const tx::Transaction& body, const crypto::KeyPair& kp,
                              SighashFlag flag, const tx::SighashCache* cache) {
    OBS_SPAN("daric.update.sign");
    return tx::sign_input(body, 0, kp, scheme, flag, cache);
  };
  auto timed_verify = [&scheme](const tx::SighashCache& cache, SighashFlag flag,
                                const crypto::PrecomputedPoint& pre, BytesView wire) {
    OBS_SPAN("daric.update.verify");
    return verify_wire_cached(cache, flag, pre, wire, scheme);
  };
  using enum DaricParty::PeerKey;

  note_phase(sim::party_name(proposer), "updating", i + 1);

  // Injected misbehaviour: `silent` goes quiet before sending message `msg`.
  auto silent_before = [](const DaricParty& silent, int msg) {
    return silent.behavior.abort_update_before_msg == msg;
  };

  // Message 1: updateReq (P → Q). No receiver state is mutated yet, so a
  // duplicate delivery is a no-op; a timeout aborts to force-close.
  if (silent_before(p, 1)) return abort_to(q.id_);
  if (send_or_close(p.id_, "updateReq") == 0) return false;

  // Q builds the new bodies and its ANYPREVOUT split signature. The bodies
  // are patched template skeletons; the references stay valid (and
  // unchanged) until the next update()'s patch pass.
  const CommitPair* commits_ptr = nullptr;
  const tx::Transaction* split_ptr = nullptr;
  {
    OBS_SPAN("daric.update.skeleton");
    commits_ptr = &tcache_.commit(a_.fund_op_, cash, i + 1);
    split_ptr = &tcache_.split(next, i + 1);
  }
  const CommitPair& commits = *commits_ptr;
  const tx::Transaction& split_body = *split_ptr;
  const tx::Transaction& body_p = p.id_ == PartyId::kA ? commits.body_a : commits.body_b;
  const tx::Transaction& body_q = p.id_ == PartyId::kA ? commits.body_b : commits.body_a;
  const script::Script& script_p = p.id_ == PartyId::kA ? commits.script_a : commits.script_b;
  const script::Script& script_q = p.id_ == PartyId::kA ? commits.script_b : commits.script_a;
  // One digest cache per body signed/verified this update. Each serialized
  // body is hashed once here instead of once per signature operation.
  const tx::SighashCache sh_split = timed_cache(split_body, SighashFlag::kAllAnyPrevOut),
                         sh_p = timed_cache(body_p, SighashFlag::kAll),
                         sh_q = timed_cache(body_q, SighashFlag::kAll);

  // Each party verifies every signature it receives where it arrives,
  // before storing it or acting on it, so Γ' only ever holds verified
  // signatures. A failed check at messages 2–5 closes at state i; at
  // message 6, Q has promoted and P's Γ' is complete, so it closes at i+1.

  // Message 2: updateInfo (Q → P).
  if (silent_before(q, 2)) return abort_to(p.id_);
  const Bytes sp_sig_q = timed_sign(split_body, q.keys_.sp, SighashFlag::kAllAnyPrevOut, &sh_split);
  const int n2 = send_or_close(q.id_, "updateInfo");
  if (n2 == 0) return false;

  // P verifies Q's split signature and stores Γ'^P (flag := 2); re-applied
  // per delivered copy, so a duplicated updateInfo leaves the same Γ'^P
  // (idempotent handler).
  if (!timed_verify(sh_split, SighashFlag::kAllAnyPrevOut, p.peer_table(kSp), sp_sig_q))
    return abort_to(p.id_);
  const Bytes sp_sig_p = timed_sign(split_body, p.keys_.sp, SighashFlag::kAllAnyPrevOut, &sh_split);
  const Bytes split_sig_a = p.id_ == PartyId::kA ? sp_sig_p : sp_sig_q;
  const Bytes split_sig_b = p.id_ == PartyId::kA ? sp_sig_q : sp_sig_p;
  for (int copy = 0; copy < n2; ++copy) {
    p.flag_ = channel::ChannelFlag::kUpdating;
    p.st_prime_ = next;
    p.cm_own_new_.reset();
    p.cm_own_new_script_ = script_p;
    p.cm_other_new_body_ = body_q;
    p.cm_other_new_script_ = script_q;
    p.split_new_ = {split_body, split_sig_a, split_sig_b};
  }

  // Message 3: updateComP (P → Q) with σ̃^P_SP and σ^P on [TX^Q_CM,i+1].
  if (silent_before(p, 3)) return abort_to(q.id_);
  const Bytes cm_q_sig_p = timed_sign(body_q, p.keys_.main, SighashFlag::kAll, &sh_q);
  const int n3 = send_or_close(p.id_, "updateComP");
  if (n3 == 0) return false;

  if (!timed_verify(sh_split, SighashFlag::kAllAnyPrevOut, q.peer_table(kSp), sp_sig_p) ||
      !timed_verify(sh_q, SighashFlag::kAll, q.peer_table(kMain), cm_q_sig_p))
    return abort_to(q.id_);
  // Q assembles its own new commit and stores Γ'^Q (idempotent per copy:
  // the witness is rebuilt from the fresh body every time).
  for (int copy = 0; copy < n3; ++copy) {
    q.flag_ = channel::ChannelFlag::kUpdating;
    q.st_prime_ = next;
    q.cm_own_new_ = body_q;
    const Bytes own = timed_sign(body_q, q.keys_.main, SighashFlag::kAll, &sh_q);
    const Bytes& sig_a = q.id_ == PartyId::kA ? own : cm_q_sig_p;
    const Bytes& sig_b = q.id_ == PartyId::kA ? cm_q_sig_p : own;
    attach_funding_witness(*q.cm_own_new_, 0, q.fund_script_, sig_a, sig_b);
    q.cm_own_new_script_ = script_q;
    q.cm_other_new_body_ = body_p;
    q.cm_other_new_script_ = script_p;
    q.split_new_ = {split_body, split_sig_a, split_sig_b};
  }

  // Message 4: updateComQ (Q → P) with σ^Q on [TX^P_CM,i+1].
  if (silent_before(q, 4)) return abort_to(p.id_);
  const Bytes cm_p_sig_q = timed_sign(body_p, q.keys_.main, SighashFlag::kAll, &sh_p);
  const int n4 = send_or_close(q.id_, "updateComQ");
  if (n4 == 0) return false;

  // Γ'^P holds no new commit yet, so a failed check closes at state i.
  if (!timed_verify(sh_p, SighashFlag::kAll, p.peer_table(kMain), cm_p_sig_q))
    return abort_to(p.id_);
  for (int copy = 0; copy < n4; ++copy) {
    p.cm_own_new_ = body_p;
    const Bytes own = timed_sign(body_p, p.keys_.main, SighashFlag::kAll, &sh_p);
    const Bytes& sig_a = p.id_ == PartyId::kA ? own : cm_p_sig_q;
    const Bytes& sig_b = p.id_ == PartyId::kA ? cm_p_sig_q : own;
    attach_funding_witness(*p.cm_own_new_, 0, p.fund_script_, sig_a, sig_b);
  }

  // Revocation bodies for state i (both floating, nLT = S0 + i). Separate
  // skeleton slots per payout key, so both references stay valid.
  const tx::Transaction& rv_p = tcache_.revoke(p.id_ == PartyId::kA, cash, i);
  const tx::Transaction& rv_q = tcache_.revoke(q.id_ == PartyId::kA, cash, i);
  const SighashFlag rv_flag = revocation_flag(params_);
  const tx::SighashCache sh_rv_p = timed_cache(rv_p, rv_flag),
                         sh_rv_q = timed_cache(rv_q, rv_flag);
  // TX^A_RV is guarded by rv2 keys, TX^B_RV by rv keys (Appendix B).
  auto rv_sign_key = [&](const DaricParty& signer,
                         const DaricParty& owner) -> const crypto::KeyPair& {
    return owner.id_ == PartyId::kA ? signer.keys_.rv2 : signer.keys_.rv;
  };

  // Message 5: revokeP (P → Q): P's signature on [TX^Q_RV,i].
  //
  // Fsync-before-externalize: once message 5 leaves, P's revocation of
  // state i is out in the world, so P's Γ' (the fully-signed i+1 commit and
  // complete floating split) must already be durable — a crash after the
  // send may never post a commit the counterparty can now punish.
  if (p.durability_) p.durability_->persist(p);
  if (silent_before(p, 5)) return abort_to(q.id_);
  const Bytes rv_q_sig_p = timed_sign(rv_q, rv_sign_key(p, q), rv_flag, &sh_rv_q);
  const int n5 = send_or_close(p.id_, "revokeP");
  if (n5 == 0) return false;

  // An invalid revocation fails the update: Q drops Γ' and closes at
  // state i, which P has not revoked.
  if (!timed_verify(sh_rv_q, rv_flag, q.peer_table(kRv), rv_q_sig_p)) {
    q.flag_ = channel::ChannelFlag::kStable;
    q.cm_own_new_.reset();
    q.st_prime_ = {};
    return abort_to(q.id_);
  }
  // Promotion Γ' → Γ is guarded on the kUpdating flag, so a duplicated
  // revoke message replays as a no-op.
  auto promote = [&](DaricParty& x, const Bytes& theta) {
    if (x.flag_ != channel::ChannelFlag::kUpdating) return;
    x.theta_sig_ = theta;
    x.sn_ = i + 1;
    x.st_ = next;
    x.cm_own_ = *x.cm_own_new_;
    x.cm_own_script_ = x.cm_own_new_script_;
    x.cm_other_body_ = x.cm_other_new_body_;
    x.cm_other_script_ = x.cm_other_new_script_;
    x.split_ = x.split_new_;
    x.flag_ = channel::ChannelFlag::kStable;
    x.cm_own_new_.reset();
    x.st_prime_ = {};
  };
  for (int copy = 0; copy < n5; ++copy) promote(q, rv_q_sig_p);

  // Message 6: revokeQ (Q → P): Q's signature on [TX^P_RV,i]. Same barrier
  // for Q: its promotion to i+1 must be durable before its revocation of i
  // is externalized.
  if (q.durability_) q.durability_->persist(q);
  if (silent_before(q, 6)) return abort_to(p.id_);
  const Bytes rv_p_sig_q = timed_sign(rv_p, rv_sign_key(q, p), rv_flag, &sh_rv_p);
  const int n6 = send_or_close(q.id_, "revokeQ");
  if (n6 == 0) return false;

  // Γ'^P is fully verified: on failure here force_close posts the new
  // commit (agreed state i+1).
  if (!timed_verify(sh_rv_p, rv_flag, p.peer_table(kRv), rv_p_sig_q))
    return abort_to(p.id_);
  for (int copy = 0; copy < n6; ++copy) promote(p, rv_p_sig_q);
  if (p.durability_) p.durability_->persist(p);

  archive_a_.push_back(a_.cm_own_);
  archive_b_.push_back(b_.cm_own_);
  archive_splits_.push_back(
      {split_body, split_sig_a, split_sig_b, commits.script_a, commits.script_b});
  note_updated(sim::party_name(proposer));
  return true;
}

bool DaricChannel::cooperative_close(PartyId initiator) {
  require_open();
  const auto& scheme = env_.scheme();
  DaricParty& p = party(initiator);
  DaricParty& q = party(other(initiator));

  tx::Transaction fin = gen_fin_split(p.fund_op_, p.st_, a_.pub_own_.main, b_.pub_own_.main);
  const tx::SighashCache sh_fin(fin);
  const Bytes sig_p = tx::sign_input(fin, 0, p.keys_.main, scheme, SighashFlag::kAll, &sh_fin);
  if (send_or_close(p.id_, "closeP") == 0) return false;

  if (q.behavior.refuse_close) return abort_to(p.id_);
  const Bytes sig_q = tx::sign_input(fin, 0, q.keys_.main, scheme, SighashFlag::kAll, &sh_fin);
  if (send_or_close(q.id_, "closeQ") == 0) return false;

  if (!verify_wire_cached(sh_fin, SighashFlag::kAll, p.peer_table(DaricParty::PeerKey::kMain),
                          sig_q, scheme))
    return abort_to(p.id_);
  const Bytes& sig_a = initiator == PartyId::kA ? sig_p : sig_q;
  const Bytes& sig_b = initiator == PartyId::kA ? sig_q : sig_p;
  attach_funding_witness(fin, 0, p.fund_script_, sig_a, sig_b);
  observe_weight(fin);
  note_phase(sim::party_name(initiator), "coop_close_posted");
  a_.expected_coop_txid_ = b_.expected_coop_txid_ = env_.ledger().post(fin);
  return run_until_closed();
}

void DaricChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  const auto& archive = who == PartyId::kA ? archive_a_ : archive_b_;
  if (state >= archive.size()) throw std::out_of_range("no archived commit for that state");
  observe_weight(archive[state]);
  note_dispute(who, state);
  env_.ledger().post(archive[state]);
}

void DaricChannel::publish_old_split(PartyId who, std::uint32_t state, Round delay) {
  const auto& archive = who == PartyId::kA ? archive_a_ : archive_b_;
  if (state >= archive.size() || state >= archive_splits_.size())
    throw std::out_of_range("no archived split for that state");
  const ArchivedSplit& as = archive_splits_[state];
  tx::Transaction bound = as.body;
  bind_floating(bound, {archive[state].txid(), 0});
  const script::Script& commit_script =
      who == PartyId::kA ? as.commit_script_a : as.commit_script_b;
  attach_split_witness(bound, 0, commit_script, as.sig_a, as.sig_b);
  env_.ledger().post_with_delay(bound, delay);
}

// ---------------------------------------------------------------------------
// HTLC resolution on a confirmed split transaction
// ---------------------------------------------------------------------------

namespace {

tx::Transaction build_htlc_spend(const tx::Transaction& split, std::size_t htlc_index,
                                 const channel::StateVec& st, const DaricParty& claimer,
                                 const DaricPubKeys& a, const DaricPubKeys& b,
                                 const Bytes& second_element) {
  if (htlc_index >= st.htlcs.size()) throw std::out_of_range("bad HTLC index");
  const channel::Htlc& h = st.htlcs[htlc_index];
  const auto vout = static_cast<std::uint32_t>(2 + htlc_index);  // after the two balances

  tx::Transaction t;
  t.inputs = {{{split.txid(), vout}}};
  t.nlocktime = 0;
  t.outputs = {{h.cash, tx::Condition::p2wpkh(claimer.pub().main)}};

  const Bytes sig = tx::sign_input(t, 0, claimer.keys().main,
                                   claimer.environment().scheme(), SighashFlag::kAll);
  t.witnesses.resize(1);
  t.witnesses[0].stack = {sig, second_element};
  t.witnesses[0].witness_script = htlc_script(h, a.main, b.main);
  return t;
}

}  // namespace

tx::Transaction build_htlc_redeem(const tx::Transaction& split, std::size_t htlc_index,
                                  const channel::StateVec& st, const DaricParty& payee,
                                  const DaricPubKeys& a, const DaricPubKeys& b,
                                  BytesView preimage) {
  return build_htlc_spend(split, htlc_index, st, payee, a, b,
                          Bytes(preimage.begin(), preimage.end()));
}

tx::Transaction build_htlc_claimback(const tx::Transaction& split, std::size_t htlc_index,
                                     const channel::StateVec& st, const DaricParty& payer,
                                     const DaricPubKeys& a, const DaricPubKeys& b) {
  return build_htlc_spend(split, htlc_index, st, payer, a, b, Bytes{});
}

}  // namespace daric::daricch
