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

const char* close_outcome_name(CloseOutcome o) {
  switch (o) {
    case CloseOutcome::kNone: return "none";
    case CloseOutcome::kCooperative: return "cooperative";
    case CloseOutcome::kNonCollaborative: return "non-collaborative";
    case CloseOutcome::kPunished: return "punished";
  }
  return "unknown";
}

namespace {

/// Verifies a wire signature against a precomputed counterparty key, reusing
/// `cache`'s digest for the body it was built over. Replaces the old
/// verify_wire, which recomputed the sighash digest and decompressed the
/// 33-byte pubkey on every call.
bool verify_wire_cached(const tx::SighashCache& cache, SighashFlag flag,
                        const crypto::PrecomputedPoint& pre, BytesView wire,
                        const crypto::SignatureScheme& scheme) {
  const auto decoded = script::decode_wire_sig(wire, scheme.signature_size());
  if (!decoded || decoded->flag != flag) return false;
  return scheme.verify_cached(pre, cache.digest(0, flag), decoded->raw);
}

/// Structurally decodes `wire` and queues the claim it asserts for deferred
/// batch verification against `pre`'s key. Returns false on a malformed
/// signature or flag mismatch — callers treat that exactly like a failed
/// verification. The curve check happens when the batch is flushed.
bool queue_wire(std::vector<crypto::SigBatchItem>& batch, const tx::SighashCache& cache,
                SighashFlag flag, const crypto::PrecomputedPoint& pre, BytesView wire,
                const crypto::SignatureScheme& scheme) {
  const auto decoded = script::decode_wire_sig(wire, scheme.signature_size());
  if (!decoded || decoded->flag != flag) return false;
  batch.push_back({pre.point(), cache.digest(0, flag), decoded->raw, &pre});
  return true;
}

/// Records the on-chain weight of an engine-originated transaction through a
/// cached histogram handle (events stay behind tracer().enabled()).
void observe_weight(obs::Histogram* h, const tx::Transaction& t) {
  h->observe(static_cast<std::int64_t>(tx::measure(t).weight()));
}

void emit_closed(sim::Environment& env, obs::Counter* closed,
                 const channel::ChannelParams& params, PartyId id, CloseOutcome outcome) {
  closed->inc();
  if (env.tracer().enabled())
    env.tracer().emit(env.now(), obs::EventKind::kChannelState, "daric", params.id,
                      sim::party_name(id),
                      {obs::Attr::s("phase", "closed"),
                       obs::Attr::s("outcome", close_outcome_name(outcome))});
}

}  // namespace

// ---------------------------------------------------------------------------
// DaricParty
// ---------------------------------------------------------------------------

DaricParty::DaricParty(PartyId id, const channel::ChannelParams& params, sim::Environment& env,
                       tx::OutPoint funding_source, crypto::KeyPair funding_key)
    : id_(id),
      params_(params),
      env_(env),
      funding_source_(funding_source),
      funding_key_(std::move(funding_key)),
      keys_(DaricKeys::derive(sim::party_name(id), params.id)),
      pub_own_(to_pub(keys_)) {
  auto& m = env.metrics();
  closed_counter_ = &m.counter("daric.closed");
  punish_counter_ = &m.counter("daric.punish.posted");
  force_close_counter_ = &m.counter("daric.force_close");
  weight_hist_ = &m.histogram("daric.onchain_weight");
}

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
  // TX^A_RV spends TX^B_CM (rv2 keys); TX^B_RV spends TX^A_CM (rv keys).
  const crypto::KeyPair& kp = id_ == PartyId::kA ? keys_.rv2 : keys_.rv;
  return tx::sign_input(body, 0, kp, env_.scheme(), revocation_flag(params_));
}

const DaricParty::PeerTables& DaricParty::peer_tables() const {
  if (!peer_) {
    auto table = [](BytesView pk33) {
      const auto p = crypto::Point::from_compressed(pk33);
      if (!p) throw std::logic_error("counterparty public key is not on the curve");
      return crypto::PrecomputedPoint(*p);
    };
    peer_.emplace(PeerTables{table(pub_other_.main), table(pub_other_.sp),
                             table(pub_other_.rv), table(pub_other_.rv2)});
  }
  return *peer_;
}

void DaricParty::set_fee_source(const FeeSource& source, Amount fee) {
  if (!params_.feeable_revocations)
    throw std::logic_error("fee bumping needs params.feeable_revocations");
  fee_outpoint_value_ = {source.outpoint, source.value};
  fee_key_ = source.key;
  punish_fee_ = fee;
}

bool DaricParty::is_counterparty_commit(const tx::Transaction& spender, std::uint32_t* state_out,
                                        script::Script* script_out) const {
  if (spender.outputs.size() != 1) return false;
  if (spender.nlocktime < params_.s0) return false;
  const std::uint32_t j = spender.nlocktime - params_.s0;
  const auto csv = static_cast<std::uint32_t>(params_.t_punish);
  // A's commits are guarded by rv keys, B's by rv2 (Appendix B).
  const DaricPubKeys& pa = id_ == PartyId::kA ? pub_own_ : pub_other_;
  const DaricPubKeys& pb = id_ == PartyId::kA ? pub_other_ : pub_own_;
  const script::Script guess =
      id_ == PartyId::kA
          ? commit_script(pa.sp, pb.sp, pa.rv2, pb.rv2, params_.s0 + j, csv)   // TX^B_CM,j
          : commit_script(pa.sp, pb.sp, pa.rv, pb.rv, params_.s0 + j, csv);    // TX^A_CM,j
  if (spender.outputs[0].cond != tx::Condition::p2wsh(guess)) return false;
  *state_out = j;
  *script_out = guess;
  return true;
}

void DaricParty::commit_to_published_split(const tx::Transaction& spender,
                                           const FloatingSplit& split,
                                           const script::Script& commit_scr) {
  const auto confirmed = env_.ledger().confirmation_round(spender.txid());
  tx::Transaction bound = split.body;
  bind_floating(bound, {spender.txid(), 0});
  attach_split_witness(bound, 0, commit_scr, split.sig_a, split.sig_b);
  pending_split_ = PendingSplit{std::move(bound),
                                (confirmed ? *confirmed : env_.now()) + params_.t_punish, false};
}

void DaricParty::try_punish(const tx::Transaction& spender) {
  std::uint32_t j = 0;
  script::Script cscript;
  if (!is_counterparty_commit(spender, &j, &cscript)) return;
  if (j >= sn_ || theta_sig_.empty()) return;  // latest state or nothing revoked yet

  tx::Transaction rv = gen_revoke(pub_own_.main, params_.capacity(), sn_ - 1, params_);
  bind_floating(rv, {spender.txid(), 0});
  const Bytes own = sign_own_revocation(rv);
  if (id_ == PartyId::kA) {
    attach_revoke_witness(rv, 0, cscript, own, theta_sig_);  // [rv2_A, rv2_B]
  } else {
    attach_revoke_witness(rv, 0, cscript, theta_sig_, own);  // [rv_A, rv_B]
  }
  if (fee_outpoint_value_ && fee_key_) {
    attach_fee(rv, {fee_outpoint_value_->first, fee_outpoint_value_->second, *fee_key_},
               punish_fee_, env_.scheme());
  }
  env_.ledger().post(rv);
  pending_revocation_txid_ = rv.txid();
  punish_counter_->inc();
  observe_weight(weight_hist_, rv);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kPunish, "daric", params_.id,
                       sim::party_name(id_),
                       {obs::Attr::i("revoked_state", j),
                        obs::Attr::i("latest_sn", static_cast<std::int64_t>(sn_))});
}

void DaricParty::close_with(CloseOutcome outcome, Round round) {
  outcome_ = outcome;
  closed_round_ = round;
  open_ = false;
  emit_closed(env_, closed_counter_, params_, id_, outcome_);
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
    // T−Δ bound must cover. Sweeps read these straight off the registry.
    ++missed_rounds_;
    ++offline_gap_;
    if (offline_gap_ > max_gap_) max_gap_ = offline_gap_;
    if (missed_counter_) missed_counter_->inc();
    if (max_gap_gauge_) max_gap_gauge_->set(max_gap_);
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
      ledger.post(pending_split_->bound);
      pending_split_->posted = true;
      observe_weight(weight_hist_, pending_split_->bound);
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "daric", params_.id,
                           sim::party_name(id_), {obs::Attr::s("phase", "split_posted")});
    } else if (pending_split_->posted && ledger.is_confirmed(pending_split_->bound.txid())) {
      close_with(CloseOutcome::kNonCollaborative, env_.now());
    }
    return;
  }

  const auto spender = ledger.spender_of(fund_op_);
  if (!spender) return;
  const Hash256 id = spender->txid();

  if (expected_coop_txid_ && id == *expected_coop_txid_) {
    close_with(CloseOutcome::kCooperative, env_.now());
    return;
  }

  // Appendix D Punish: is the spender in the allowed set I?
  if (id == cm_own_.txid()) {
    commit_to_published_split(*spender, split_, cm_own_script_);
    return;
  }
  if (id == cm_other_body_.txid()) {
    commit_to_published_split(*spender, split_, cm_other_script_);
    return;
  }
  if (flag_ == channel::ChannelFlag::kUpdating) {
    if (cm_own_new_ && id == cm_own_new_->txid()) {
      commit_to_published_split(*spender, split_new_, cm_own_new_script_);
      return;
    }
    if (id == cm_other_new_body_.txid()) {
      commit_to_published_split(*spender, split_new_, cm_other_new_script_);
      return;
    }
  }

  // Not in I: if it is a revoked counterparty commit, punish instantly.
  std::uint32_t j = 0;
  script::Script cscript;
  if (is_counterparty_commit(*spender, &j, &cscript)) {
    try_punish(*spender);
    return;
  }
  // Otherwise it is one of *our own* revoked commits (republished by a
  // dishonest self in tests): the channel resolves once the counterparty's
  // revocation claims its output.
  if (ledger.spender_of({id, 0})) close_with(CloseOutcome::kPunished, env_.now());
}

void DaricParty::force_close() {
  if (!open_) return;
  const bool use_new = flag_ == channel::ChannelFlag::kUpdating && cm_own_new_.has_value();
  const tx::Transaction& cm = use_new ? *cm_own_new_ : cm_own_;
  force_close_counter_->inc();
  observe_weight(weight_hist_, cm);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "daric", params_.id,
                       sim::party_name(id_),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(use_new ? sn_ + 1 : sn_)),
                        obs::Attr::i("revoked", 0)});
  env_.ledger().post(cm);
  // The Punish monitor picks it up once confirmed and schedules the split.
}

// ---------------------------------------------------------------------------
// DaricChannel
// ---------------------------------------------------------------------------

namespace {

tx::OutPoint mint_funding_source(sim::Environment& env, Amount value,
                                 const crypto::KeyPair& key) {
  return env.ledger().mint(value, tx::Condition::p2wpkh(key.pk.compressed()));
}

crypto::KeyPair funding_keypair(const channel::ChannelParams& p, PartyId id) {
  return crypto::derive_keypair(p.id + "/" + sim::party_name(id) + "/funding-source");
}

}  // namespace

namespace {
/// Delivery attempts per protocol message before the sender concludes the
/// link (or the counterparty) is dead and falls back to force-close.
constexpr int kMaxSendAttempts = 3;
}  // namespace

int DaricChannel::send_reliable(DaricParty& sender, const char* type) {
  for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (attempt > 0) {
      retries_counter_->inc();
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kMsgRetry, "daric", params_.id,
                           sim::party_name(sender.id_),
                           {obs::Attr::s("type", type), obs::Attr::i("attempt", attempt)});
    }
    const auto d = env_.transmit(sender.id_, type);
    if (d.copies > 0) return d.copies;
    // Dropped: the sender's ack timeout fires and it re-sends.
  }
  return 0;
}

int DaricChannel::send_or_close(DaricParty& sender, const char* type) {
  const int copies = send_reliable(sender, type);
  if (copies == 0) {
    sender.force_close();
    run_until_closed();
  }
  return copies;
}

DaricChannel::DaricChannel(sim::Environment& env, channel::ChannelParams params)
    : env_(env),
      params_(std::move(params)),
      a_(PartyId::kA, params_, env,
         mint_funding_source(env, params_.cash_a, funding_keypair(params_, PartyId::kA)),
         funding_keypair(params_, PartyId::kA)),
      b_(PartyId::kB, params_, env,
         mint_funding_source(env, params_.cash_b, funding_keypair(params_, PartyId::kB)),
         funding_keypair(params_, PartyId::kB)),
      tcache_(params_, a_.pub_own_, b_.pub_own_) {
  auto& m = env_.metrics();
  retries_counter_ = &m.counter("daric.msg.retries");
  opened_counter_ = &m.counter("daric.channels_opened");
  updates_counter_ = &m.counter("daric.updates");
  disputes_counter_ = &m.counter("daric.disputes");
  weight_hist_ = &m.histogram("daric.onchain_weight");
  params_.validate(env_.delta());
  a_.hook_ = env_.add_round_hook([this] { a_.on_round(); });
  b_.hook_ = env_.add_round_hook([this] { b_.on_round(); });
}

bool DaricChannel::create() {
  const auto& scheme = env_.scheme();
  const Amount cash = params_.capacity();

  // Step 1: createInfo in both directions (one message round). A timeout
  // before the funding transaction exists simply abandons the channel.
  if (send_reliable(a_, "createInfo") == 0) return false;
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
  if (send_reliable(a_, "createCom") == 0) return false;
  const Bytes sp_sig_a =
      tx::sign_input(split0, 0, a_.keys_.sp, scheme, SighashFlag::kAllAnyPrevOut, &sh_split);
  const Bytes sp_sig_b =
      tx::sign_input(split0, 0, b_.keys_.sp, scheme, SighashFlag::kAllAnyPrevOut, &sh_split);
  const Bytes cm_b_sig_a =  // A's signature on [TX^B_CM,0]
      tx::sign_input(commits.body_b, 0, a_.keys_.main, scheme, SighashFlag::kAll, &sh_cm_b);
  const Bytes cm_a_sig_b =  // B's signature on [TX^A_CM,0]
      tx::sign_input(commits.body_a, 0, b_.keys_.main, scheme, SighashFlag::kAll, &sh_cm_a);

  // Step 4: both verify what they received — each party batches its two
  // checks (one multi-scalar multiplication instead of two when the scheme
  // supports batching; the default falls back to sequential verifies).
  std::vector<crypto::SigBatchItem> batch_a, batch_b;
  if (!queue_wire(batch_a, sh_split, SighashFlag::kAllAnyPrevOut, a_.peer_tables().sp, sp_sig_b,
                  scheme) ||
      !queue_wire(batch_a, sh_cm_a, SighashFlag::kAll, a_.peer_tables().main, cm_a_sig_b,
                  scheme) ||
      !scheme.verify_batch(batch_a))
    return false;
  if (!queue_wire(batch_b, sh_split, SighashFlag::kAllAnyPrevOut, b_.peer_tables().sp, sp_sig_a,
                  scheme) ||
      !queue_wire(batch_b, sh_cm_b, SighashFlag::kAll, b_.peer_tables().main, cm_b_sig_a,
                  scheme) ||
      !scheme.verify_batch(batch_b))
    return false;

  // Step 5: exchange funding signatures and post TX_FU.
  if (send_reliable(a_, "createFund") == 0) return false;
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
  env_.ledger().post(tx_fu);

  // Step 6: wait ≤ Δ for confirmation, then finalize both Γ stores.
  for (Round r = 0; r <= env_.delta() + 1 && !env_.ledger().is_confirmed(tx_fu.txid()); ++r)
    env_.advance_round();
  if (!env_.ledger().is_confirmed(tx_fu.txid())) return false;

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
  opened_counter_->inc();
  observe_weight(weight_hist_, tx_fu);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "daric", params_.id, {},
                       {obs::Attr::s("phase", "open"), obs::Attr::i("sn", 0)});
  return true;
}

bool DaricChannel::update(const channel::StateVec& next, PartyId proposer) {
  if (!a_.open_ || !b_.open_) throw std::logic_error("channel not open");
  if (a_.flag_ != channel::ChannelFlag::kStable) throw std::logic_error("update in flight");
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve the channel capacity");
  if (next.to_a < params_.min_balance() || next.to_b < params_.min_balance())
    throw std::invalid_argument("state violates the minimum-balance reserve");

  OBS_SPAN("daric.update.total");
  const auto& scheme = env_.scheme();
  DaricParty& p = party(proposer);
  DaricParty& q = party(other(proposer));
  const std::uint32_t i = a_.sn_;
  const Amount cash = params_.capacity();

  // Phase timers for the update pipeline (span.h taxonomy). Each wrapper
  // times one operation; all of them vanish to a relaxed load when spans
  // are disabled.
  auto timed_cache = [](const tx::Transaction& body) {
    OBS_SPAN("daric.update.sighash");
    return tx::SighashCache(body);
  };
  auto timed_sign = [&scheme](const tx::Transaction& body, const crypto::KeyPair& kp,
                              SighashFlag flag, const tx::SighashCache* cache) {
    OBS_SPAN("daric.update.sign");
    return tx::sign_input(body, 0, kp, scheme, flag, cache);
  };
  auto timed_flush = [&scheme](const std::vector<crypto::SigBatchItem>& batch) {
    OBS_SPAN("daric.update.batch_flush");
    return scheme.verify_batch(batch);
  };

  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "daric", params_.id,
                       sim::party_name(proposer),
                       {obs::Attr::s("phase", "updating"),
                        obs::Attr::i("sn", static_cast<std::int64_t>(i) + 1)});

  auto abort_by = [&](DaricParty& silent, DaricParty& honest, int msg) {
    if (silent.behavior.abort_update_before_msg == msg) {
      honest.force_close();
      run_until_closed();
      return true;
    }
    return false;
  };

  // Message 1: updateReq (P → Q). No receiver state is mutated yet, so a
  // duplicate delivery is a no-op; a timeout aborts to force-close.
  if (abort_by(p, q, 1)) return false;
  if (send_or_close(p, "updateReq") == 0) return false;

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
  const tx::SighashCache sh_split = timed_cache(split_body), sh_p = timed_cache(body_p),
                         sh_q = timed_cache(body_q);

  // Deferred verification queues. Signatures are structurally checked on
  // receipt but their curve equations are batched and flushed at the latest
  // safe point: P flushes before sending its revocation (message 5), Q
  // before acting on P's revocation (promotion after message 5). Between
  // queueing and flushing each party only ever sends signatures on the
  // agreed next state — material the counterparty is entitled to anyway —
  // so a forged incoming signature still cannot cost the verifier anything:
  // the batch fails, Γ' is discarded and the verifier closes at the last
  // fully-verified state.
  std::vector<crypto::SigBatchItem> batch_p, batch_q;  // sigs P / Q checks
  auto reset_gamma_prime = [](DaricParty& x) {
    // Γ' holds signatures whose batch just failed; drop it so force_close
    // posts the last fully-verified commit instead of an invalid witness.
    x.flag_ = channel::ChannelFlag::kStable;
    x.cm_own_new_.reset();
    x.st_prime_ = {};
  };

  // Message 2: updateInfo (Q → P).
  if (abort_by(q, p, 2)) return false;
  const Bytes sp_sig_q = timed_sign(split_body, q.keys_.sp, SighashFlag::kAllAnyPrevOut, &sh_split);
  const int n2 = send_or_close(q, "updateInfo");
  if (n2 == 0) return false;

  // P queues Q's split signature and stores Γ'^P (flag := 2); re-applied per
  // delivered copy, so a duplicated updateInfo leaves the same Γ'^P
  // (idempotent handler).
  if (!queue_wire(batch_p, sh_split, SighashFlag::kAllAnyPrevOut, p.peer_tables().sp, sp_sig_q,
                  scheme)) {
    p.force_close();
    run_until_closed();
    return false;
  }
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
  if (abort_by(p, q, 3)) return false;
  const Bytes cm_q_sig_p = timed_sign(body_q, p.keys_.main, SighashFlag::kAll, &sh_q);
  const int n3 = send_or_close(p, "updateComP");
  if (n3 == 0) return false;

  if (!queue_wire(batch_q, sh_split, SighashFlag::kAllAnyPrevOut, q.peer_tables().sp, sp_sig_p,
                  scheme) ||
      !queue_wire(batch_q, sh_q, SighashFlag::kAll, q.peer_tables().main, cm_q_sig_p, scheme)) {
    q.force_close();
    run_until_closed();
    return false;
  }
  // Q assembles its own new commit and stores Γ'^Q (idempotent per copy:
  // the witness is rebuilt from the fresh body every time). cm_q_sig_p is
  // still only structurally checked here; if its queued curve check fails
  // at message 5, reset_gamma_prime discards this witness before closing.
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
  if (abort_by(q, p, 4)) return false;
  const Bytes cm_p_sig_q = timed_sign(body_p, q.keys_.main, SighashFlag::kAll, &sh_p);
  const int n4 = send_or_close(q, "updateComQ");
  if (n4 == 0) return false;

  // P's flush point: past this message P reveals its revocation of state i,
  // so everything P has received for state i+1 must be verified NOW.
  if (!queue_wire(batch_p, sh_p, SighashFlag::kAll, p.peer_tables().main, cm_p_sig_q, scheme) ||
      !timed_flush(batch_p)) {
    reset_gamma_prime(p);
    p.force_close();
    run_until_closed();
    return false;
  }
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
  const tx::SighashCache sh_rv_p = timed_cache(rv_p), sh_rv_q = timed_cache(rv_q);
  // TX^A_RV is guarded by rv2 keys, TX^B_RV by rv keys (Appendix B).
  auto rv_sign_key = [&](const DaricParty& signer,
                         const DaricParty& owner) -> const crypto::KeyPair& {
    return owner.id_ == PartyId::kA ? signer.keys_.rv2 : signer.keys_.rv;
  };
  auto rv_verify_pre = [&](const DaricParty& verifier,
                           const DaricParty& owner) -> const crypto::PrecomputedPoint& {
    return owner.id_ == PartyId::kA ? verifier.peer_tables().rv2 : verifier.peer_tables().rv;
  };

  // Message 5: revokeP (P → Q): P's signature on [TX^Q_RV,i].
  //
  // Fsync-before-externalize: once message 5 leaves, P's revocation of
  // state i is out in the world, so P's Γ' (the fully-signed i+1 commit and
  // complete floating split) must already be durable — a crash after the
  // send may never post a commit the counterparty can now punish.
  const SighashFlag rv_flag = revocation_flag(params_);
  if (p.durability_) p.durability_->persist(p);
  if (abort_by(p, q, 5)) return false;
  const Bytes rv_q_sig_p = timed_sign(rv_q, rv_sign_key(p, q), rv_flag, &sh_rv_q);
  const int n5 = send_or_close(p, "revokeP");
  if (n5 == 0) return false;

  // Q's flush point: promotion Γ' → Γ (and message 6, Q's own revocation)
  // must only happen on fully verified material.
  if (!queue_wire(batch_q, sh_rv_q, rv_flag, rv_verify_pre(q, q), rv_q_sig_p, scheme) ||
      !timed_flush(batch_q)) {
    reset_gamma_prime(q);
    q.force_close();
    run_until_closed();
    return false;
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
  if (abort_by(q, p, 6)) return false;
  const Bytes rv_p_sig_q = timed_sign(rv_p, rv_sign_key(q, p), rv_flag, &sh_rv_p);
  const int n6 = send_or_close(q, "revokeQ");
  if (n6 == 0) return false;

  // P's batch flushed at message 4, so Γ'^P is fully verified: on failure
  // here force_close correctly posts the new commit (agreed state i+1).
  if (!verify_wire_cached(sh_rv_p, rv_flag, rv_verify_pre(p, p), rv_p_sig_q, scheme)) {
    p.force_close();
    run_until_closed();
    return false;
  }
  for (int copy = 0; copy < n6; ++copy) promote(p, rv_p_sig_q);
  if (p.durability_) p.durability_->persist(p);

  archive_a_.push_back(a_.cm_own_);
  archive_b_.push_back(b_.cm_own_);
  archive_splits_.push_back(
      {split_body, split_sig_a, split_sig_b, commits.script_a, commits.script_b});
  updates_counter_->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "daric", params_.id,
                       sim::party_name(proposer),
                       {obs::Attr::s("phase", "updated"),
                        obs::Attr::i("sn", static_cast<std::int64_t>(i) + 1)});
  return true;
}

bool DaricChannel::cooperative_close(PartyId initiator) {
  if (!a_.open_ || !b_.open_) throw std::logic_error("channel not open");
  const auto& scheme = env_.scheme();
  DaricParty& p = party(initiator);
  DaricParty& q = party(other(initiator));

  tx::Transaction fin = gen_fin_split(p.fund_op_, p.st_, a_.pub_own_, b_.pub_own_);
  const tx::SighashCache sh_fin(fin);
  const Bytes sig_p = tx::sign_input(fin, 0, p.keys_.main, scheme, SighashFlag::kAll, &sh_fin);
  if (send_or_close(p, "closeP") == 0) return false;

  if (q.behavior.refuse_close) {
    p.force_close();
    run_until_closed();
    return false;
  }
  const Bytes sig_q = tx::sign_input(fin, 0, q.keys_.main, scheme, SighashFlag::kAll, &sh_fin);
  if (send_or_close(q, "closeQ") == 0) return false;

  if (!verify_wire_cached(sh_fin, SighashFlag::kAll, p.peer_tables().main, sig_q, scheme)) {
    p.force_close();
    run_until_closed();
    return false;
  }
  const Bytes& sig_a = initiator == PartyId::kA ? sig_p : sig_q;
  const Bytes& sig_b = initiator == PartyId::kA ? sig_q : sig_p;
  attach_funding_witness(fin, 0, p.fund_script_, sig_a, sig_b);
  a_.expected_coop_txid_ = fin.txid();
  b_.expected_coop_txid_ = fin.txid();
  observe_weight(weight_hist_, fin);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "daric", params_.id,
                       sim::party_name(initiator), {obs::Attr::s("phase", "coop_close_posted")});
  env_.ledger().post(fin);
  return run_until_closed();
}

void DaricChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  const auto& archive = who == PartyId::kA ? archive_a_ : archive_b_;
  if (state >= archive.size()) throw std::out_of_range("no archived commit for that state");
  disputes_counter_->inc();
  observe_weight(weight_hist_, archive[state]);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "daric", params_.id,
                       sim::party_name(who),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(state)),
                        obs::Attr::i("revoked", state < a_.sn_ ? 1 : 0)});
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

bool DaricChannel::run_until_closed(Round max_rounds) {
  for (Round r = 0; r < max_rounds; ++r) {
    if (!a_.open_ && !b_.open_) return true;
    env_.advance_round();
  }
  return !a_.open_ && !b_.open_;
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
