// The Daric protocol π of Appendix D: Create, Update, Close, Punish and
// ForceClose, driven over the simulation environment with 1-round message
// delivery and the ledger functionality L(Δ, Σ).
//
// DaricParty owns the per-party stores Γ^P (latest channel state), Γ'^P
// (in-flight update) and Θ^P (counterparty's floating revocation
// signature). DaricChannel orchestrates the two parties' message exchanges
// and exposes misbehavior injection for tests: aborting mid-update and
// publishing revoked commits.
#pragma once

#include <optional>

#include "src/channel/params.h"
#include "src/channel/state.h"
#include "src/crypto/point.h"
#include "src/daric/builders.h"
#include "src/daric/skeleton.h"
#include "src/obs/metrics.h"
#include "src/sim/environment.h"
#include "src/sim/party.h"

namespace daric::daricch {

enum class CloseOutcome { kNone, kCooperative, kNonCollaborative, kPunished };

struct WatchtowerPackage;  // defined in daric/watchtower.h
struct ChannelSnapshot;    // defined in daric/persistence.h
class DaricParty;

const char* close_outcome_name(CloseOutcome o);

/// Durability callback wired into the protocol's fsync points. persist() is
/// invoked at every moment the party's state is about to become binding —
/// right before a revocation signature is externalized, and after a state
/// promotion — and must make the snapshot durable before returning (the
/// chaos drills crash parties immediately after these calls and recover
/// from whatever the hook synced). closed() fires once the channel resolves
/// so the store can drop the channel's records.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;
  virtual void persist(const DaricParty& p) = 0;
  virtual void closed(const DaricParty& /*p*/) {}
};

/// Misbehavior knobs (all zero/false = honest).
struct Behavior {
  /// Go silent before sending the k-th update message (1..6); 0 = honest.
  int abort_update_before_msg = 0;
  /// Refuse to countersign a cooperative close.
  bool refuse_close = false;
};

class DaricParty {
 public:
  DaricParty(sim::PartyId id, const channel::ChannelParams& params, sim::Environment& env,
             tx::OutPoint funding_source, crypto::KeyPair funding_key);

  sim::PartyId id() const { return id_; }
  const DaricKeys& keys() const { return keys_; }
  const DaricPubKeys& pub() const { return pub_own_; }
  const sim::Environment& environment() const { return env_; }
  const channel::ChannelParams& params() const { return params_; }

  // --- observable state -------------------------------------------------
  std::uint32_t state_number() const { return sn_; }
  const channel::StateVec& state() const { return st_; }
  /// γ.st′ — the in-flight state (meaningful while flag() == kUpdating).
  const channel::StateVec& pending_state() const { return st_prime_; }
  channel::ChannelFlag flag() const { return flag_; }
  CloseOutcome outcome() const { return outcome_; }
  std::optional<Round> closed_round() const { return closed_round_; }
  bool channel_open() const { return open_; }
  /// Bytes of persistent storage the party currently holds (Table 1).
  std::size_t storage_bytes() const;

  /// End-of-round monitor: the Punish phase of Appendix D. Its round hook
  /// sleeps through the rounds in which this would do nothing (idle()) and
  /// wakes when the funding output is spent.
  void on_round();

  /// Crash/downtime control: an offline party's Punish monitor misses
  /// rounds (Theorem 1's liveness precondition is a bound on these gaps).
  void set_online(bool online);
  bool online() const { return online_; }

  /// Durable-store hook; nullptr (the default) keeps the party ephemeral.
  void set_durability_hook(DurabilityHook* hook) { durability_ = hook; }
  DurabilityHook* durability_hook() const { return durability_; }

  /// Offline-gap accounting for Theorem 1's T−Δ bound: while the channel is
  /// open and the party offline, every round counts as missed. The metrics
  /// instruments are optional (sweeps bind them per party; see obs).
  void bind_monitor_metrics(obs::Counter* missed, obs::Gauge* max_gap) {
    missed_counter_ = missed;
    max_gap_gauge_ = max_gap;
  }
  std::int64_t missed_rounds() const { return missed_rounds_; }
  std::int64_t max_offline_gap() const { return max_gap_; }

  /// ForceClose^P(id): posts the newest fully-signed own commit.
  void force_close();

  /// Registers a wallet UTXO used to fee-bump the revocation at punish
  /// time (requires params.feeable_revocations; see daric/fees.h).
  void set_fee_source(const struct FeeSource& source, Amount fee);

  Behavior behavior;

 private:
  friend class DaricChannel;
  friend class DaricWatchtower;
  friend WatchtowerPackage make_watchtower_package(const DaricParty&);
  friend ChannelSnapshot snapshot_party(const DaricParty&);
  friend ChannelSnapshot snapshot_party_durable(const DaricParty&);

  struct FloatingSplit {
    tx::Transaction body;  // [TX_SP,i]‾ — unbound
    Bytes sig_a, sig_b;    // ANYPREVOUT wire signatures (SP keys)
    bool complete() const { return !sig_a.empty() && !sig_b.empty(); }
  };

  /// Precomputed wNAF tables for the counterparty's four fixed keys. Every
  /// update-path verification targets one of these, so the per-verification
  /// table build (and the 33-byte point decompression) amortizes to zero.
  struct PeerTables {
    crypto::PrecomputedPoint main, sp, rv, rv2;
  };
  /// Lazily built from pub_other_ on first use (pub_other_ is only known
  /// after createInfo).
  const PeerTables& peer_tables() const;

  // Appendix-D helpers executed locally.
  void monitor();
  /// True when on_round() would change nothing: the channel is not open, or
  /// it is open with the party online, no offline gap left to reset, no
  /// split or revocation pending and the funding output unspent.
  bool idle() const;
  /// Puts the round hook to sleep exactly when idle().
  void refresh_wake();
  void commit_to_published_split(const tx::Transaction& spender, const FloatingSplit& split,
                                 const script::Script& commit_script);
  void try_punish(const tx::Transaction& spender);
  bool is_counterparty_commit(const tx::Transaction& spender, std::uint32_t* state_out,
                              script::Script* script_out) const;
  Bytes sign_own_revocation(const tx::Transaction& bound_body) const;

  sim::PartyId id_;
  channel::ChannelParams params_;
  sim::Environment& env_;
  sim::Environment::HookId hook_ = 0;  // registered by DaricChannel

  // Cached registry handles (one name lookup at construction; the punish
  // monitor and close paths then never touch the registry mutex).
  obs::Counter* closed_counter_;
  obs::Counter* punish_counter_;
  obs::Counter* force_close_counter_;
  obs::Histogram* weight_hist_;

  // Funding source (the paper's tid_P) and its key.
  tx::OutPoint funding_source_;
  crypto::KeyPair funding_key_;

  DaricKeys keys_;
  DaricPubKeys pub_own_;
  DaricPubKeys pub_other_;
  mutable std::optional<PeerTables> peer_;

  // Γ^P.
  bool open_ = false;
  bool online_ = true;
  channel::StateVec st_;
  std::uint32_t sn_ = 0;
  channel::ChannelFlag flag_ = channel::ChannelFlag::kStable;
  channel::StateVec st_prime_;
  tx::Transaction tx_fu_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;
  tx::Transaction cm_own_;  // fully signed TX^P_CM,sn
  script::Script cm_own_script_;
  tx::Transaction cm_other_body_;  // [TX^Q_CM,sn]
  script::Script cm_other_script_;
  FloatingSplit split_;

  // Γ'^P (valid while flag == kUpdating).
  std::optional<tx::Transaction> cm_own_new_;
  script::Script cm_own_new_script_;
  tx::Transaction cm_other_new_body_;
  script::Script cm_other_new_script_;
  FloatingSplit split_new_;

  // Θ^P: counterparty's ANYPREVOUT signature on TX^P_RV,(sn-1).
  Bytes theta_sig_;

  // Close bookkeeping.
  /// Records the outcome and notifies the durability hook (store cleanup).
  void close_with(CloseOutcome outcome, Round round);
  CloseOutcome outcome_ = CloseOutcome::kNone;
  std::optional<Round> closed_round_;
  std::optional<Hash256> expected_coop_txid_;

  // Durability + monitor-gap instrumentation.
  DurabilityHook* durability_ = nullptr;
  obs::Counter* missed_counter_ = nullptr;
  obs::Gauge* max_gap_gauge_ = nullptr;
  std::int64_t missed_rounds_ = 0;
  std::int64_t offline_gap_ = 0;
  std::int64_t max_gap_ = 0;

  // Pending split publication (non-collaborative close in progress).
  struct PendingSplit {
    tx::Transaction bound;  // ready-to-post split
    Round post_round = 0;
    bool posted = false;
  };
  std::optional<PendingSplit> pending_split_;
  std::optional<Hash256> pending_revocation_txid_;

  // Optional fee bumping for the punishment transaction.
  std::optional<std::pair<tx::OutPoint, Amount>> fee_outpoint_value_;
  Amount punish_fee_ = 0;
  std::optional<crypto::KeyPair> fee_key_;
};

/// Orchestrates the two parties over the environment. Each protocol message
/// costs one network round (F_GDC's 1-round delivery).
class DaricChannel {
 public:
  DaricChannel(sim::Environment& env, channel::ChannelParams params);

  /// Create phase (6 steps). Returns true once TX_FU confirmed.
  bool create();

  /// Update phase: P proposes the next state. Returns true on UPDATED at
  /// both sides; false if an injected abort triggered ForceClose.
  bool update(const channel::StateVec& next, sim::PartyId proposer = sim::PartyId::kA);

  /// Collaborative close via the modified split TX_SP̄.
  bool cooperative_close(sim::PartyId initiator = sim::PartyId::kA);

  /// Fraud injection: `who` publishes its own commit of old state `state`.
  /// Requires that state to have existed; uses the test-harness archive.
  void publish_old_commit(sim::PartyId who, std::uint32_t state);

  /// Attacker endgame: binds the archived split of `state` to `who`'s
  /// already-published commit of that state and posts it with `delay`.
  /// Only confirms once the commit's CSV (T) has matured — this is what a
  /// cheater sweeps when every monitor stays dark past T − Δ.
  void publish_old_split(sim::PartyId who, std::uint32_t state, Round delay = 1);

  /// Runs rounds until both parties consider the channel closed (or limit).
  bool run_until_closed(Round max_rounds = 200);

  DaricParty& party(sim::PartyId p) { return p == sim::PartyId::kA ? a_ : b_; }
  const channel::ChannelParams& params() const { return params_; }
  tx::OutPoint funding_outpoint() const { return a_.fund_op_; }

  /// Test-harness archive of every signed own-commit (what a *dishonest*
  /// party would have squirrelled away). Not counted in storage_bytes().
  const std::vector<tx::Transaction>& archived_commits(sim::PartyId p) const {
    return p == sim::PartyId::kA ? archive_a_ : archive_b_;
  }

 private:
  /// One delivery attempt per round; re-sends on drop up to the retry
  /// budget. Returns delivered copies (0 = the abort timeout fired).
  int send_reliable(DaricParty& sender, const char* type);
  /// send_reliable, then abort-to-force-close by `sender` on timeout.
  /// Returns 0 after closing the channel, else the delivered copy count.
  int send_or_close(DaricParty& sender, const char* type);

  sim::Environment& env_;
  channel::ChannelParams params_;

  // Cached registry handles for the channel-level paths (update/create).
  obs::Counter* retries_counter_;
  obs::Counter* opened_counter_;
  obs::Counter* updates_counter_;
  obs::Counter* disputes_counter_;
  obs::Histogram* weight_hist_;

  DaricParty a_, b_;
  /// Per-channel template skeletons (declared after a_/b_: initialized from
  /// their derived public keys).
  TemplateCache tcache_;
  std::vector<tx::Transaction> archive_a_, archive_b_;

  // What a dishonest party would also keep: every state's floating split
  // and both commit scripts it can bind to (the sweep after CSV maturity).
  struct ArchivedSplit {
    tx::Transaction body;
    Bytes sig_a, sig_b;
    script::Script commit_script_a, commit_script_b;
  };
  std::vector<ArchivedSplit> archive_splits_;
};

/// Builds the transaction that redeems one HTLC output of a confirmed split
/// transaction (payee path, preimage) — the paper's Redeem' transaction.
tx::Transaction build_htlc_redeem(const tx::Transaction& split, std::size_t htlc_index,
                                  const channel::StateVec& st, const DaricParty& payee,
                                  const DaricPubKeys& a, const DaricPubKeys& b,
                                  BytesView preimage);

/// Claimback' transaction: payer path after the HTLC timeout.
tx::Transaction build_htlc_claimback(const tx::Transaction& split, std::size_t htlc_index,
                                     const channel::StateVec& st, const DaricParty& payer,
                                     const DaricPubKeys& a, const DaricPubKeys& b);

}  // namespace daric::daricch
