// The global ledger functionality L(Δ, Σ) of Appendix C.
//
// Posted transactions wait an adversary-chosen delay τ ≤ Δ (worst-case Δ by
// default, overridable per-post by tests playing the adversary), then are
// validated against the current UTXO set and either accepted or dropped.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/ledger/validation.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace daric::ledger {

/// A confirmed transaction as the ledger stores it: the only copy, with
/// the round it confirmed in and its txid, computed once when it was posted.
/// accepted() lists these in confirmation order; spender_of points into them.
class AcceptedTx {
 public:
  AcceptedTx(Round round, tx::Transaction tx, const Hash256& txid)
      : round_(round), tx_(std::move(tx)), txid_(txid) {}

  Round round() const { return round_; }
  const tx::Transaction& tx() const { return tx_; }
  /// tx().txid(), read rather than recomputed.
  const Hash256& txid() const { return txid_; }

 private:
  Round round_;
  tx::Transaction tx_;
  Hash256 txid_;
};

struct PostRecord {
  Hash256 txid;
  Round posted_round = 0;
  Round due_round = 0;
  bool processed = false;
  TxError result = TxError::kOk;  // meaningful once processed
};

class Ledger {
 public:
  Ledger(Round delta, const crypto::SignatureScheme& scheme)
      : delta_(delta), scheme_(scheme) {}
  // spent_by_ points into accepted_, so a copy would point into the original.
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  Round now() const { return now_; }
  Round delta() const { return delta_; }
  const crypto::SignatureScheme& scheme() const { return scheme_; }

  /// Wires the environment's observability surface (non-owning; both may
  /// be nullptr). Posts/confirmations/rejections then emit trace events
  /// and update the `ledger.*` counters and histograms.
  void set_obs(obs::Tracer* tracer, obs::Registry* metrics);

  /// Posts a transaction; it will be processed `delay` rounds from now
  /// (delay defaults to Δ, or to the installed delay policy's choice;
  /// must be in [0, Δ]). Returns its txid, which the post computes anyway.
  Hash256 post(const tx::Transaction& t);
  Hash256 post_with_delay(const tx::Transaction& t, Round delay);

  /// Adversary-chosen per-post confirmation delay τ ∈ [0, Δ] applied to
  /// every plain post(). The policy's return value is clamped to [0, Δ].
  /// Tests playing the adversary directly still use post_with_delay.
  using DelayPolicy = std::function<Round(const tx::Transaction& t, Round delta)>;
  void set_delay_policy(DelayPolicy policy) { delay_policy_ = std::move(policy); }

  /// Advances one round, processing all due posts in FIFO order. When
  /// enough are due and the scheme batches, their signatures are proved
  /// together first (see process_due); the verdicts stay those of the
  /// sequential pass.
  void advance_round();
  void advance_rounds(Round n);

  /// Faucet: creates a confirmed output out of thin air (channel funding
  /// sources; stands in for pre-existing coins).
  tx::OutPoint mint(Amount value, const tx::Condition& cond);

  bool is_confirmed(const Hash256& txid) const;
  std::optional<Round> confirmation_round(const Hash256& txid) const;
  bool is_unspent(const tx::OutPoint& op) const { return utxos_.contains(op); }
  std::optional<Utxo> find_utxo(const tx::OutPoint& op) const { return utxos_.find(op); }
  /// The confirmed transaction that spent `op`, or null while `op` is
  /// unspent. The pointer stays valid for the ledger's lifetime.
  const AcceptedTx* spender_of(const tx::OutPoint& op) const;
  std::optional<TxError> post_result(const Hash256& txid) const;

  /// Every confirmed transaction in confirmation order. Entries never move:
  /// a reference stays valid while later rounds confirm more.
  const std::deque<AcceptedTx>& accepted() const { return accepted_; }
  const UtxoSet& utxos() const { return utxos_; }
  Amount minted_total() const { return minted_total_; }
  Amount fees_total() const { return fees_total_; }

 private:
  struct Pending {
    tx::Transaction tx;
    Hash256 txid;  // tx.txid(), computed once at post time
    Round due = 0;
    std::size_t record_index = 0;
  };

  void process_due();
  tx::ProvenSigs prove_round_signatures(std::span<const Pending> due) const;

  Round delta_;
  const crypto::SignatureScheme& scheme_;
  Round now_ = 0;

  std::deque<Pending> queue_;
  std::vector<PostRecord> records_;
  DelayPolicy delay_policy_;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* txs_posted_ = nullptr;
  obs::Counter* txs_confirmed_ = nullptr;
  obs::Counter* txs_rejected_ = nullptr;
  obs::Histogram* confirm_delay_ = nullptr;
  obs::Histogram* txs_per_round_ = nullptr;

  UtxoSet utxos_;
  std::unordered_set<Hash256, Hash256Hasher> seen_txids_;
  std::unordered_map<Hash256, Round, Hash256Hasher> confirmed_round_;
  std::unordered_map<tx::OutPoint, const AcceptedTx*, tx::OutPointHasher> spent_by_;
  std::deque<AcceptedTx> accepted_;  // the one stored copy of each confirmed transaction
  Amount minted_total_ = 0;
  Amount fees_total_ = 0;
  std::uint64_t mint_counter_ = 0;
};

}  // namespace daric::ledger
