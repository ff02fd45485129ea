// The global ledger functionality L(Δ, Σ) of Appendix C.
//
// Posted transactions wait an adversary-chosen delay τ ≤ Δ (worst-case Δ by
// default, overridable per-post by tests playing the adversary), then are
// validated against the current UTXO set and either accepted or dropped.
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "src/ledger/validation.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace daric::ledger {

struct AcceptedTx {
  Round round = 0;
  tx::Transaction tx;
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

  Round now() const { return now_; }
  Round delta() const { return delta_; }
  const crypto::SignatureScheme& scheme() const { return scheme_; }

  /// Wires the environment's observability surface (non-owning; both may
  /// be nullptr). Posts/confirmations/rejections then emit trace events
  /// and update the `ledger.*` counters and histograms.
  void set_obs(obs::Tracer* tracer, obs::Registry* metrics);

  /// Posts a transaction; it will be processed `delay` rounds from now
  /// (delay defaults to Δ, or to the installed delay policy's choice;
  /// must be in [0, Δ]).
  void post(const tx::Transaction& t);
  void post_with_delay(const tx::Transaction& t, Round delay);

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
  /// The confirmed transaction that spent `op`, if any.
  std::optional<tx::Transaction> spender_of(const tx::OutPoint& op) const;
  std::optional<TxError> post_result(const Hash256& txid) const;

  const std::vector<AcceptedTx>& accepted() const { return accepted_; }
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
  std::unordered_map<tx::OutPoint, Hash256, tx::OutPointHasher> spent_by_;
  std::unordered_map<Hash256, tx::Transaction, Hash256Hasher> tx_by_id_;
  std::vector<AcceptedTx> accepted_;
  Amount minted_total_ = 0;
  Amount fees_total_ = 0;
  std::uint64_t mint_counter_ = 0;
};

}  // namespace daric::ledger
