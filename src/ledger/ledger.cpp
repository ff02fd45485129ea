#include "src/ledger/ledger.h"

#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "src/crypto/sha256.h"
#include "src/tx/weight.h"
#include "src/util/serialize.h"

namespace daric::ledger {

namespace {

/// Short txid label for trace attributes (first 8 hex chars).
std::string txid_label(const Hash256& id) { return id.hex().substr(0, 8); }

// Below this many due transactions a round has no claim pass. BM_LedgerRound
// (bench/bench_crypto.cpp, Release, one pinned CPU of a 4-CPU VM), run with
// the constant set to 1 and to SIZE_MAX: with the pass, rounds of 1/2/3/4
// due two-of-two spends took 1.04/0.90/0.87/0.90× the time without it
// (medians of eight alternating runs; the pass was ahead in only 5–6 of the
// 8 at each size), and at 188 due 21.3 against 45.1 ms. No perfbench
// workload has a round of three due, so 3 and 4 pick the same rounds there
// (DESIGN.md counts them). Any claims go to one verify_batch: it verifies a
// single item singly, and per item BM_SchnorrVerifyBatch/2 costs 0.98× a
// BM_SchnorrVerify and /8 0.73×, so no claim count favours single checks.
constexpr std::size_t kClaimMinDue = 4;

}  // namespace

void Ledger::set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  if (metrics) {
    txs_posted_ = &metrics->counter("ledger.tx.posted");
    txs_confirmed_ = &metrics->counter("ledger.tx.confirmed");
    txs_rejected_ = &metrics->counter("ledger.tx.rejected");
    confirm_delay_ = &metrics->histogram("ledger.confirm_delay_rounds");
    txs_per_round_ = &metrics->histogram("ledger.txs_per_round");
  } else {
    txs_posted_ = txs_confirmed_ = txs_rejected_ = nullptr;
    confirm_delay_ = txs_per_round_ = nullptr;
  }
}

void Ledger::post(const tx::Transaction& t) {
  Round delay = delta_;
  if (delay_policy_) {
    delay = delay_policy_(t, delta_);
    if (delay < 0) delay = 0;
    if (delay > delta_) delay = delta_;
  }
  post_with_delay(t, delay);
}

void Ledger::post_with_delay(const tx::Transaction& t, Round delay) {
  if (delay < 0 || delay > delta_) throw std::invalid_argument("delay must be in [0, Δ]");
  const Hash256 id = t.txid();
  records_.push_back({id, now_, now_ + delay, false, TxError::kOk});
  queue_.push_back({t, id, now_ + delay, records_.size() - 1});
  if (txs_posted_) txs_posted_->inc();
  if (tracer_ && tracer_->enabled())
    tracer_->emit(now_, obs::EventKind::kTxPost, "ledger", {}, {},
                  {obs::Attr::s("txid", txid_label(id)),
                   obs::Attr::i("due", now_ + delay)});
}

void Ledger::advance_round() {
  ++now_;
  process_due();
}

void Ledger::advance_rounds(Round n) {
  for (Round i = 0; i < n; ++i) advance_round();
}

// Claim pass over a round's due transactions, in FIFO order. A transaction
// that repeats a txid or an outpoint of an earlier due one is skipped, and
// the rest are validated against the pre-round UTXO set with every signature
// check recorded as a claim instead of verified. Only the claims of
// transactions that pass are kept; they are proved together, and the set
// holds them only if the proof accepted them. The sequential pass in
// process_due stays the only judge of every verdict: the set can only spare
// it verifications whose answer is true.
tx::ProvenSigs Ledger::prove_round_signatures(std::span<const Pending> due) const {
  tx::ProvenSigs proven;
  if (due.size() < kClaimMinDue || !scheme_.supports_batch_verify()) return proven;
  std::unordered_set<Hash256, Hash256Hasher> txids;
  std::unordered_set<tx::OutPoint, tx::OutPointHasher> spent;
  std::vector<crypto::SigBatchItem> claims;
  std::vector<crypto::SigBatchItem> tx_claims;
  for (const Pending& p : due) {
    bool conflict = !txids.insert(p.txid).second;
    for (const tx::TxIn& in : p.tx.inputs) conflict = !spent.insert(in.prevout).second || conflict;
    if (conflict) continue;
    tx_claims.clear();
    const ValidationContext ctx{utxos_, seen_txids_, now_, scheme_, {nullptr, &tx_claims}};
    if (validate_transaction(p.tx, p.txid, ctx) != TxError::kOk) continue;
    claims.insert(claims.end(), std::make_move_iterator(tx_claims.begin()),
                  std::make_move_iterator(tx_claims.end()));
  }
  if (!claims.empty() && scheme_.verify_batch(claims))
    for (const crypto::SigBatchItem& c : claims) proven.insert(c);
  return proven;
}

void Ledger::process_due() {
  // FIFO over the queue; entries due now (or earlier) are processed.
  std::vector<Pending> due;
  std::deque<Pending> keep;
  for (Pending& p : queue_) {
    if (p.due > now_)
      keep.push_back(std::move(p));
    else
      due.push_back(std::move(p));
  }
  queue_ = std::move(keep);
  const tx::ProvenSigs proven = prove_round_signatures(due);
  std::uint64_t confirmed_this_round = 0;
  for (const Pending& p : due) {
    const TxError err = validate_transaction(
        p.tx, p.txid, {utxos_, seen_txids_, now_, scheme_, {&proven, nullptr}});
    records_[p.record_index].processed = true;
    records_[p.record_index].result = err;
    if (err != TxError::kOk) {
      if (txs_rejected_) txs_rejected_->inc();
      if (tracer_ && tracer_->enabled())
        tracer_->emit(now_, obs::EventKind::kTxReject, "ledger", {}, {},
                      {obs::Attr::s("txid", txid_label(p.txid)),
                       obs::Attr::s("error", tx_error_name(err))});
      continue;
    }
    ++confirmed_this_round;
    if (txs_confirmed_) txs_confirmed_->inc();
    if (confirm_delay_) confirm_delay_->observe(now_ - records_[p.record_index].posted_round);
    if (tracer_ && tracer_->enabled())
      tracer_->emit(now_, obs::EventKind::kTxConfirm, "ledger", {}, {},
                    {obs::Attr::s("txid", txid_label(p.txid)),
                     obs::Attr::i("weight",
                                  static_cast<std::int64_t>(tx::measure(p.tx).weight())),
                     obs::Attr::i("posted", records_[p.record_index].posted_round)});

    const Hash256& id = p.txid;
    fees_total_ += transaction_fee(p.tx, utxos_);
    for (const tx::TxIn& in : p.tx.inputs) {
      utxos_.erase(in.prevout);
      spent_by_[in.prevout] = id;
    }
    for (std::uint32_t i = 0; i < p.tx.outputs.size(); ++i) {
      utxos_.add({{id, i}, p.tx.outputs[i], now_});
    }
    seen_txids_.insert(id);
    confirmed_round_[id] = now_;
    tx_by_id_[id] = p.tx;
    accepted_.push_back({now_, p.tx});
  }
  if (txs_per_round_) txs_per_round_->observe(static_cast<std::int64_t>(confirmed_this_round));
}

tx::OutPoint Ledger::mint(Amount value, const tx::Condition& cond) {
  if (value <= 0) throw std::invalid_argument("mint value must be positive");
  // Synthesize a unique txid from a counter (not a real transaction).
  Writer w;
  w.u64le(mint_counter_++);
  const Hash256 id = crypto::Sha256::tagged("daric/mint", w.data());
  const tx::OutPoint op{id, 0};
  utxos_.add({op, {value, cond}, now_});
  seen_txids_.insert(id);
  minted_total_ += value;
  return op;
}

bool Ledger::is_confirmed(const Hash256& txid) const { return confirmed_round_.contains(txid); }

std::optional<Round> Ledger::confirmation_round(const Hash256& txid) const {
  const auto it = confirmed_round_.find(txid);
  if (it == confirmed_round_.end()) return std::nullopt;
  return it->second;
}

std::optional<tx::Transaction> Ledger::spender_of(const tx::OutPoint& op) const {
  const auto it = spent_by_.find(op);
  if (it == spent_by_.end()) return std::nullopt;
  return tx_by_id_.at(it->second);
}

std::optional<TxError> Ledger::post_result(const Hash256& txid) const {
  // Latest record for this txid (a tx may be re-posted).
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txid == txid && it->processed) return it->result;
  }
  return std::nullopt;
}

}  // namespace daric::ledger
