#include "src/ledger/ledger.h"

#include <algorithm>
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

Hash256 Ledger::post(const tx::Transaction& t) {
  Round delay = delta_;
  if (delay_policy_) {
    delay = delay_policy_(t, delta_);
    if (delay < 0) delay = 0;
    if (delay > delta_) delay = delta_;
  }
  return post_with_delay(t, delay);
}

Hash256 Ledger::post_with_delay(const tx::Transaction& t, Round delay) {
  if (delay < 0 || delay > delta_) throw std::invalid_argument("delay must be in [0, Δ]");
  const Hash256 id = t.txid();
  records_.push_back({id, now_, now_ + delay, false, TxError::kOk});
  queue_.push_back({t, id, now_ + delay, records_.size() - 1});
  if (txs_posted_) txs_posted_->inc();
  if (tracer_ && tracer_->enabled())
    tracer_->emit(now_, obs::EventKind::kTxPost, "ledger", {}, {},
                  {obs::Attr::s("txid", txid_label(id)),
                   obs::Attr::i("due", now_ + delay)});
  return id;
}

void Ledger::advance_round() {
  ++now_;
  process_due();
}

void Ledger::advance_rounds(Round n) {
  for (Round i = 0; i < n; ++i) advance_round();
}

namespace {

// A failed batch is cut into kBisectParts parts of at least kBisectMinPart
// claims each: per item, BM_SchnorrVerifyBatch/2 costs 0.98× a
// BM_SchnorrVerify and /8 0.73×, so a smaller part that passes would save
// the judging pass little more than its own batch costs.
constexpr std::size_t kBisectParts = 4;
constexpr std::size_t kBisectMinPart = 8;

// Proves what it can of a round's claims after their batch failed. A failed
// batch holds at least one bad claim and may hold many good ones: each of
// its parts is tried as a batch of its own, a part that passes is proven,
// and a part that fails is cut again, once every part of its level has
// been tried. When all parts but the last pass, the last holds the bad
// claims and is cut without a batch of its own. A passing part pays for
// itself (its batch costs at most 0.73× the single verifications it spares
// the judging pass); a failing one is lost work. So a part is tried only
// while the claims that failing parts verified stay within half the failed
// batch plus the claims that passing parts verified: a round whose claims
// are all bad pays at most half a batch on top of its failed batch and
// single verifications, and a round with one bad claim proves all claims
// but those of the smallest part around it (fewer than 4 × 8).
class Bisection {
 public:
  Bisection(const crypto::SignatureScheme& scheme, std::span<const crypto::SigBatchItem> items,
            std::span<const BytesView> keys, tx::ProvenSigs& proven)
      : scheme_(scheme), items_(items), keys_(keys), proven_(proven), budget_(items.size() / 2) {}

  // Claims [lo, hi) failed as one batch.
  void split(std::size_t lo, std::size_t hi) {
    const std::size_t n = hi - lo;
    if (n < kBisectParts * kBisectMinPart) return;
    std::size_t cut[kBisectParts + 1];
    for (std::size_t j = 0; j <= kBisectParts; ++j) cut[j] = lo + n * j / kBisectParts;
    bool failed[kBisectParts] = {};
    bool all_passed = true;
    for (std::size_t j = 0; j < kBisectParts; ++j) {
      if (j + 1 == kBisectParts && all_passed) {
        failed[j] = true;
        break;
      }
      const Probe r = probe(cut[j], cut[j + 1]);
      if (r == Probe::kSkipped) break;  // the other parts are no smaller
      failed[j] = r == Probe::kFailed;
      all_passed = all_passed && !failed[j];
    }
    for (std::size_t j = 0; j < kBisectParts; ++j)
      if (failed[j]) split(cut[j], cut[j + 1]);
  }

 private:
  enum class Probe { kPassed, kFailed, kSkipped };

  // Proves [lo, hi) as one batch, unless failing would overrun the budget.
  Probe probe(std::size_t lo, std::size_t hi) {
    const std::size_t n = hi - lo;
    if (n > budget_) return Probe::kSkipped;
    if (!scheme_.verify_batch(items_.subspan(lo, n))) {
      budget_ -= n;
      return Probe::kFailed;
    }
    for (std::size_t i = lo; i < hi; ++i)
      proven_.insert(keys_[i], items_[i].msg, items_[i].sig);
    budget_ += n;
    return Probe::kPassed;
  }

  const crypto::SignatureScheme& scheme_;
  std::span<const crypto::SigBatchItem> items_;
  std::span<const BytesView> keys_;
  tx::ProvenSigs& proven_;
  std::size_t budget_;  // claims that failing parts may still verify
};

}  // namespace

// Claim pass over a round's due transactions, in FIFO order. A transaction
// that repeats a txid or an outpoint of an earlier due one is skipped, and
// the rest are validated against the pre-round UTXO set with every signature
// check recorded as a claim instead of verified. The claims' keys are lifted
// together after the pass (Point::from_compressed_batch). Only the claims of
// transactions that pass and whose keys all lift are kept; they are proved
// together, and the set holds them only if the proof accepted them (or,
// after a failed batch, the parts that Bisection proves). The sequential
// pass in process_due stays the only judge of every verdict: the set can
// only spare it verifications whose answer is true.
tx::ProvenSigs Ledger::prove_round_signatures(std::span<const Pending> due) const {
  tx::ProvenSigs proven;
  if (due.size() < kClaimMinDue || !scheme_.supports_batch_verify()) return proven;
  std::unordered_set<Hash256, Hash256Hasher> txids;
  std::unordered_set<tx::OutPoint, tx::OutPointHasher> spent;
  std::vector<tx::SigClaim> claims;
  std::vector<std::size_t> tx_end;  // one past each passing transaction's last claim
  for (const Pending& p : due) {
    bool conflict = !txids.insert(p.txid).second;
    for (const tx::TxIn& in : p.tx.inputs) conflict = !spent.insert(in.prevout).second || conflict;
    if (conflict) continue;
    const std::size_t begin = claims.size();
    const ValidationContext ctx{utxos_, seen_txids_, now_, scheme_, {nullptr, &claims}};
    if (validate_transaction(p.tx, p.txid, ctx) != TxError::kOk) {
      claims.resize(begin);
      continue;
    }
    tx_end.push_back(claims.size());
  }

  std::vector<BytesView> keys;
  keys.reserve(claims.size());
  for (const tx::SigClaim& c : claims) keys.push_back(c.pubkey);
  const std::vector<std::optional<crypto::Point>> points =
      crypto::Point::from_compressed_batch(keys);
  std::vector<crypto::SigBatchItem> items;
  std::vector<BytesView> item_keys;
  items.reserve(claims.size());
  item_keys.reserve(claims.size());
  std::size_t begin = 0;
  for (const std::size_t end : tx_end) {
    const bool lifted = std::all_of(points.begin() + static_cast<std::ptrdiff_t>(begin),
                                    points.begin() + static_cast<std::ptrdiff_t>(end),
                                    [](const auto& pt) { return pt.has_value(); });
    for (std::size_t i = begin; lifted && i < end; ++i) {
      items.push_back({*points[i], claims[i].digest, std::move(claims[i].sig)});
      item_keys.push_back(keys[i]);
    }
    begin = end;
  }
  if (items.empty()) return proven;
  if (scheme_.verify_batch(items)) {
    for (std::size_t i = 0; i < items.size(); ++i)
      proven.insert(item_keys[i], items[i].msg, items[i].sig);
  } else {
    Bisection(scheme_, items, item_keys, proven).split(0, items.size());
  }
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
  for (Pending& p : due) {
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
    const AcceptedTx& stored = accepted_.emplace_back(now_, std::move(p.tx), id);
    const tx::Transaction& t = stored.tx();
    for (const tx::TxIn& in : t.inputs) {
      utxos_.erase(in.prevout);
      spent_by_[in.prevout] = &stored;
    }
    for (std::uint32_t i = 0; i < t.outputs.size(); ++i) {
      utxos_.add({{id, i}, t.outputs[i], now_});
    }
    seen_txids_.insert(id);
    confirmed_round_[id] = now_;
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

const AcceptedTx* Ledger::spender_of(const tx::OutPoint& op) const {
  const auto it = spent_by_.find(op);
  return it == spent_by_.end() ? nullptr : it->second;
}

std::optional<TxError> Ledger::post_result(const Hash256& txid) const {
  // Latest record for this txid (a tx may be re-posted).
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txid == txid && it->processed) return it->result;
  }
  return std::nullopt;
}

}  // namespace daric::ledger
