#include "src/ledger/fee_market.h"

#include <cmath>

namespace daric::ledger {

Round inclusion_delay(const FeeMarketParams& params, double feerate) {
  if (feerate < params.floor_feerate) return -1;  // never relayed
  const double scaled =
      static_cast<double>(params.floor_delay) * params.floor_feerate / feerate;
  const Round base = std::max<Round>(1, static_cast<Round>(std::ceil(scaled)));
  return base * params.congestion;
}

const char* mempool_result_name(MempoolResult r) {
  switch (r) {
    case MempoolResult::kAccepted: return "accepted";
    case MempoolResult::kReplaced: return "replaced";
    case MempoolResult::kRejectedRbfTooCheap: return "rejected-rbf-too-cheap";
    case MempoolResult::kRejectedInvalid: return "rejected-invalid";
    case MempoolResult::kRejectedTooLarge: return "rejected-too-large";
  }
  return "unknown";
}

MempoolResult Mempool::submit(const tx::Transaction& t) {
  const tx::TxSize size = tx::measure(t);
  if (size.vbytes() > tx::kMaxTxVBytes) return MempoolResult::kRejectedTooLarge;

  const Amount fee = transaction_fee(t, ledger_.utxos());
  if (fee < 0) return MempoolResult::kRejectedInvalid;

  // Conflict scan: any pending entry sharing an input is a replacement
  // candidate; BIP 125 rule 3 requires strictly higher absolute fee.
  std::vector<std::list<Entry>::iterator> conflicts;
  Amount conflict_fee = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    for (const tx::TxIn& in : t.inputs) {
      const bool shares = std::any_of(
          it->tx.inputs.begin(), it->tx.inputs.end(),
          [&](const tx::TxIn& other) { return other.prevout == in.prevout; });
      if (shares) {
        conflicts.push_back(it);
        conflict_fee += it->fee;
        break;
      }
    }
  }
  if (!conflicts.empty() && fee <= conflict_fee) return MempoolResult::kRejectedRbfTooCheap;

  const double feerate = static_cast<double>(fee) / static_cast<double>(size.vbytes());
  const Round delay = inclusion_delay(params_, feerate);
  if (delay < 0) return MempoolResult::kRejectedRbfTooCheap;

  for (auto it : conflicts) entries_.erase(it);
  entries_.push_back({t, t.txid(), fee, ledger_.now() + delay});
  return conflicts.empty() ? MempoolResult::kAccepted : MempoolResult::kReplaced;
}

void Mempool::advance_round() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->ready <= ledger_.now()) {
      ledger_.post_with_delay(it->tx, 0);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  ledger_.advance_round();
}

bool Mempool::pending(const Hash256& txid) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.txid == txid; });
}

}  // namespace daric::ledger
