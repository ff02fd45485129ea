// Fee market + mempool model for the Sec. 6.1 analysis.
//
// Inclusion latency is a function of fee rate, calibrated to the paper's
// April-2022 operating point: a 1 sat/vB (floor-rate) transaction confirms
// in ~30 minutes, i.e. 3 ten-minute rounds. Replacement follows BIP 125
// rule 3: a conflicting transaction is accepted only if its *absolute* fee
// exceeds the incumbent's — the lever the delay attack abuses.
#pragma once

#include <list>

#include "src/ledger/ledger.h"
#include "src/tx/weight.h"

namespace daric::ledger {

struct FeeMarketParams {
  double floor_feerate = 1.0;  // sat/vB, network relay minimum
  Round floor_delay = 3;       // rounds to confirm at the floor rate
  Round congestion = 1;        // multiplies all delays (congested mempool)
};

/// Rounds until a transaction paying `feerate` sat/vB confirms.
Round inclusion_delay(const FeeMarketParams& params, double feerate);

enum class MempoolResult {
  kAccepted,
  kReplaced,             // RBF replaced one or more pending conflicts
  kRejectedRbfTooCheap,  // conflicts pending and fee not strictly greater
  kRejectedInvalid,      // inputs unknown / value not conserved
  kRejectedTooLarge,     // exceeds kMaxTxVBytes
};

const char* mempool_result_name(MempoolResult r);

/// A mempool in front of a Ledger. Entries wait out their fee-dependent
/// delay, then are posted to the ledger with zero adversary delay.
class Mempool {
 public:
  Mempool(Ledger& ledger, FeeMarketParams params) : ledger_(ledger), params_(params) {}

  MempoolResult submit(const tx::Transaction& t);
  /// Steps the mempool and the underlying ledger by one round.
  void advance_round();

  Round now() const { return ledger_.now(); }
  bool pending(const Hash256& txid) const;

 private:
  struct Entry {
    tx::Transaction tx;
    Hash256 txid;
    Amount fee = 0;
    Round ready = 0;
  };

  Ledger& ledger_;
  FeeMarketParams params_;
  std::list<Entry> entries_;
};

}  // namespace daric::ledger
