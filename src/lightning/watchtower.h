// Lightning watchtower: must retain per-state punishment material, so its
// storage grows linearly with the number of channel updates — the O(n)
// entry in Table 1's watchtower column that Daric's O(1) tower contrasts.
#pragma once

#include "src/lightning/protocol.h"

namespace daric::lightning {

class LightningWatchtower {
 public:
  LightningWatchtower(sim::PartyId client, tx::OutPoint fund_op, BytesView client_payout_pk)
      : client_(client), fund_op_(fund_op),
        payout_pk_(client_payout_pk.begin(), client_payout_pk.end()) {}

  /// Handed over after every update: everything needed to punish the
  /// counterparty's commit for `state` (kept forever — the O(n) term).
  struct StatePackage {
    std::uint32_t state = 0;
    Hash256 counterparty_commit_txid;
    script::Script to_local_script;
    Amount to_local_cash = 0;
    crypto::Scalar revocation_secret;
  };
  void add_package(StatePackage pkg) { packages_.push_back(std::move(pkg)); }

  /// Called at the end of every round: claims a revoked commit's to_local.
  void on_round(ledger::Ledger& l);
  /// Bytes this tower must persist for the channel it watches.
  std::size_t storage_bytes() const;
  bool reacted() const { return reacted_; }

 private:
  sim::PartyId client_;
  tx::OutPoint fund_op_;
  Bytes payout_pk_;
  std::vector<StatePackage> packages_;
  bool reacted_ = false;
};

/// Builds the tower package for the counterparty's commit at `state`
/// (requires the state to be revoked already, i.e. state < sn).
LightningWatchtower::StatePackage make_ln_tower_package(const LightningChannel& ch,
                                                        sim::PartyId client,
                                                        std::uint32_t state);

}  // namespace daric::lightning
