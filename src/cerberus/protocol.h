// Cerberus channel baseline (Avarikioti et al., FC 2020): Lightning-style
// duplicated commitments whose punishment is delegated to an *incentivized*
// watchtower — the parties pre-sign, per state, a complete revocation
// transaction that claims both commit outputs and pays the tower a reward.
// Party and tower storage are O(n) (Table 1); the commit transaction's
// 2-output layout reproduces Appendix H.6's 772-WU non-collaborative close.
#pragma once

#include "src/cerberus/scripts.h"
#include "src/channel/engine.h"
#include "src/tx/transaction.h"

namespace daric::cerberus {

/// The incentivized tower: it holds one fully-signed revocation transaction
/// per revoked state and collects `reward` when it fires one.
class CerberusWatchtower {
 public:
  explicit CerberusWatchtower(tx::OutPoint fund_op) : fund_op_(fund_op) {}

  struct RevocationPackage {
    Hash256 revoked_commit_txid;
    tx::Transaction revocation;  // fully signed, ready to post
  };
  void add_package(RevocationPackage pkg) { packages_.push_back(std::move(pkg)); }

  /// Called at the end of every round: posts the revocation of a revoked
  /// commit that spent the funding output.
  void on_round(ledger::Ledger& l);
  /// Bytes this tower must persist for the channel it watches.
  std::size_t storage_bytes() const;
  bool reacted() const { return reacted_; }

 private:
  tx::OutPoint fund_op_;
  std::vector<RevocationPackage> packages_;
  bool reacted_ = false;
};

/// The channel-level monitor follows the monitor flag; the two towers are
/// separate round hooks that keep watching while it is off.
class CerberusChannel : public channel::Engine {
 public:
  /// `tower_reward` is carved out of the cheater's punished funds.
  CerberusChannel(sim::Environment& env, channel::ChannelParams params, Amount tower_reward);

  bool create() override;
  bool update(const channel::StateVec& next) override;
  bool cooperative_close(sim::PartyId initiator) override;
  void force_close(sim::PartyId who) override;
  void publish_old_commit(sim::PartyId who, std::uint32_t state) override;

  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override { return keys_.of(who).payout; }

  std::size_t party_storage_bytes(sim::PartyId who) const;  // O(n)
  CerberusWatchtower& tower(sim::PartyId who) {
    return who == sim::PartyId::kA ? tower_a_ : tower_b_;
  }
  const tx::Transaction& latest_commit(sim::PartyId who) const {
    return who == sim::PartyId::kA ? commit_a_ : commit_b_;
  }
  Bytes tower_reward_pk() const { return keys_.tower.pk.compressed(); }
  Amount tower_reward() const { return tower_reward_; }

 private:
  struct CommitRecord {
    Commit commit;  // fully signed
    sim::PartyId owner;
    std::uint32_t state = 0;
  };

  /// The revocation of `rec`, its two inputs signed by the revocation legs.
  tx::Transaction sign_revocation(const CommitRecord& rec, sim::PartyId victim) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();

  Amount tower_reward_;
  Keys keys_;

  std::uint32_t sn_ = 0;
  channel::StateVec st_;

  tx::Transaction commit_a_, commit_b_;
  std::vector<CommitRecord> archive_;
  // Each party's stash of fully-signed revocation txs (the O(n) term).
  std::vector<tx::Transaction> revocations_held_by_a_, revocations_held_by_b_;

  CerberusWatchtower tower_a_{tx::OutPoint{}};
  CerberusWatchtower tower_b_{tx::OutPoint{}};

  /// A latest commit's output, spent by `owner`'s delayed key after T.
  struct PendingSweep {
    tx::OutPoint op;
    script::Script script;
    sim::PartyId owner;
    Amount cash = 0;
    Hash256 txid;  // once posted
  };
  std::vector<PendingSweep> sweeps_;
  Round sweep_round_ = 0;
  bool sweeps_posted_ = false;
};

}  // namespace daric::cerberus
