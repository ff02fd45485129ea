// Cerberus channel baseline (Avarikioti et al., FC 2020): Lightning-style
// duplicated commitments whose punishment is delegated to an *incentivized*
// watchtower — the parties pre-sign, per state, a complete revocation
// transaction that claims both commit outputs and pays the tower a reward.
// Party and tower storage are O(n) (Table 1); the commit transaction's
// 2-output layout reproduces Appendix H.6's 772-WU non-collaborative close.
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/channel/watchtower.h"
#include "src/daric/wallet.h"
#include "src/tx/transaction.h"

namespace daric::cerberus {

/// Commit-output script (H.6, 115 bytes):
///   IF 2 <rev1> <rev2> 2 CHECKMULTISIG ELSE <T> CSV DROP <delayed> CHECKSIG ENDIF
script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk);

class CerberusChannel;

/// The incentivized tower: it holds one fully-signed revocation transaction
/// per revoked state and collects `reward` when it fires one.
class CerberusWatchtower : public channel::Watchtower {
 public:
  explicit CerberusWatchtower(tx::OutPoint fund_op) : fund_op_(fund_op) {}

  struct RevocationPackage {
    Hash256 revoked_commit_txid;
    tx::Transaction revocation;  // fully signed, ready to post
  };
  void add_package(RevocationPackage pkg) { packages_.push_back(std::move(pkg)); }

  std::size_t storage_bytes() const override;
  bool reacted() const override { return reacted_; }

 protected:
  void monitor(ledger::Ledger& l) override;

 private:
  tx::OutPoint fund_op_;
  std::vector<RevocationPackage> packages_;
  bool reacted_ = false;
};

/// The channel-level monitor follows the monitor flag; the two towers are
/// separate round hooks with their own availability (Watchtower::set_online).
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
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? pub_a_.main : pub_b_.main;
  }

  std::size_t party_storage_bytes(sim::PartyId who) const;  // O(n)
  CerberusWatchtower& tower(sim::PartyId who) {
    return who == sim::PartyId::kA ? tower_a_ : tower_b_;
  }
  const tx::Transaction& latest_commit(sim::PartyId who) const {
    return who == sim::PartyId::kA ? commit_a_ : commit_b_;
  }
  tx::OutPoint funding_outpoint() const { return fund_op_; }
  Bytes tower_reward_pk() const { return tower_key_.pk.compressed(); }
  Amount tower_reward() const { return tower_reward_; }

 private:
  struct CommitRecord {
    tx::Transaction tx;
    script::Script out0_script, out1_script;
    sim::PartyId owner;
    std::uint32_t state = 0;
  };

  crypto::KeyPair rev_keypair(sim::PartyId owner, std::uint32_t state, int leg) const;
  tx::Transaction build_commit(sim::PartyId owner, std::uint32_t state,
                               const channel::StateVec& st, script::Script* s0,
                               script::Script* s1) const;
  tx::Transaction build_revocation(const CommitRecord& rec, sim::PartyId victim) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();

  Amount tower_reward_;
  daricch::DaricPubKeys pub_a_, pub_b_;
  crypto::KeyPair main_a_, main_b_, delayed_a_, delayed_b_, tower_key_;

  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  tx::Transaction commit_a_, commit_b_;
  std::vector<CommitRecord> archive_;
  // Each party's stash of fully-signed revocation txs (the O(n) term).
  std::vector<tx::Transaction> revocations_held_by_a_, revocations_held_by_b_;

  CerberusWatchtower tower_a_{tx::OutPoint{}};
  CerberusWatchtower tower_b_{tx::OutPoint{}};

  std::optional<Hash256> pending_txid_;
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
