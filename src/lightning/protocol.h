// Lightning channel baseline: duplicated per-party commitment transactions,
// per-state revocation secrets, O(n) party/watchtower storage.
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/lightning/scripts.h"
#include "src/tx/transaction.h"

namespace daric::lightning {

class LightningChannel : public channel::Engine {
 public:
  LightningChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;  // 3 message rounds
  bool cooperative_close(sim::PartyId initiator) override;
  void force_close(sim::PartyId who) override;
  void publish_old_commit(sim::PartyId who, std::uint32_t state) override;

  std::uint32_t state_number() const override { return sn_; }
  const channel::StateVec& state() const { return st_; }

  /// O(n): stored counterparty revocation secrets dominate.
  std::size_t party_storage_bytes(sim::PartyId who) const;
  /// Latest commitment tx of `who` (size measurements).
  const tx::Transaction& latest_commit(sim::PartyId who) const;
  /// Archived (signed) commit of `owner` at `state` plus its to_local script.
  const tx::Transaction& archived_commit(sim::PartyId owner, std::uint32_t state) const;
  const script::Script& archived_to_local(sim::PartyId owner, std::uint32_t state) const;
  /// Revocation secret of `owner`'s commit #state, as revealed to the
  /// counterparty (throws unless state < sn, i.e. actually revoked).
  crypto::Scalar revealed_secret(sim::PartyId owner, std::uint32_t state) const;
  BytesView payout_pk(sim::PartyId who) const override { return keys_.of(who).payout; }

 private:
  struct CommitRecord {
    tx::Transaction tx;          // fully signed
    script::Script to_local;     // witness script of output 0
    sim::PartyId owner;
    std::uint32_t state = 0;
  };

  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();

  Keys keys_;

  std::uint32_t sn_ = 0;
  channel::StateVec st_;

  tx::Transaction commit_a_, commit_b_;  // latest, fully signed

  // Revealed revocation secrets: secrets_of_x_ = the secrets of x's *own* old
  // commits, held by the counterparty (this is the O(n) storage).
  std::vector<Bytes> secrets_of_a_, secrets_of_b_;

  // Archive of every signed commit (identification + fraud injection).
  std::vector<CommitRecord> archive_;

  std::optional<Hash256> pending_claim_txid_;
  struct PendingSweep {
    tx::OutPoint to_local_op;
    script::Script script;
    sim::PartyId owner;
    Amount cash = 0;
    Round post_round = 0;
    bool posted = false;
    Hash256 txid;
  };
  std::optional<PendingSweep> pending_sweep_;
};

}  // namespace daric::lightning
