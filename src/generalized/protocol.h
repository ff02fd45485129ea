// Generalized-channel baseline: single (non-duplicated) commit transaction
// per state, adaptor-signed so the publisher is identifiable on-chain.
// Requires a signature scheme with adaptor support (Schnorr here) — the
// compatibility limitation Daric avoids (paper Sec. 8).
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/crypto/adaptor.h"
#include "src/daric/wallet.h"
#include "src/generalized/scripts.h"
#include "src/tx/transaction.h"

namespace daric::generalized {

class GeneralizedChannel : public channel::Engine {
 public:
  /// Throws std::invalid_argument if the environment's signature scheme has
  /// no adaptor construction (e.g. plain ECDSA).
  GeneralizedChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;
  bool cooperative_close(sim::PartyId initiator) override;
  /// Unilateral close by `who`: completes the counterparty's adaptor
  /// pre-signature (revealing y on-chain) and posts commit_sn.
  void force_close(sim::PartyId who) override;
  /// Fraud: publish the archived commit of an old state.
  void publish_old_commit(sim::PartyId who, std::uint32_t state) override;

  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? pub_a_.main : pub_b_.main;
  }

  std::size_t party_storage_bytes(sim::PartyId who) const;  // O(n)
  const tx::Transaction& latest_commit_body() const { return commit_body_; }

 private:
  struct StateSecrets {
    crypto::KeyPair y_a, y_b;  // publishing statements Y = y·G
    Bytes r_a, r_b;            // revocation preimages
  };
  StateSecrets state_secrets(std::uint32_t state) const;
  script::Script output_script(const StateSecrets& s) const;
  tx::Transaction build_commit_body(const script::Script& out_script, std::uint32_t state) const;
  tx::Transaction assemble_commit(sim::PartyId publisher, std::uint32_t state) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();

  daricch::DaricPubKeys pub_a_, pub_b_;
  crypto::KeyPair main_a_, main_b_;

  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  // Latest state material.
  tx::Transaction commit_body_;
  script::Script out_script_;
  crypto::AdaptorPreSig pre_a_;  // A's pre-signature (statement Y_B) held by B
  crypto::AdaptorPreSig pre_b_;  // B's pre-signature (statement Y_A) held by A
  tx::Transaction split_body_;
  Bytes split_sig_a_, split_sig_b_;

  struct ArchivedState {
    tx::Transaction commit_body;
    script::Script out_script;
    crypto::AdaptorPreSig pre_a, pre_b;
    channel::StateVec st;
  };
  std::vector<ArchivedState> archive_;
  // Revealed revocation preimages (the O(n) storage term): index = state.
  std::vector<Bytes> revealed_r_a_, revealed_r_b_;

  std::optional<Hash256> pending_punish_txid_;
  struct PendingSplit {
    tx::Transaction bound;
    Round post_round = 0;
    bool posted = false;
  };
  std::optional<PendingSplit> pending_split_;
};

}  // namespace daric::generalized
