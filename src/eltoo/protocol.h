// eltoo channel engine: floating update transactions + per-state settlement
// transactions, O(1) storage, *no punishment* — the property the paper's
// Sec. 6 analysis turns on.
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/daric/wallet.h"
#include "src/eltoo/scripts.h"
#include "src/tx/transaction.h"

namespace daric::eltoo {

/// Outcomes: kCooperative, or kNonCollaborative once a settlement confirms
/// (settled_state() says which state won). eltoo never punishes.
class EltooChannel : public channel::Engine {
 public:
  EltooChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;  // two message rounds
  bool cooperative_close(sim::PartyId initiator) override;
  /// Honest unilateral close: post latest update, settle after T.
  void force_close(sim::PartyId who) override;
  /// Fraud: `who` publishes the update transaction of old state `state`,
  /// bound to the funding output (or to whatever currently holds the funds).
  void publish_old_commit(sim::PartyId who, std::uint32_t state) override;
  /// The attacker's endgame: bind & post the archived settlement for
  /// `state` once its CSV matured (only meaningful if nobody reacted).
  void attacker_settle(sim::PartyId who, std::uint32_t state);

  /// Whether a party's monitor overrides stale updates (p in Sec. 6.2).
  void set_reacting(sim::PartyId who, bool reacts);

  bool punishes() const override { return false; }
  /// State number whose settlement (or cooperative close) finalized.
  std::optional<std::uint32_t> settled_state() const { return settled_state_; }

  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? pub_a_.main : pub_b_.main;
  }
  std::size_t party_storage_bytes(sim::PartyId who) const;
  const channel::StateVec& state() const { return st_; }

 private:
  struct PerStateKeys {
    crypto::KeyPair set_a, set_b;
  };
  PerStateKeys settlement_keys(std::uint32_t state) const;
  script::Script update_output_script(const PerStateKeys& ks, std::uint32_t state) const;
  tx::Transaction build_update_body(const script::Script& out_script, std::uint32_t state) const;
  tx::Transaction build_settlement_body(const channel::StateVec& st, std::uint32_t state) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();
  void post_update_bound(std::uint32_t state, const tx::OutPoint& op,
                         const script::Script& prev_script, bool spending_funding);
  /// Resolves the channel at `state`; `how` names it in the closed event.
  void settle(std::uint32_t state, channel::Outcome o, const char* how);

  daricch::DaricPubKeys pub_a_, pub_b_;  // only .main used for balances
  crypto::KeyPair upd_a_, upd_b_;

  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  // Latest floating pair (what honest parties store — O(1)).
  tx::Transaction upd_body_;
  Bytes upd_sig_a_, upd_sig_b_;  // ANYPREVOUT (upd keys)
  tx::Transaction set_body_;
  Bytes set_sig_a_, set_sig_b_;  // ANYPREVOUT (per-state settlement keys)

  // Test-harness archive (the attacker's memory of old states).
  struct ArchivedState {
    tx::Transaction upd_body, set_body;
    Bytes upd_sig_a, upd_sig_b, set_sig_a, set_sig_b;
    script::Script out_script;
    channel::StateVec st;
  };
  std::vector<ArchivedState> archive_;

  bool reacts_[2] = {true, true};
  // Monitor bookkeeping: the update tx currently holding the funds.
  std::optional<Hash256> tip_txid_;
  std::uint32_t tip_state_ = 0;
  bool settlement_posted_ = false;
  bool reacted_for_tip_ = false;
  std::optional<std::uint32_t> settled_state_;
};

}  // namespace daric::eltoo
