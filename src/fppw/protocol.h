// FPPW baseline (Mirzaei et al., the same authors' fair watchtower design):
// punish-then-split commits with adaptor-based publisher identification and
// a watchtower that posts collateral equal to the channel capacity. Every
// commit transaction has two outputs (Appendix H.5's 224w/137nw layout):
//
//   out0 — channel funds:  IF 3 RevA RevB RevW 3 CMS          (revocation)
//                          ELSE t CSV DROP 2 SplA SplB 2 CMS  (split)
//   out1 — collateral:     IF 3 RevA RevB RevW 3 CMS          (revocation)
//                          ELSE t CSV DROP
//                               IF  2 PenB Y_A 2 CMS          (B compensated)
//                               ELSE 2 PenA Y_B 2 CMS         (A compensated)
//
// Honest fraud handling: the tower publishes the pre-signed revocation,
// the victim gets the channel funds and the tower recovers its collateral.
// If the tower fails (goes offline), the victim extracts the cheater's
// statement witness y from the adaptor-completed commit signature and
// claims the *collateral* through the penalty branch — the "fair w.r.t.
// the hiring party" guarantee Sec. 6.2 leans on.
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/crypto/adaptor.h"
#include "src/fppw/scripts.h"
#include "src/tx/transaction.h"

namespace daric::fppw {

/// Outcomes: kPunished when the tower fired the revocation, kCompensated
/// when it failed and the victim took the collateral. The tower reacts from
/// the channel-level monitor, so the monitor flag gates it like the parties.
class FppwChannel : public channel::Engine {
 public:
  FppwChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;
  bool cooperative_close(sim::PartyId initiator) override;
  void force_close(sim::PartyId who) override;
  void publish_old_commit(sim::PartyId who, std::uint32_t state) override;

  /// Take the watchtower offline (the fairness scenario).
  void set_tower_online(bool online) { tower_online_ = online; }

  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override { return keys_.of(who).payout; }

  std::size_t party_storage_bytes(sim::PartyId who) const;   // O(n)
  std::size_t tower_storage_bytes() const;                   // O(n)
  const tx::Transaction& latest_commit_body() const { return commit_.body; }
  Amount collateral() const { return params_.capacity(); }
  /// Where every exit path returns the tower's collateral.
  Bytes tower_payout_pk() const { return keys_.tower_payout.pk.compressed(); }

 private:
  tx::Transaction assemble_commit(sim::PartyId publisher, std::uint32_t state) const;
  tx::Transaction build_revocation(std::uint32_t state, sim::PartyId victim) const;
  /// Completes `input` of t through the 3-of-3 revocation branch (RevA,
  /// RevB, RevW) of `witness_script`.
  void sign_3of3(tx::Transaction& t, std::size_t input, const script::Script& witness_script) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();

  Keys keys_;

  bool tower_online_ = true;
  std::uint32_t sn_ = 0;
  channel::StateVec st_;

  // Latest state material (single, non-duplicated commit, like GC).
  Commit commit_;
  crypto::AdaptorPreSig pre_a_, pre_b_;
  tx::Transaction split_body_;
  Bytes split_sig_a_, split_sig_b_;

  struct ArchivedState {
    Commit commit;
    crypto::AdaptorPreSig pre_a, pre_b;
  };
  std::vector<ArchivedState> archive_;
  // Tower-held (and party-held) fully signed revocations, one per revoked
  // state — the O(n) storage of Table 1.
  struct RevocationRecord {
    Hash256 commit_txid;
    tx::Transaction revocation;
  };
  std::vector<RevocationRecord> tower_revocations_;

  std::optional<Hash256> pending_txid_;
  bool pending_is_compensation_ = false;
  struct PendingSplit {
    Round post_round = 0;
    tx::Transaction bound;
    std::optional<Hash256> txid;  // once posted
  };
  std::optional<PendingSplit> pending_split_;
  std::optional<Hash256> pending_release_;  // set with pending_split_
  std::optional<Round> fraud_seen_round_;
  std::optional<Hash256> fraud_commit_txid_;
};

}  // namespace daric::fppw
