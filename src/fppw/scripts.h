// FPPW keys, commit-output scripts (Appendix H.5) and transactions: the one
// copy the engine (protocol.h) runs and enumerate_templates lists for the
// analyzer.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::fppw {

/// One party's keys: `main` funds the channel, (pre-)signs the commits and
/// splits and receives every payout (`payout`, its compressed public key);
/// `rev` is its share of the 3-of-3 revocation, `pen` its penalty key.
struct PartyKeys {
  crypto::KeyPair main, rev, pen;
  Bytes payout;
};

/// Both parties' keys and the watchtower's: its revocation share and the
/// key every exit path returns its collateral to. Derived once per channel.
struct Keys {
  PartyKeys a, b;
  crypto::KeyPair tower_rev, tower_payout;
  const PartyKeys& of(sim::PartyId who) const { return who == sim::PartyId::kA ? a : b; }
};
Keys derive_keys(const std::string& channel_id);

/// The funding output's 2-of-2 over the main keys; it holds the capacity
/// plus the tower's collateral.
script::Script funding_script(const Keys& k);

/// The publishers' statements of state `state` (Y = y·G).
struct StateSecrets {
  crypto::KeyPair y_a, y_b;
};
StateSecrets state_secrets(const std::string& channel_id, std::uint32_t state);

/// out0 — channel funds:
///   IF 3 RevA RevB RevW 3 CMS ELSE <T> CSV DROP 2 SplA SplB 2 CMS ENDIF
script::Script fppw_out0_script(BytesView rev_a, BytesView rev_b, BytesView rev_w,
                                std::uint32_t csv, BytesView spl_a, BytesView spl_b);

/// out1 — collateral:
///   IF 3 RevA RevB RevW 3 CMS
///   ELSE <T> CSV DROP IF 2 PenB Y_A 2 CMS ELSE 2 PenA Y_B 2 CMS ENDIF ENDIF
script::Script fppw_out1_script(BytesView rev_a, BytesView rev_b, BytesView rev_w,
                                std::uint32_t csv, BytesView pen_a, BytesView pen_b,
                                BytesView y_a, BytesView y_b);

struct Commit {
  tx::Transaction body;
  script::Script out0, out1;  // witness scripts of its two outputs
};
/// The single commit of state `state` spending `fund_op`: the capacity to
/// out0 and the collateral (as much again) to out1; nLT = S0+state.
Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    std::uint32_t state, const StateSecrets& sec);

/// The tower's revocation of the commit `commit_txid`: the capacity to
/// `victim`, the collateral back to the tower.
tx::Transaction revocation_body(const channel::ChannelParams& p, const Keys& k,
                                const Hash256& commit_txid, sim::PartyId victim);

/// The cooperative close: θ⃗ = `st`, then the collateral back to the tower.
tx::Transaction coop_close_body(const channel::ChannelParams& p, const Keys& k,
                                const tx::OutPoint& fund_op, const channel::StateVec& st);

/// Enumerates every transaction template the FPPW engine can emit for the
/// model's state schedule: per-state commits (channel funds + collateral
/// outputs), the 3-of-3 tower revocations, splits (the publisher's race on
/// revoked states), the penalty spends that compensate the victim from the
/// collateral when the tower fails, the latest state's collateral release
/// and the cooperative close. When `kb` is given, the revocation/penalty/tower keys and
/// the per-state statement keys Y (whose extraction is folded into the
/// revocation event at state+1 — see src/analyze/auth.h) are registered
/// for the authorization analysis.
std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb = nullptr);

}  // namespace daric::fppw
