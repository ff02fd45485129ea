// Generalized-channel (Aumayr et al.) scripts.
//
// The commit output merges punish-then-split with publisher identification:
// the split needs both parties after a delay; punishment needs (a) a
// signature under the publisher's per-state statement Y — producible only
// by the victim, who extracts the witness y from the adaptor-completed
// commit signature — and (b) the publisher's revealed revocation preimage.
// This is an executable re-arrangement of the paper's H.2 listing (same
// ingredients, stack-machine-friendly branch selectors); Table 3 byte
// counts come from the cost model, which uses the paper's exact sizes.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::generalized {

/// One party's key: `main` funds the channel, (pre-)signs the commits and
/// splits, and receives every payout (`payout`, its compressed public key).
struct PartyKeys {
  crypto::KeyPair main;
  Bytes payout;
};

/// Both parties' keys, derived once per channel.
struct Keys {
  PartyKeys a, b;
  const PartyKeys& of(sim::PartyId who) const { return who == sim::PartyId::kA ? a : b; }
};
Keys derive_keys(const std::string& channel_id);

/// The funding output's 2-of-2 over the main keys.
script::Script funding_script(const Keys& k);

/// The per-state secrets of state `state`: each party's publishing
/// statement Y = y·G and revocation preimage r.
struct StateSecrets {
  crypto::KeyPair y_a, y_b;
  Bytes r_a, r_b;
};
StateSecrets state_secrets(const std::string& channel_id, std::uint32_t state);

script::Script commit_output_script(BytesView pk_a, BytesView pk_b, BytesView statement_a,
                                    BytesView statement_b, BytesView rev_hash_a,
                                    BytesView rev_hash_b, std::uint32_t csv_delay);
/// commit_output_script of the state whose secrets are `s`.
script::Script output_script(const channel::ChannelParams& p, const Keys& k,
                             const StateSecrets& s);

/// The single commit of state `state` (nLT = S0+state, the state
/// identifier of Sec. 8) spending `fund_op` into `out_script`.
tx::Transaction commit_body(const channel::ChannelParams& p, const tx::OutPoint& fund_op,
                            const script::Script& out_script, std::uint32_t state);

/// Enumerates the generalized-channel engine's transaction templates for the
/// model's state schedule — per-state commits, the delayed split, the punish
/// path against either publisher and the cooperative close — for the static
/// analyzer (src/analyze). When `kb` is given, the funding keys, per-state
/// statement keys Y and revocation preimages r are registered for the
/// authorization analysis (y-extraction is folded into the revocation event
/// at state+1 — see src/analyze/auth.h).
std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb = nullptr);

}  // namespace daric::generalized
