// eltoo (Decker et al. 2018) keys, scripts and transactions, trigger-less
// variant as in the paper's Appendix H.4: the one copy the engine
// (protocol.h) runs and enumerate_templates lists for the analyzer.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::eltoo {

/// One party's keys: `upd` funds the channel and signs every update and the
/// cooperative close; `payout` (the public half of its main key) receives
/// the party's balance.
struct PartyKeys {
  crypto::KeyPair upd;
  Bytes payout;
};

/// Both parties' keys, derived once per channel.
struct Keys {
  PartyKeys a, b;
  const PartyKeys& of(sim::PartyId who) const { return who == sim::PartyId::kA ? a : b; }
};
Keys derive_keys(const std::string& channel_id);

/// Funding output: plain 2-of-2 over the update keys, so any (floating)
/// update transaction can bind to it.
script::Script funding_script(const Keys& k);

/// Both parties' settlement keys of state `state`.
struct SettlementKeys {
  crypto::KeyPair a, b;
};
SettlementKeys settlement_keys(const std::string& channel_id, std::uint32_t state);

/// Update-transaction output for state i:
///   IF    <T> CSV DROP 2 <set_a,i> <set_b,i> 2 CHECKMULTISIG   (settlement)
///   ELSE  <S0+i+1> CLTV DROP 2 <upd_a> <upd_b> 2 CHECKMULTISIG (later update)
///   ENDIF
/// The CLTV floor S0+i+1 is what gives eltoo its versioning: only an update
/// with a strictly higher state number can override this output.
script::Script update_script(BytesView set_a_i, BytesView set_b_i, BytesView upd_a,
                             BytesView upd_b, std::uint32_t next_state_cltv,
                             std::uint32_t csv_rel);
/// update_script of state `state` over the channel's keys.
script::Script update_output_script(const channel::ChannelParams& p, const Keys& k,
                                    const SettlementKeys& set, std::uint32_t state);

/// Floating update transaction of state `state` (nLT = S0+state) paying the
/// capacity to `out_script`; its input is bound at publish time.
tx::Transaction update_body(const channel::ChannelParams& p, const script::Script& out_script,
                            std::uint32_t state);
/// Floating settlement paying θ⃗ = `st` (nLT = 0), bound to the output of
/// the update of the same state.
tx::Transaction settlement_body(const Keys& k, const channel::StateVec& st);

/// Enumerates the eltoo engine's transaction templates for the model's
/// state schedule — floating updates bound to the funding output, the
/// latest update overriding each stale one (the CLTV versioning path),
/// per-state settlements and the cooperative close — for the static
/// analyzer (src/analyze). When `kb` is given, the update and per-state
/// settlement keys are registered for the authorization analysis.
std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb = nullptr);

}  // namespace daric::eltoo
