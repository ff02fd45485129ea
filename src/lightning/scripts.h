// Lightning (BOLT-3 style) keys, scripts and transactions: the one copy the
// engine (protocol.h) runs and enumerate_templates lists for the analyzer.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::lightning {

/// One party's keys: `main` funds the channel, signs the commits and
/// receives every payout; `delayed` sweeps the party's to_local after T.
struct PartyKeys {
  crypto::KeyPair main, delayed;
  Bytes payout;  // main's compressed public key
};

/// Both parties' keys, derived once per channel.
struct Keys {
  PartyKeys a, b;
  const PartyKeys& of(sim::PartyId who) const { return who == sim::PartyId::kA ? a : b; }
};
Keys derive_keys(const std::string& channel_id);

/// The funding output's 2-of-2 over the main keys.
script::Script funding_script(const Keys& k);

/// Per-commitment key of `owner`'s commit #state; its secret is revealed to
/// the counterparty when that state is revoked.
crypto::KeyPair revocation_keypair(const std::string& channel_id, sim::PartyId owner,
                                   std::uint32_t state);

/// to_local output of a commitment transaction (78-byte witness script of
/// Appendix H.1):
///   IF <revocation_pk> ELSE <to_self_delay> CSV DROP <delayed_pk> ENDIF CHECKSIG
script::Script to_local_script(BytesView revocation_pk, std::uint32_t to_self_delay,
                               BytesView delayed_pk);

struct Commit {
  tx::Transaction body;
  script::Script to_local;  // witness script of output 0
};
/// `owner`'s commit of state `state` over `st`, spending `fund_op`: its
/// to_local (revocable at once, else the owner's after T), the
/// counterparty's P2WPKH balance and one P2WSH output per HTLC. The
/// commitment number rides in nLockTime.
Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    sim::PartyId owner, std::uint32_t state, const channel::StateVec& st);

/// Enumerates the Lightning engine's transaction templates for the model's
/// state schedule — per-party commits, the delayed to_local sweep, the
/// breach claim on every revoked state, the to_remote sweep and the
/// cooperative close — for the static analyzer (src/analyze).
std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb = nullptr);

}  // namespace daric::lightning
