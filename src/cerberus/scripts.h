// Cerberus keys, scripts and transactions: the one copy the engine
// (protocol.h) runs and enumerate_templates lists for the analyzer.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::cerberus {

/// One party's keys: `main` funds the channel, signs the commits and
/// receives every payout (`payout`, its compressed public key); `delayed`
/// sweeps the party's commit output after T.
struct PartyKeys {
  crypto::KeyPair main, delayed;
  Bytes payout;
};

/// Both parties' keys and the tower's reward key, derived once per channel.
struct Keys {
  PartyKeys a, b;
  crypto::KeyPair tower;
  const PartyKeys& of(sim::PartyId who) const { return who == sim::PartyId::kA ? a : b; }
};
Keys derive_keys(const std::string& channel_id);

/// The funding output's 2-of-2 over the main keys.
script::Script funding_script(const Keys& k);

/// Revocation key `leg` (0..3) of `owner`'s commit #state: legs 0 and 1
/// guard its output 0, legs 2 and 3 its output 1.
crypto::KeyPair revocation_keypair(const std::string& channel_id, sim::PartyId owner,
                                   std::uint32_t state, int leg);

/// Commit-output script (H.6, 115 bytes):
///   IF 2 <rev1> <rev2> 2 CHECKMULTISIG ELSE <T> CSV DROP <delayed> CHECKSIG ENDIF
script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk);

struct Commit {
  tx::Transaction body;
  script::Script local, remote;  // witness scripts of outputs 0 and 1
};
/// `owner`'s commit of state `state` over `st`, spending `fund_op`: H.6's
/// duplicated commit, whose two outputs (the owner's balance, then the
/// counterparty's) each carry a revocation path.
Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    sim::PartyId owner, std::uint32_t state, const channel::StateVec& st);

/// The revocation of the commit `commit_txid`: claims both its outputs,
/// paying the capacity minus `reward` to `victim` and `reward` to the
/// tower, the incentive that keeps the tower honest.
tx::Transaction revocation_body(const channel::ChannelParams& p, const Keys& k,
                                const Hash256& commit_txid, sim::PartyId victim, Amount reward);

/// Enumerates every transaction template the Cerberus engine can emit for
/// the model's state schedule: per-state duplicated commits (two P2WSH
/// outputs each), the tower-held revocations claiming both outputs with a
/// reward carve-out, the owner/remote delayed sweeps (the cheater's race on
/// revoked states), and the cooperative close. The tower reward is
/// capacity/100. When `kb` is given, every signing key (including the
/// tower's reward key and the per-state revocation legs, split across the
/// parties) is registered for the authorization analysis.
std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb = nullptr);

}  // namespace daric::cerberus
