// Transaction generators GenFund / GenCommit / GenSplit / GenRevoke /
// GenFinSplit of Appendix D, plus floating-transaction binding and witness
// assembly helpers.
#pragma once

#include <cstdint>
#include <optional>

#include "src/channel/params.h"
#include "src/channel/state.h"
#include "src/daric/scripts.h"
#include "src/daric/wallet.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::daricch {

/// Funding transaction body [TX_FU]: spends both parties' funding sources
/// into a 2-of-2 (main keys) P2WSH output.
struct FundingTemplate {
  tx::Transaction body;
  script::Script fund_script;
  tx::OutPoint output() const { return {body.txid(), 0}; }
};
FundingTemplate gen_fund(const tx::OutPoint& tid_a, const tx::OutPoint& tid_b, Amount cash,
                         const DaricPubKeys& a, const DaricPubKeys& b);

/// Commit transaction bodies for state i (one per party). Both spend the
/// funding output and carry the whole capacity to the punish-then-split
/// output; they differ only in which revocation keys guard them.
struct CommitPair {
  tx::Transaction body_a;       // [TX^A_CM,i]
  tx::Transaction body_b;       // [TX^B_CM,i]
  script::Script script_a;      // witness script of TX^A_CM,i's output
  script::Script script_b;      // witness script of TX^B_CM,i's output
};
CommitPair gen_commit(const tx::OutPoint& fund_outpoint, Amount cash, const DaricPubKeys& a,
                      const DaricPubKeys& b, std::uint32_t state, const channel::ChannelParams& p);

/// A published commit the client's revocation transaction can spend.
struct CommitMatch {
  std::uint32_t state = 0;  // j, read off the commit's nLockTime (Sec. 8)
  script::Script script;    // its output script, for the revocation witness
};

/// The punishability test of the party monitor and of store::TowerService:
/// is `spender` a commit of the *counterparty* of `client` (TX^A_RV spends
/// TX^B_CM and vice versa), and of which state j ≤ `max_state`? Each caller
/// keeps its own revoked-state bound; a state above `max_state` is rejected
/// before any script is built.
std::optional<CommitMatch> match_counterparty_commit(const tx::Transaction& spender,
                                                     sim::PartyId client, const DaricPubKeys& a,
                                                     const DaricPubKeys& b, std::uint32_t s0,
                                                     Round t_punish,
                                                     std::uint32_t max_state = UINT32_MAX);

/// Floating split transaction body [TX_SP,i]‾: nLT = S0+i, outputs = θ⃗.
/// The input is bound at publish time.
tx::Transaction gen_split(const channel::StateVec& st, std::uint32_t state,
                          const channel::ChannelParams& p, const DaricPubKeys& a,
                          const DaricPubKeys& b);

/// Floating revocation transaction body [TX^P_RV,i]‾: nLT = S0+i, single
/// output paying the whole capacity to `payout_pk`'s owner.
tx::Transaction gen_revoke(BytesView payout_pk_main, Amount cash, std::uint32_t revoked_state,
                           const channel::ChannelParams& p);

/// Modified split TX_SP̄ for collaborative close: spends the funding output
/// `op` directly into θ⃗, nLT = 0. The baselines' cooperative closes and
/// the splits of generalized channels and FPPW are the same body over their
/// own outpoints.
tx::Transaction gen_fin_split(const tx::OutPoint& op, const channel::StateVec& st,
                              BytesView pk_a_main, BytesView pk_b_main);

/// Spends `op` whole (`cash`) to `payout_pk`'s P2WPKH, nLT = 0: the
/// baselines' sweeps, breach claims, punishments and collateral moves.
tx::Transaction gen_sweep(const tx::OutPoint& op, Amount cash, BytesView payout_pk);

/// Binds a floating transaction to a concrete outpoint (ANYPREVOUT rebind).
void bind_floating(tx::Transaction& t, const tx::OutPoint& op);

/// Witness for spending the funding output: [ε, sig_a, sig_b] + fund script.
void attach_funding_witness(tx::Transaction& t, std::size_t input, const script::Script& fund_script,
                            Bytes sig_a, Bytes sig_b);

/// Witness for the commit output's split branch: [ε, sig_a, sig_b, ε] + script.
void attach_split_witness(tx::Transaction& t, std::size_t input, const script::Script& commit_script,
                          Bytes sig_a, Bytes sig_b);

/// Witness for the commit output's revocation branch: [ε, sig_a, sig_b, 1] + script.
void attach_revoke_witness(tx::Transaction& t, std::size_t input, const script::Script& commit_script,
                           Bytes sig_a, Bytes sig_b);

/// Whether `t`'s first input took a commit output's revocation branch (the
/// witness attach_revoke_witness builds ends in 1). Every split and
/// revocation spends the commit output at input 0.
bool takes_revocation_branch(const tx::Transaction& t);

/// Witness for a P2WPKH spend: [sig, pubkey].
void attach_p2wpkh_witness(tx::Transaction& t, std::size_t input, Bytes sig, Bytes pubkey);

}  // namespace daric::daricch
