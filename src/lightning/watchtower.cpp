#include "src/lightning/watchtower.h"

#include "src/channel/storage.h"
#include "src/tx/sighash.h"

namespace daric::lightning {

using sim::PartyId;

LightningWatchtower::StatePackage make_ln_tower_package(const LightningChannel& ch,
                                                        PartyId client, std::uint32_t state) {
  const PartyId counterparty = other(client);
  const tx::Transaction& commit = ch.archived_commit(counterparty, state);
  return {state, commit.txid(), ch.archived_to_local(counterparty, state),
          commit.outputs[0].cash, ch.revealed_secret(counterparty, state)};
}

void LightningWatchtower::on_round(ledger::Ledger& l) {
  if (reacted_) return;
  const ledger::AcceptedTx* spender = l.spender_of(fund_op_);
  if (!spender) return;
  const Hash256& id = spender->txid();
  for (const StatePackage& pkg : packages_) {
    if (pkg.counterparty_commit_txid != id) continue;
    // Revoked commit on-chain: claim the cheater's to_local instantly.
    tx::Transaction claim;
    claim.inputs = {{{id, 0}}};
    claim.nlocktime = 0;
    claim.outputs = {{pkg.to_local_cash, tx::Condition::p2wpkh(payout_pk_)}};
    const Bytes sig = tx::sign_input(claim, 0, pkg.revocation_secret, l.scheme(),
                                     script::SighashFlag::kAll);
    claim.witnesses.resize(1);
    claim.witnesses[0].stack = {sig, Bytes{1}};  // IF (revocation) branch
    claim.witnesses[0].witness_script = pkg.to_local_script;
    l.post(claim);
    reacted_ = true;
    return;
  }
}

std::size_t LightningWatchtower::storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36 + 33);  // funding outpoint + payout key
  for (const StatePackage& pkg : packages_) {
    m.add_raw(4 + 32 + 8 + 32);  // state, commit txid, value, secret
    m.add_raw(pkg.to_local_script.wire_size());
  }
  return m.bytes();
}

}  // namespace daric::lightning
