#include "src/daric/watchtower.h"

#include "src/channel/storage.h"

#include <stdexcept>

namespace daric::daricch {

using sim::PartyId;

WatchtowerPackage make_watchtower_package(const DaricParty& p) {
  if (p.state_number() == 0 || p.theta_sig_.empty())
    throw std::logic_error("no revoked state yet");
  WatchtowerPackage pkg;
  pkg.revoked_state = p.state_number() - 1;
  pkg.rv_body =
      gen_revoke(p.pub().main, p.params_.capacity(), pkg.revoked_state, p.params_);
  const Bytes own = p.sign_own_revocation(pkg.rv_body);
  if (p.id() == PartyId::kA) {
    pkg.sig_a = own;             // rv2_A
    pkg.sig_b = p.theta_sig_;    // rv2_B
  } else {
    pkg.sig_a = p.theta_sig_;    // rv_A
    pkg.sig_b = own;             // rv_B
  }
  return pkg;
}

DaricWatchtower::DaricWatchtower(const channel::ChannelParams& params, PartyId client,
                                 tx::OutPoint fund_op, DaricPubKeys pub_a, DaricPubKeys pub_b)
    : params_(params),
      client_(client),
      fund_op_(fund_op),
      pub_a_(std::move(pub_a)),
      pub_b_(std::move(pub_b)) {}

void DaricWatchtower::monitor(ledger::Ledger& l) {
  if (reacted_ || !pkg_) return;
  const auto spender = l.spender_of(fund_op_);
  if (!spender) return;
  const auto commit = match_counterparty_commit(*spender, client_, pub_a_, pub_b_, params_.s0,
                                                params_.t_punish, pkg_->revoked_state);
  if (!commit) return;

  tx::Transaction rv = pkg_->rv_body;
  bind_floating(rv, {spender->txid(), 0});
  attach_revoke_witness(rv, 0, commit->script, pkg_->sig_a, pkg_->sig_b);
  l.post(rv);
  reacted_ = true;
}

std::size_t DaricWatchtower::storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36);       // funding outpoint
  m.add_raw(8 * 33);   // both parties' four public keys
  m.add_raw(16);       // params (T, S0, capacity)
  if (pkg_) {
    m.add_tx(pkg_->rv_body);
    m.add_signature();
    m.add_signature();
    m.add_raw(4);  // revoked-state counter
  }
  return m.bytes();
}

}  // namespace daric::daricch
