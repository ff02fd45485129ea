#include "src/daric/watchtower.h"

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

}  // namespace daric::daricch
