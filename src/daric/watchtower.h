// Daric watchtower package: O(1) storage, because one floating revocation
// transaction (plus two signatures) punishes *every* revoked state.
//
// After each channel update the client hands the tower a fresh package
// (latest revocation body + both ANYPREVOUT signatures); the package
// replaces the previous one, so tower storage does not grow with the
// number of updates — Table 1's "Watch. St. Req. O(1)" column. The tower
// itself is store::TowerService, which keeps the package in its record log.
#pragma once

#include "src/daric/protocol.h"

namespace daric::daricch {

/// What the client transfers to the tower after an update.
struct WatchtowerPackage {
  std::uint32_t revoked_state = 0;  // states ≤ this are punishable
  tx::Transaction rv_body;          // floating [TX^P_RV]‾
  Bytes sig_a, sig_b;               // witness-order revocation signatures
};

/// Builds the package from a party's current Γ/Θ stores (requires sn ≥ 1).
WatchtowerPackage make_watchtower_package(const DaricParty& p);

}  // namespace daric::daricch
