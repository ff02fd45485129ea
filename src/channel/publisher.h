// Publisher identification for adaptor-signed commits (Generalized channels
// and FPPW). Each party holds the counterparty's pre-signature on the commit
// under its own per-state statement Y; publishing means completing it with
// the witness y, so the confirmed commit reveals y to the victim.
#pragma once

#include <optional>

#include "src/crypto/adaptor.h"
#include "src/crypto/sig_scheme.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::channel {

struct Publisher {
  sim::PartyId who;
  crypto::Scalar y;  // the publisher's statement witness: Y = y·G
};

/// Who published `commit`, a 2-of-2 funding spend with witness [ε, sig_a,
/// sig_b]? `pre_a` is A's pre-signature under Y_B (held by B), `pre_b` is
/// B's under Y_A. Returns nullopt for any other witness shape, or when
/// neither completed signature reveals its statement's witness.
std::optional<Publisher> identify_publisher(const tx::Transaction& commit,
                                            const crypto::AdaptorPreSig& pre_a,
                                            const crypto::AdaptorPreSig& pre_b,
                                            const crypto::Point& y_a, const crypto::Point& y_b,
                                            const crypto::SignatureScheme& scheme);

}  // namespace daric::channel
