#include "src/channel/publisher.h"

#include <stdexcept>

#include "src/script/standard.h"

namespace daric::channel {

std::optional<Publisher> identify_publisher(const tx::Transaction& commit,
                                            const crypto::AdaptorPreSig& pre_a,
                                            const crypto::AdaptorPreSig& pre_b,
                                            const crypto::Point& y_a, const crypto::Point& y_b,
                                            const crypto::SignatureScheme& scheme) {
  if (commit.witnesses.empty() || commit.witnesses[0].stack.size() != 3) return std::nullopt;
  const auto& stack = commit.witnesses[0].stack;
  const auto sig_a = script::decode_wire_sig(stack[1], scheme.signature_size());
  const auto sig_b = script::decode_wire_sig(stack[2], scheme.signature_size());
  if (!sig_a || !sig_b) return std::nullopt;
  // A publishes by completing B's pre-signature (B's slot) with y_A.
  for (const sim::PartyId who : {sim::PartyId::kA, sim::PartyId::kB}) {
    const bool a = who == sim::PartyId::kA;
    crypto::Scalar y;
    try {
      y = crypto::adaptor_extract(a ? sig_b->raw : sig_a->raw, a ? pre_b : pre_a);
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (crypto::Point::mul_gen(y) == (a ? y_a : y_b)) return Publisher{who, y};
  }
  return std::nullopt;
}

}  // namespace daric::channel
