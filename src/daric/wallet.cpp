#include "src/daric/wallet.h"

namespace daric::daricch {

DaricKeys DaricKeys::derive(std::string_view party, std::string_view channel_id) {
  const std::string base = std::string(channel_id) + "/" + std::string(party);
  return {
      crypto::derive_keypair(base + "/main"),
      crypto::derive_keypair(base + "/sp"),
      crypto::derive_keypair(base + "/rv"),
      crypto::derive_keypair(base + "/rv2"),
  };
}

DaricPubKeys to_pub(const DaricKeys& k) {
  return {k.main.pk.compressed(), k.sp.pk.compressed(), k.rv.pk.compressed(),
          k.rv2.pk.compressed()};
}

crypto::KeyPair funding_source_keypair(const std::string& channel_id, sim::PartyId who) {
  return crypto::derive_keypair(channel_id + "/" + sim::party_name(who) + "/funding-source");
}

}  // namespace daric::daricch
