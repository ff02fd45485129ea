// Per-party key material for a Daric channel.
//
// Each party P holds four key pairs (Appendix D step 1 of Create):
//   main — funding / commit-tx authorization and final payouts
//   sp   — split-transaction keys (ANYPREVOUT floating signatures)
//   rv   — revocation keys guarding A's commit outputs
//   rv2  — revocation keys guarding B's commit outputs (Rev′)
#pragma once

#include <string>

#include "src/crypto/keys.h"
#include "src/sim/party.h"

namespace daric::daricch {

struct DaricKeys {
  crypto::KeyPair main, sp, rv, rv2;

  static DaricKeys derive(std::string_view party, std::string_view channel_id);
};

/// The public halves exchanged in the createInfo message.
struct DaricPubKeys {
  Bytes main, sp, rv, rv2;  // 33-byte compressed each
  bool operator==(const DaricPubKeys&) const = default;
};

DaricPubKeys to_pub(const DaricKeys& k);

/// The single key of `who`'s funding source (the paper's tid_P), the
/// P2WPKH output the funding transaction spends.
crypto::KeyPair funding_source_keypair(const std::string& channel_id, sim::PartyId who);

}  // namespace daric::daricch
