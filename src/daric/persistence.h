// Durable channel state (crash recovery).
//
// Everything a party must persist to stay safe is the Γ/Θ store — the very
// quantity Table 1 bounds. This module serializes that store to a flat
// byte blob and loads it back into the channel's DaricParty: after a crash
// and restore, the party's one monitor can still force-close, produce its
// split, and punish any revoked commit. The blob's size is the measured
// O(1) storage.
#pragma once

#include "src/daric/protocol.h"
#include "src/util/serialize.h"

namespace daric::daricch {

/// Snapshot blob framing: 4-byte magic + a format-version byte, so a
/// store can reject foreign blobs and future formats cleanly instead of
/// misparsing them. Version 2 added theta_state (version 1 never carried
/// a magic and is not readable).
inline constexpr Byte kSnapshotMagic[4] = {'D', 'S', 'N', 'P'};
inline constexpr std::uint8_t kSnapshotVersion = 2;

/// Snapshot of a party's persistent channel state (Γ^P, Θ^P and keys).
struct ChannelSnapshot {
  channel::ChannelParams params;
  sim::PartyId id = sim::PartyId::kA;
  std::uint32_t sn = 0;
  /// Θ coverage: states j < theta_state are punishable with theta_sig
  /// (which signs [TX_RV, theta_state-1]). Equal to sn for a stable
  /// snapshot; equal to the *previous* sn for a mid-update snapshot taken
  /// after message 4, where the new commit is signed but the own
  /// revocation has not yet been externalized.
  std::uint32_t theta_state = 0;
  channel::StateVec st;
  tx::OutPoint fund_op;
  tx::Transaction cm_own;          // fully signed
  script::Script cm_own_script;
  script::Script cm_other_script;
  tx::Transaction split_body;      // floating
  Bytes split_sig_a, split_sig_b;
  Bytes theta_sig;
  DaricPubKeys pub_other;
};

/// Extracts the persistable state from a live party: Γ between updates,
/// or Γ′ in the mid-update window after message 4 (new commit fully
/// signed, new split complete), where the snapshot carries state sn+1 with
/// theta_state still at the old sn. The DurabilityHook persists this at
/// the protocol's fsync points.
ChannelSnapshot snapshot_party(const DaricParty& p);

/// The inverse of snapshot_party, after a crash: loads `s` into `ch`'s party
/// `who` (a post-message-4 snapshot becomes the kUpdating Γ′ it was taken
/// from), drops what the crash lost (pending split or revocation, expected
/// cooperative close, outcome, durability hook), and brings the party's
/// monitor back online on the funding output. Throws std::invalid_argument
/// when `s` belongs to the other party or another channel, or when its
/// commits disagree with the channel's keys.
void restore_party(DaricChannel& ch, sim::PartyId who, const ChannelSnapshot& s);

/// Serialization (the blob a wallet would write to disk).
Bytes serialize_snapshot(const ChannelSnapshot& s);
ChannelSnapshot deserialize_snapshot(BytesView data);

/// Hardened codec helpers shared with the durable store's watchtower
/// entries (src/store/tower.cpp). The readers never trust a length or enum
/// byte; they throw std::invalid_argument on malformed input.
namespace snapio {
void write_tx(Writer& w, const tx::Transaction& t);
tx::Transaction read_tx(Reader& r);
void write_outpoint(Writer& w, const tx::OutPoint& op);
tx::OutPoint read_outpoint(Reader& r);
void write_script(Writer& w, const script::Script& s);
script::Script read_script(Reader& r);
void write_pubkeys(Writer& w, const DaricPubKeys& p);
DaricPubKeys read_pubkeys(Reader& r);
}  // namespace snapio

}  // namespace daric::daricch
