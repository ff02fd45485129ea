// Cross-feature integration scenarios: combinations the unit suites cover
// only in isolation — punish mid-update, towers racing parties, fee-ready
// revocations with watchtowers and crash recovery, per-channel key
// isolation, and multiple channels interleaving on one ledger.
#include <gtest/gtest.h>

#include "src/daric/persistence.h"
#include "src/daric/watchtower.h"
#include "src/eltoo/protocol.h"
#include "src/store/backend.h"
#include "src/store/tower.h"
#include "src/tx/serializer.h"
#include "src/tx/sighash.h"

namespace daric {
namespace {

using channel::StateVec;
using daricch::CloseOutcome;
using daricch::DaricChannel;
using sim::PartyId;

constexpr Round kDelta = 2;

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

// Appendix D's flag = 2 punish case: the cheater publishes a revoked commit
// while an update is in flight; the victim's Γ' stores must not get in the
// way of instant punishment.
TEST(Integration, PunishDuringInFlightUpdate) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel ch(env, make_params("int-midflight"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({400'000, 600'000, {}}));
  ASSERT_TRUE(ch.update({300'000, 700'000, {}}));

  // A aborts the next update *after* new commits exist (message 5), then
  // publishes the revoked state 0.
  ch.party(PartyId::kA).behavior.abort_update_before_msg = 5;
  // The abort triggers B's ForceClose with commit state 3; instead of
  // letting that resolve, A front-runs with the revoked commit: simulate by
  // publishing state 0 first in the same round window.
  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);
}

// The victim's own monitor and its watchtower race to punish: exactly one
// revocation confirms (identical txids — both derive the same floating
// revocation), and both observers settle.
TEST(Integration, PartyAndTowerRaceIsBenign) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel ch(env, make_params("int-race"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({350'000, 650'000, {}}));
  store::MemoryBackend disk;
  store::TowerService tower(disk);
  tower.watch(store::make_watch_entry(ch.params(), PartyId::kB, ch.funding_outpoint(),
                                      ch.party(PartyId::kA).pub(), ch.party(PartyId::kB).pub(),
                                      daricch::make_watchtower_package(ch.party(PartyId::kB))));
  env.add_round_hook([&] { tower.on_round(env.ledger()); });

  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);
  EXPECT_EQ(tower.reactions(), 1u);
  // Exactly one revocation output on-chain.
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs[0].cash, 1'000'000);
}

// Fee-ready revocations survive the full delegation pipeline: watchtower
// package + crash-restored party, all under SINGLE|ANYPREVOUT.
TEST(Integration, FeeableRevocationsWorkWithTowerAndRecovery) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  channel::ChannelParams p = make_params("int-feeable");
  p.feeable_revocations = true;
  DaricChannel ch(env, p);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({350'000, 650'000, {}}));

  // Snapshot B, "crash" it, restore the blob into a party that never held
  // Γ/Θ (same params, never created), and let the restored monitor punish.
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kB)));
  ch.party(PartyId::kB).set_online(false);
  DaricChannel restarted(env, p);
  daricch::restore_party(restarted, PartyId::kB, daricch::deserialize_snapshot(blob));
  ch.publish_old_commit(PartyId::kA, 0);
  for (int r = 0; r < 20 && restarted.outcome(PartyId::kB) == CloseOutcome::kNone; ++r)
    env.advance_round();
  EXPECT_EQ(restarted.outcome(PartyId::kB), CloseOutcome::kPunished);
  EXPECT_EQ(ch.outcome(PartyId::kB), CloseOutcome::kNone);
}

// Key isolation across channels (Sec. 8): a commit of one channel can
// never spend another channel's funding output, even between the same two
// parties, because each channel derives its own key set.
TEST(Integration, CrossChannelCommitRejected) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel ch1(env, make_params("int-iso-1"));
  DaricChannel ch2(env, make_params("int-iso-2"));
  ASSERT_TRUE(ch1.create());
  ASSERT_TRUE(ch2.create());

  // Rebind channel 1's commit to channel 2's funding outpoint.
  tx::Transaction cross = ch1.archived_commits(PartyId::kA)[0];
  cross.inputs[0].prevout = ch2.funding_outpoint();
  env.ledger().post_with_delay(cross, 0);
  env.advance_round();
  EXPECT_EQ(env.ledger().post_result(cross.txid()), ledger::TxError::kBadWitness);
  EXPECT_TRUE(env.ledger().is_unspent(ch2.funding_outpoint()));
}

// A cooperative close carries in-flight HTLC outputs verbatim.
TEST(Integration, CooperativeCloseWithHtlcsOnChain) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel ch(env, make_params("int-htlc-close"));
  ASSERT_TRUE(ch.create());
  const auto h = channel::make_htlc_secret("int-h");
  const StateVec st{300'000, 600'000, {{100'000, h.payment_hash, true, 8}}};
  ASSERT_TRUE(ch.update(st));
  ASSERT_TRUE(ch.cooperative_close());
  const auto close = env.ledger().spender_of(ch.funding_outpoint());
  ASSERT_NE(close, nullptr);
  ASSERT_EQ(close->tx().outputs.size(), 3u);
  EXPECT_EQ(close->tx().outputs[2].cash, 100'000);
  // The HTLC output is live and redeemable with the preimage.
  const tx::Transaction redeem = daricch::build_htlc_redeem(
      close->tx(), 0, st, ch.party(PartyId::kB), ch.party(PartyId::kA).pub(),
      ch.party(PartyId::kB).pub(), h.preimage);
  env.ledger().post(redeem);
  env.advance_rounds(kDelta + 1);
  EXPECT_TRUE(env.ledger().is_confirmed(redeem.txid()));
}

// Many channels on one ledger resolving through different paths in the
// same rounds; ledger-wide value conservation holds throughout.
TEST(Integration, InterleavedChannelsResolveIndependently) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel coop(env, make_params("int-multi-coop"));
  DaricChannel forced(env, make_params("int-multi-forced"));
  DaricChannel fraud(env, make_params("int-multi-fraud"));
  ASSERT_TRUE(coop.create());
  ASSERT_TRUE(forced.create());
  ASSERT_TRUE(fraud.create());
  ASSERT_TRUE(coop.update({100'000, 900'000, {}}));
  ASSERT_TRUE(forced.update({200'000, 800'000, {}}));
  ASSERT_TRUE(fraud.update({300'000, 700'000, {}}));

  forced.party(PartyId::kB).force_close();
  fraud.publish_old_commit(PartyId::kB, 0);
  ASSERT_TRUE(coop.cooperative_close());
  ASSERT_TRUE(forced.run_until_closed());
  ASSERT_TRUE(fraud.run_until_closed());

  EXPECT_EQ(coop.party(PartyId::kA).outcome(), CloseOutcome::kCooperative);
  EXPECT_EQ(forced.party(PartyId::kA).outcome(), CloseOutcome::kNonCollaborative);
  EXPECT_EQ(fraud.party(PartyId::kA).outcome(), CloseOutcome::kPunished);
  EXPECT_EQ(env.ledger().utxos().total_value() + env.ledger().fees_total(),
            env.ledger().minted_total());
}

// eltoo under repeated stale publishes (the on-ledger shadow of the delay
// attack): the reacting victim overrides every time and finally settles
// the latest state.
TEST(Integration, EltooSurvivesRepeatedStalePublishesWhenReacting) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("int-eltoo"));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 4; ++i) ASSERT_TRUE(ch.update({500'000 - i * 1000, 500'000 + i * 1000, {}}));
  ch.publish_old_commit(PartyId::kA, 1);
  env.advance_rounds(4);  // victim overrides with state 4
  // The attacker tries an even older state on top — CLTV floor forbids it.
  ch.publish_old_commit(PartyId::kA, 2);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.settled_state(), 4u);
}

// The full persistence round trip is byte-stable (serialize ∘ deserialize
// ∘ serialize is the identity), so snapshots are safe to re-persist.
TEST(Integration, SnapshotSerializationIsIdempotent) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DaricChannel ch(env, make_params("int-idem"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  const Bytes once = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));
  const Bytes twice = daricch::serialize_snapshot(daricch::deserialize_snapshot(once));
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace daric
