// Crash recovery (persistence snapshots restored into the party), the
// multi-channel watchtower service, and off-chain sub-channels.
#include <gtest/gtest.h>

#include <utility>

#include "src/daric/persistence.h"
#include "src/daric/subchannels.h"
#include "src/daric/watchtower.h"
#include "src/store/backend.h"
#include "src/store/tower.h"
#include "src/tx/serializer.h"

namespace daric {
namespace {

using channel::StateVec;
using daricch::CloseOutcome;
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

// --- Persistence ---------------------------------------------------------

TEST(Persistence, SnapshotRoundTrips) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-1"));
  ASSERT_TRUE(ch.create());
  const auto h = channel::make_htlc_secret("p-h");
  ASSERT_TRUE(ch.update({390'000, 600'000, {{10'000, h.payment_hash, true, 4}}}));

  const daricch::ChannelSnapshot snap = daricch::snapshot_party(ch.party(PartyId::kB));
  const Bytes blob = daricch::serialize_snapshot(snap);
  const daricch::ChannelSnapshot back = daricch::deserialize_snapshot(blob);

  EXPECT_EQ(back.params.id, snap.params.id);
  EXPECT_EQ(back.sn, snap.sn);
  EXPECT_TRUE(back.st == snap.st);
  EXPECT_EQ(back.cm_own.txid(), snap.cm_own.txid());
  EXPECT_EQ(back.split_body.txid(), snap.split_body.txid());
  EXPECT_EQ(back.theta_sig, snap.theta_sig);
  EXPECT_EQ(back.cm_own_script, snap.cm_own_script);
}

TEST(Persistence, CorruptBlobRejected) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-2"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));
  blob.resize(blob.size() / 2);  // truncated
  EXPECT_THROW(daricch::deserialize_snapshot(blob), std::exception);
  Bytes extended = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));
  extended.push_back(0x00);  // trailing garbage
  EXPECT_THROW(daricch::deserialize_snapshot(extended), std::invalid_argument);
}

TEST(Persistence, CorruptionFuzzNeverCrashesOrMisparses) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-fuzz"));
  ASSERT_TRUE(ch.create());
  const auto h = channel::make_htlc_secret("fuzz-h");
  ASSERT_TRUE(ch.update({390'000, 600'000, {{10'000, h.payment_hash, true, 4}}}));
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kB)));

  // Every truncation must throw (no partial reads past the end).
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(daricch::deserialize_snapshot(cut), std::exception) << "len " << len;
  }

  // Single-byte corruption at every offset: the parser must either throw
  // or return a snapshot that still round-trips — never crash, never hang
  // allocating absurd counts.
  int rejected = 0, absorbed = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
      Bytes mutated = blob;
      mutated[pos] ^= flip;
      try {
        const daricch::ChannelSnapshot s = daricch::deserialize_snapshot(mutated);
        // Accepted: the flipped byte must land in a value field, not
        // structure — re-serializing must reproduce the mutated blob.
        EXPECT_EQ(daricch::serialize_snapshot(s), mutated) << "pos " << pos;
        ++absorbed;
      } catch (const std::exception&) {
        ++rejected;
      }
    }
  }
  // The format is mostly fixed-width values, but structural bytes (counts,
  // opcodes, condition tags, lengths) must be validated.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(absorbed, 0);
}

TEST(Persistence, SnapshotSizeIsConstantInUpdates) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-3"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  const std::size_t size1 =
      daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA))).size();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(ch.update({450'000 - i, 550'000 + i, {}}));
  const std::size_t size21 =
      daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA))).size();
  EXPECT_EQ(size1, size21);  // the durable footprint *is* Table 1's O(1)
}

TEST(Persistence, RestoredPartyPunishesAfterCrash) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-4"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(ch.update({300'000, 700'000, {}}));

  // B "crashes": its process goes dark and only the serialized blob
  // survives. The blob is restored into a party that never held Γ/Θ: a
  // channel with the same params (so the same keys) that was never created.
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kB)));
  ch.party(PartyId::kB).set_online(false);
  daricch::DaricChannel restarted(env, make_params("persist-4"));
  daricch::restore_party(restarted, PartyId::kB, daricch::deserialize_snapshot(blob));

  ch.publish_old_commit(PartyId::kA, 0);
  for (int r = 0; r < 20 && restarted.outcome(PartyId::kB) == CloseOutcome::kNone; ++r)
    env.advance_round();
  EXPECT_EQ(restarted.outcome(PartyId::kB), CloseOutcome::kPunished);
  EXPECT_EQ(ch.outcome(PartyId::kB), CloseOutcome::kNone);  // the dead process never acted
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs[0].cash, 1'000'000);
}

TEST(Persistence, RestoredPartyForceClosesWithLatestState) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-5"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({250'000, 750'000, {}}));
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));
  ch.party(PartyId::kA).set_online(false);
  daricch::DaricChannel restarted(env, make_params("persist-5"));
  daricch::restore_party(restarted, PartyId::kA, daricch::deserialize_snapshot(blob));
  restarted.force_close(PartyId::kA);
  for (int r = 0; r < 30 && restarted.outcome(PartyId::kA) == CloseOutcome::kNone; ++r)
    env.advance_round();
  EXPECT_EQ(restarted.outcome(PartyId::kA), CloseOutcome::kNonCollaborative);
  EXPECT_EQ(ch.outcome(PartyId::kA), CloseOutcome::kNone);
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto split = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->tx().outputs[0].cash, 250'000);
}

TEST(Persistence, RestoredPartySplitsTheCounterpartysLatestCommit) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-9"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({250'000, 750'000, {}}));
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));
  ch.party(PartyId::kA).set_online(false);
  // B force-closes with its latest commit and goes dark: only the restored
  // A can post the split.
  ch.force_close(PartyId::kB);
  ch.party(PartyId::kB).set_online(false);
  daricch::DaricChannel restarted(env, make_params("persist-9"));
  daricch::restore_party(restarted, PartyId::kA, daricch::deserialize_snapshot(blob));
  for (int r = 0; r < 30 && restarted.outcome(PartyId::kA) == CloseOutcome::kNone; ++r)
    env.advance_round();
  EXPECT_EQ(restarted.outcome(PartyId::kA), CloseOutcome::kNonCollaborative);
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto split = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->tx().outputs[0].cash, 250'000);
}

/// Records every snapshot the engine's fsync points persist.
struct SnapshotRecorder : daricch::DurabilityHook {
  std::vector<Bytes> blobs;
  void persist(const daricch::DaricParty& p) override {
    blobs.push_back(daricch::serialize_snapshot(daricch::snapshot_party(p)));
  }
};

TEST(Persistence, RestoreIsTheInverseOfSnapshot) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-6"));
  SnapshotRecorder rec;
  ch.party(PartyId::kA).set_durability_hook(&rec);
  ASSERT_TRUE(ch.create());
  const auto h = channel::make_htlc_secret("rt-h");
  ASSERT_TRUE(ch.update({390'000, 600'000, {{10'000, h.payment_hash, true, 4}}}));
  // The proposer persists at create, after message 4 and after promotion.
  ASSERT_EQ(rec.blobs.size(), 3u);
  const daricch::ChannelSnapshot mid = daricch::deserialize_snapshot(rec.blobs[1]);
  ASSERT_EQ(mid.sn, 1u);
  ASSERT_EQ(mid.theta_state, 0u);  // the post-message-4 window

  // Restore into a party that never held Γ/Θ (same params and keys, never
  // created), so every byte snapshotted back must come from the blob.
  daricch::DaricChannel restarted(env, make_params("persist-6"));
  const daricch::DaricParty& a = restarted.party(PartyId::kA);
  for (const Bytes& blob : {rec.blobs[1], rec.blobs[2]}) {
    daricch::restore_party(restarted, PartyId::kA, daricch::deserialize_snapshot(blob));
    EXPECT_EQ(daricch::serialize_snapshot(daricch::snapshot_party(a)), blob);
  }
  EXPECT_EQ(a.flag(), channel::ChannelFlag::kStable);
  daricch::restore_party(restarted, PartyId::kA, mid);
  EXPECT_EQ(a.flag(), channel::ChannelFlag::kUpdating);
  EXPECT_EQ(a.state_number(), 0u);
}

TEST(Persistence, RestoreRejectsForeignSnapshots) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("persist-7"));
  daricch::DaricChannel other(env, make_params("persist-8"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(other.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  const Bytes own = daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA)));

  const daricch::ChannelSnapshot of_b = daricch::snapshot_party(ch.party(PartyId::kB));
  EXPECT_THROW(daricch::restore_party(ch, PartyId::kA, of_b), std::invalid_argument);
  const daricch::ChannelSnapshot of_other = daricch::snapshot_party(other.party(PartyId::kA));
  EXPECT_THROW(daricch::restore_party(ch, PartyId::kA, of_other), std::invalid_argument);
  daricch::ChannelSnapshot swapped = daricch::deserialize_snapshot(own);
  std::swap(swapped.cm_own_script, swapped.cm_other_script);
  EXPECT_THROW(daricch::restore_party(ch, PartyId::kA, swapped), std::invalid_argument);

  // A rejected snapshot leaves the party as it was.
  EXPECT_EQ(daricch::serialize_snapshot(daricch::snapshot_party(ch.party(PartyId::kA))), own);
}

// --- Tower service -----------------------------------------------------

TEST(TowerService, WatchesManyChannelsAndAggregatesStorage) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  store::MemoryBackend disk;
  store::TowerService tower(disk);
  std::vector<std::unique_ptr<daricch::DaricChannel>> channels;
  const auto watch = [&tower](const daricch::DaricChannel& ch) {
    tower.watch(store::make_watch_entry(
        ch.params(), PartyId::kB, ch.funding_outpoint(), ch.party(PartyId::kA).pub(),
        ch.party(PartyId::kB).pub(), daricch::make_watchtower_package(ch.party(PartyId::kB))));
  };
  const int n_channels = 5;
  for (int i = 0; i < n_channels; ++i) {
    channels.push_back(std::make_unique<daricch::DaricChannel>(
        env, make_params("svc-" + std::to_string(i))));
    ASSERT_TRUE(channels.back()->create());
    ASSERT_TRUE(channels.back()->update({450'000, 550'000, {}}));
    watch(*channels.back());
  }
  env.add_round_hook([&] { tower.on_round(env.ledger()); });
  EXPECT_EQ(tower.channels(), 5u);

  const std::size_t records_1_update = tower.live_record_bytes();
  const std::size_t index_1_update = tower.index_bytes();
  // Many more updates: aggregate storage must not grow (O(#channels) only).
  for (int u = 0; u < 10; ++u) {
    for (const auto& ch : channels) {
      ASSERT_TRUE(ch->update({450'000 - u, 550'000 + u, {}}));
      watch(*ch);
    }
  }
  EXPECT_EQ(tower.live_record_bytes(), records_1_update);
  EXPECT_EQ(tower.index_bytes(), index_1_update);

  // Two of the five channels turn fraudulent; the tower reacts to exactly
  // those two and keeps watching the other three.
  channels[1]->publish_old_commit(PartyId::kA, 2);
  channels[3]->publish_old_commit(PartyId::kA, 0);
  env.advance_rounds(10);
  EXPECT_EQ(tower.reactions(), 2u);
  EXPECT_EQ(tower.channels(), 3u);
  for (int i : {1, 3}) {
    const auto commit = env.ledger().spender_of(channels[i]->funding_outpoint());
    ASSERT_NE(commit, nullptr);
    EXPECT_NE(env.ledger().spender_of({commit->txid(), 0}), nullptr);
  }
  EXPECT_TRUE(env.ledger().is_unspent(channels[0]->funding_outpoint()));
}

// --- Sub-channels (Sec. 8 "Other applications") -------------------------

struct SubFixture {
  sim::Environment env{kDelta, crypto::schnorr_scheme()};
  daricch::DaricChannel ch;
  daricch::SubchannelPackage pkg;

  SubFixture()
      : ch(env, make_params("parent")),
        pkg((ch.create(), ch.update({450'000, 550'000, {}}),
             daricch::build_subchannels(ch.party(PartyId::kA), ch.party(PartyId::kB),
                                        ch.params(), 300'000, 700'000))) {}

  // Publishes the parent commit and lands the sub-channel split on-chain.
  tx::OutPoint enforce_split() {
    ch.party(PartyId::kA).force_close();
    env.advance_rounds(kDelta + 2);
    const auto commit = env.ledger().spender_of(ch.funding_outpoint());
    const script::Script parent_script = daricch::commit_script(
        ch.party(PartyId::kA).pub().sp, ch.party(PartyId::kB).pub().sp,
        ch.party(PartyId::kA).pub().rv, ch.party(PartyId::kB).pub().rv, ch.params().s0 + 1,
        static_cast<std::uint32_t>(ch.params().t_punish));
    const Round c = *env.ledger().confirmation_round(commit->txid());
    while (env.now() < c + ch.params().t_punish) env.advance_round();
    daricch::bind_subchannel_split(pkg, {commit->txid(), 0}, parent_script);
    env.ledger().post_with_delay(pkg.split, 0);
    env.advance_rounds(2);
    return {pkg.split.txid(), 0};
  }
};

TEST(Subchannels, SplitCreatesTwoFundingOutputs) {
  SubFixture f;
  EXPECT_EQ(f.pkg.split.outputs.size(), 2u);
  EXPECT_EQ(f.pkg.split.outputs[0].cash + f.pkg.split.outputs[1].cash, 1'000'000);
  const tx::OutPoint op = f.enforce_split();
  ASSERT_TRUE(f.env.ledger().is_confirmed(op.txid));
  EXPECT_TRUE(f.env.ledger().is_unspent({op.txid, 0}));
  EXPECT_TRUE(f.env.ledger().is_unspent({op.txid, 1}));
}

TEST(Subchannels, FloatingCommitBindsToItsOwnFunding) {
  SubFixture f;
  const tx::OutPoint op = f.enforce_split();
  daricch::bind_subchannel_commit(f.pkg, 0, {op.txid, 0});
  f.env.ledger().post_with_delay(f.pkg.subs[0].commit, 0);
  f.env.advance_rounds(2);
  EXPECT_TRUE(f.env.ledger().is_confirmed(f.pkg.subs[0].commit.txid()));
}

TEST(Subchannels, CommitCannotSpendTheOtherSubchannelsFunding) {
  // The paper's key-separation requirement: sub-channel 0's commit must not
  // be able to claim sub-channel 1's funding output.
  SubFixture f;
  const tx::OutPoint op = f.enforce_split();
  daricch::bind_subchannel_commit(f.pkg, 0, {op.txid, 1});  // wrong vout!
  f.env.ledger().post_with_delay(f.pkg.subs[0].commit, 0);
  f.env.advance_rounds(2);
  EXPECT_EQ(f.env.ledger().post_result(f.pkg.subs[0].commit.txid()),
            ledger::TxError::kBadWitness);
}

TEST(Subchannels, RejectsMismatchedCapacities) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("parent-bad"));
  ASSERT_TRUE(ch.create());
  EXPECT_THROW(daricch::build_subchannels(ch.party(PartyId::kA), ch.party(PartyId::kB),
                                          ch.params(), 1, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace daric
