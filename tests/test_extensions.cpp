// Extension features of Sec. 8 and the UC machinery: payment-channel
// network routing, fee-bumped revocations (SINGLE|ANYPREVOUT), channel
// reset, the ideal-functionality conformance checker, and the Lightning
// watchtower's O(n) storage.
#include <gtest/gtest.h>

#include "src/daric/fees.h"
#include "src/daric/reset.h"
#include "src/lightning/watchtower.h"
#include "src/pcn/network.h"
#include "src/uc/conformance.h"

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

// --- PCN ------------------------------------------------------------------

struct PcnFixture {
  sim::Environment env{kDelta, crypto::schnorr_scheme()};
  pcn::PaymentNetwork net{env};

  PcnFixture() {
    for (const char* n : {"alice", "bob", "carol", "dave"}) net.add_node(n);
    net.open_channel("alice", "bob", 500'000, 500'000);
    net.open_channel("bob", "carol", 500'000, 500'000);
    net.open_channel("carol", "dave", 500'000, 500'000);
  }
};

TEST(Pcn, RouteAlongLineTopology) {
  PcnFixture f;
  const auto route = f.net.find_route("alice", "dave", 100'000);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->size(), 3u);
  EXPECT_TRUE((*route)[0].forward);
}

TEST(Pcn, NoRouteWhenLiquidityInsufficient) {
  PcnFixture f;
  EXPECT_FALSE(f.net.find_route("alice", "dave", 600'000).has_value());
  EXPECT_FALSE(f.net.find_route("alice", "zed", 1).has_value());
}

TEST(Pcn, MultiHopPaymentMovesBalances) {
  PcnFixture f;
  const Amount a0 = f.net.balance("alice");
  const Amount d0 = f.net.balance("dave");
  ASSERT_TRUE(f.net.pay("alice", "dave", 120'000));
  EXPECT_EQ(f.net.balance("alice"), a0 - 120'000);
  EXPECT_EQ(f.net.balance("dave"), d0 + 120'000);
  // Intermediaries net to zero.
  EXPECT_EQ(f.net.balance("bob"), 1'000'000);
  EXPECT_EQ(f.net.balance("carol"), 1'000'000);
  EXPECT_EQ(f.net.payments_completed(), 1);
}

TEST(Pcn, ReverseDirectionPayment) {
  PcnFixture f;
  ASSERT_TRUE(f.net.pay("dave", "alice", 80'000));
  EXPECT_EQ(f.net.balance("alice"), 1'080'000 - 500'000);  // alice has 1 channel
}

TEST(Pcn, PaymentsAreFullyOffChain) {
  PcnFixture f;
  const std::size_t before = f.env.ledger().accepted().size();
  ASSERT_TRUE(f.net.pay("alice", "dave", 50'000));
  ASSERT_TRUE(f.net.pay("dave", "alice", 10'000));
  EXPECT_EQ(f.env.ledger().accepted().size(), before);
}

TEST(Pcn, OfflineHopFailsAndRollsBack) {
  PcnFixture f;
  const Amount a0 = f.net.balance("alice");
  f.net.set_offline("carol", true);
  EXPECT_FALSE(f.net.pay("alice", "dave", 60'000));
  EXPECT_EQ(f.net.balance("alice"), a0);  // HTLC lock rolled back
  f.net.set_offline("carol", false);
  EXPECT_TRUE(f.net.pay("alice", "dave", 60'000));
}

TEST(Pcn, LiquidityExhaustionAfterPayments) {
  PcnFixture f;
  ASSERT_TRUE(f.net.pay("alice", "dave", 490'000));
  // alice -> bob channel now has ~10k of alice-side liquidity left.
  EXPECT_FALSE(f.net.pay("alice", "dave", 100'000));
  // But the reverse direction is fat now.
  EXPECT_TRUE(f.net.pay("dave", "alice", 400'000));
}

TEST(Pcn, OfflineRecipientRollsBackLockedHops) {
  // Routing can avoid offline *intermediaries*, but an offline recipient is
  // only discovered at lock time: the upstream HTLC locks must roll back.
  PcnFixture f;
  const Amount a0 = f.net.balance("alice");
  const Amount b0 = f.net.balance("bob");
  f.net.set_offline("dave", true);
  EXPECT_FALSE(f.net.pay("alice", "dave", 70'000));
  EXPECT_EQ(f.net.balance("alice"), a0);
  EXPECT_EQ(f.net.balance("bob"), b0);
  // No HTLC left dangling on any channel.
  for (std::size_t i = 0; i < f.net.channel_count(); ++i)
    EXPECT_EQ(f.net.channel(i).party(PartyId::kA).state().num_htlcs(), 0u);
}

TEST(Pcn, FraudOnARoutedChannelIsStillPunished) {
  PcnFixture f;
  ASSERT_TRUE(f.net.pay("alice", "dave", 200'000));
  // Bob publishes the pre-payment state of the bob-carol channel.
  auto& ch = f.net.channel(1);
  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);
}

// --- UC conformance ---------------------------------------------------------

struct UcFixture {
  sim::Environment env{kDelta, crypto::schnorr_scheme()};
  daricch::DaricChannel ch;
  uc::ConformanceChecker checker;

  explicit UcFixture(const std::string& id) : ch(env, make_params(id)), checker(env, ch) {}

  bool update(const StateVec& st) {
    checker.observe_update_begin();
    const bool ok = ch.update(st);
    checker.observe_update_end(ok);
    return ok;
  }
};

TEST(UcConformance, HonestLifecycleSatisfiesF) {
  UcFixture f("uc-1");
  ASSERT_TRUE(f.ch.create());
  f.checker.observe_created();
  ASSERT_TRUE(f.update({400'000, 600'000, {}}));
  ASSERT_TRUE(f.update({450'000, 550'000, {}}));
  ASSERT_TRUE(f.ch.cooperative_close());
  f.env.advance_rounds(5);
  EXPECT_TRUE(f.checker.satisfied())
      << (f.checker.violations().empty() ? "" : f.checker.violations()[0]);
}

TEST(UcConformance, ForceCloseSatisfiesBoundedClosure) {
  UcFixture f("uc-2");
  ASSERT_TRUE(f.ch.create());
  f.checker.observe_created();
  ASSERT_TRUE(f.update({300'000, 700'000, {}}));
  f.ch.party(PartyId::kB).force_close();
  ASSERT_TRUE(f.ch.run_until_closed());
  f.env.advance_rounds(3);
  EXPECT_TRUE(f.checker.satisfied())
      << (f.checker.violations().empty() ? "" : f.checker.violations()[0]);
}

TEST(UcConformance, FraudResolvesViaPunishCase) {
  UcFixture f("uc-3");
  ASSERT_TRUE(f.ch.create());
  f.checker.observe_created();
  ASSERT_TRUE(f.update({300'000, 700'000, {}}));
  ASSERT_TRUE(f.update({200'000, 800'000, {}}));
  f.ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(f.ch.run_until_closed());
  f.env.advance_rounds(3);
  EXPECT_TRUE(f.checker.satisfied())
      << (f.checker.violations().empty() ? "" : f.checker.violations()[0]);
}

class UcAbortSweep : public ::testing::TestWithParam<int> {};

TEST_P(UcAbortSweep, AbortedUpdatesStillSatisfyF) {
  UcFixture f("uc-abort-" + std::to_string(GetParam()));
  ASSERT_TRUE(f.ch.create());
  f.checker.observe_created();
  ASSERT_TRUE(f.update({450'000, 550'000, {}}));
  auto& misbehaving =
      GetParam() % 2 == 1 ? f.ch.party(PartyId::kA) : f.ch.party(PartyId::kB);
  misbehaving.behavior.abort_update_before_msg = GetParam();
  f.checker.observe_update_begin();
  EXPECT_FALSE(f.ch.update({350'000, 650'000, {}}));
  f.checker.observe_update_end(false);
  f.env.advance_rounds(3);
  EXPECT_TRUE(f.checker.satisfied())
      << (f.checker.violations().empty() ? "" : f.checker.violations()[0]);
}

INSTANTIATE_TEST_SUITE_P(AbortPoints, UcAbortSweep, ::testing::Range(1, 7));

// --- Fee handling (Sec. 8) --------------------------------------------------

TEST(FeeHandling, FeeBumpedRevocationConfirms) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  channel::ChannelParams params = make_params("fee-1");
  params.feeable_revocations = true;
  daricch::DaricChannel ch(env, params);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({400'000, 600'000, {}}));

  // B registers a fee wallet for its punishment transaction.
  const crypto::KeyPair fee_key = crypto::derive_keypair("fee-wallet");
  const tx::OutPoint fee_op =
      env.ledger().mint(10'000, tx::Condition::p2wpkh(fee_key.pk.compressed()));
  ch.party(PartyId::kB).set_fee_source({fee_op, 10'000, fee_key}, 4'000);

  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);

  // The confirmed revocation carries the fee pair: 2 inputs, 2 outputs,
  // and the ledger collected exactly the fee.
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().inputs.size(), 2u);
  EXPECT_EQ(rv->tx().outputs.size(), 2u);
  EXPECT_EQ(rv->tx().outputs[0].cash, 1'000'000);  // full capacity to B
  EXPECT_EQ(rv->tx().outputs[1].cash, 6'000);      // change
  EXPECT_EQ(env.ledger().fees_total(), 4'000);
}

TEST(FeeHandling, AttachFeeRejectsOverdraft) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  tx::Transaction t;
  const crypto::KeyPair k = crypto::derive_keypair("fee-odd");
  EXPECT_THROW(
      daricch::attach_fee(t, {{}, 100, k}, 200, env.scheme()),
      std::invalid_argument);
}

TEST(FeeHandling, FeeSourceRequiresFeeableParams) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("fee-2"));  // not feeable
  ASSERT_TRUE(ch.create());
  const crypto::KeyPair k = crypto::derive_keypair("fee-w2");
  EXPECT_THROW(ch.party(PartyId::kB).set_fee_source({{}, 100, k}, 10), std::logic_error);
}

// --- Channel reset (Sec. 8) --------------------------------------------

TEST(ChannelReset, ResetChainConfirmsOnLedger) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("reset-1"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({400'000, 600'000, {}}));

  // Parties agree on the reset off-chain...
  daricch::ResetPackage pkg =
      daricch::build_reset(ch.party(PartyId::kA), ch.party(PartyId::kB), ch.params(),
                           {400'000, 600'000, {}});

  // ...and later enforce it: A publishes the latest commit; after T the
  // reset split (instead of a normal split) lands; then the new channel's
  // floating commit binds to it.
  ch.party(PartyId::kA).force_close();
  env.advance_rounds(kDelta + 2);
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  ASSERT_NE(commit, nullptr);

  // The party's own monitor wants to publish the *normal* split at
  // c + T; in a real reset both parties replace their stored split with
  // the reset split. Post the reset split one round earlier (delay 0) so
  // it wins the race against the monitor's Δ-delayed post.
  const Round c = *env.ledger().confirmation_round(commit->txid());
  while (env.now() < c + ch.params().t_punish) env.advance_round();
  const script::Script commit_script =
      daricch::commit_script(ch.party(PartyId::kA).pub().sp, ch.party(PartyId::kB).pub().sp,
                             ch.party(PartyId::kA).pub().rv, ch.party(PartyId::kB).pub().rv,
                             ch.params().s0 + 1, static_cast<std::uint32_t>(ch.params().t_punish));
  daricch::bind_reset_split(pkg, {commit->txid(), 0}, commit_script);
  env.ledger().post_with_delay(pkg.reset_split, 0);
  env.advance_rounds(2);
  ASSERT_TRUE(env.ledger().is_confirmed(pkg.reset_split.txid()));

  // The reset channel's floating commit binds to the now-known outpoint.
  daricch::bind_new_commit(pkg, {pkg.reset_split.txid(), 0});
  env.ledger().post_with_delay(pkg.new_commit, 0);
  env.advance_rounds(2);
  EXPECT_TRUE(env.ledger().is_confirmed(pkg.new_commit.txid()));
  // State numbering restarted: the new commit's locktime is S0 again.
  EXPECT_EQ(pkg.new_commit.nlocktime, ch.params().s0);
}

// --- Lightning watchtower (Table 1's O(n) tower) ----------------------------

TEST(LightningTower, PunishesRevokedCommit) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("lnt-1"));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({500'000 - i * 1000, 500'000 + i * 1000, {}}));

  lightning::LightningWatchtower tower(PartyId::kB, {ch.archived_commit(PartyId::kA, 0).inputs[0].prevout},
                                       ch.payout_pk(PartyId::kB));
  for (std::uint32_t s = 0; s < ch.state_number(); ++s)
    tower.add_package(lightning::make_ln_tower_package(ch, PartyId::kB, s));
  env.add_round_hook([&] { tower.on_round(env.ledger()); });

  ch.publish_old_commit(PartyId::kA, 1);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_TRUE(tower.reacted());
}

TEST(LightningTower, StorageGrowsPerState) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("lnt-2"));
  ASSERT_TRUE(ch.create());
  lightning::LightningWatchtower tower(PartyId::kB, {ch.archived_commit(PartyId::kA, 0).inputs[0].prevout},
                                       ch.payout_pk(PartyId::kB));
  std::vector<std::size_t> sizes;
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(ch.update({500'000 - i, 500'000 + i, {}}));
    tower.add_package(
        lightning::make_ln_tower_package(ch, PartyId::kB, static_cast<std::uint32_t>(i - 1)));
    sizes.push_back(tower.storage_bytes());
  }
  // Strictly increasing — O(n), unlike the Daric tower.
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
}

TEST(LightningTower, SecretNotRevealedBeforeRevocation) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("lnt-3"));
  ASSERT_TRUE(ch.create());
  EXPECT_THROW(ch.revealed_secret(PartyId::kA, 0), std::logic_error);  // state 0 not revoked
  ASSERT_TRUE(ch.update({499'000, 501'000, {}}));
  EXPECT_NO_THROW(ch.revealed_secret(PartyId::kA, 0));
}

}  // namespace
}  // namespace daric
