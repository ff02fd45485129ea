// FPPW baseline engine: fair-watchtower punishment (revocation path) and
// collateral compensation when the tower fails (penalty path).
#include <gtest/gtest.h>

#include "src/fppw/protocol.h"
#include "src/tx/weight.h"

namespace daric {
namespace {

using channel::StateVec;
using fppw::FppwChannel;
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

TEST(Fppw, RequiresAdaptorScheme) {
  sim::Environment env(kDelta, crypto::ecdsa_scheme());
  EXPECT_THROW(FppwChannel(env, make_params("fp-ecdsa")), std::invalid_argument);
}

TEST(Fppw, CommitMatchesAppendixH5Layout) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-w"));
  ASSERT_TRUE(ch.create());
  const auto size = tx::measure(ch.latest_commit_body());
  EXPECT_EQ(size.base, 137u);  // two P2WSH outputs (H.5: 137 non-witness bytes)
  EXPECT_EQ(ch.latest_commit_body().outputs[0].cash, 1'000'000);
  EXPECT_EQ(ch.latest_commit_body().outputs[1].cash, ch.collateral());
}

TEST(Fppw, CreateUpdateCooperativeClose) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-1"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(ch.update({300'000, 700'000, {}}));
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kCooperative);
  // The tower's collateral came back in the close transaction.
  const auto close = env.ledger().spender_of(ch.funding_outpoint());
  ASSERT_NE(close, nullptr);
  EXPECT_EQ(close->tx().outputs.back().cash, ch.collateral());
}

TEST(Fppw, ForceCloseSplitsAfterDelay) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-2"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ch.force_close(PartyId::kB);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kNonCollaborative);
}

class FppwPunishSweep : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(FppwPunishSweep, OnlineTowerFiresRevocation) {
  const PartyId cheater = std::get<0>(GetParam()) == 0 ? PartyId::kA : PartyId::kB;
  const std::uint32_t state = std::get<1>(GetParam());
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-p" + std::to_string(std::get<0>(GetParam())) +
                                  std::to_string(state)));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({500'000 - i * 1000, 500'000 + i * 1000, {}}));
  ch.publish_old_commit(cheater, state);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kPunished);

  // The revocation paid the channel funds to the victim and returned the
  // collateral to the tower.
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  ASSERT_EQ(rv->tx().outputs.size(), 2u);
  EXPECT_EQ(rv->tx().outputs[0].cash, 1'000'000);
  EXPECT_EQ(rv->tx().outputs[1].cash, ch.collateral());
  EXPECT_FALSE(env.ledger().is_unspent({commit->txid(), 1}));  // both inputs spent
}

INSTANTIATE_TEST_SUITE_P(CheaterAndState, FppwPunishSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0u, 1u, 2u)));

TEST(Fppw, OfflineTowerVictimTakesCollateral) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-comp"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(ch.update({300'000, 700'000, {}}));
  ch.set_tower_online(false);

  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kCompensated);

  // The penalty transaction paid the collateral to the victim B.
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto pen = env.ledger().spender_of({commit->txid(), 1});
  ASSERT_NE(pen, nullptr);
  EXPECT_EQ(pen->tx().outputs.size(), 1u);
  EXPECT_EQ(pen->tx().outputs[0].cash, ch.collateral());
}

TEST(Fppw, PartyAndTowerStorageGrowLinearly) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  FppwChannel ch(env, make_params("fp-3"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  const std::size_t p1 = ch.party_storage_bytes(PartyId::kA);
  const std::size_t t1 = ch.tower_storage_bytes();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ch.update({450'000 - i, 550'000 + i, {}}));
  EXPECT_GT(ch.party_storage_bytes(PartyId::kA), p1);
  EXPECT_GT(ch.tower_storage_bytes(), t1);
}

}  // namespace
}  // namespace daric
