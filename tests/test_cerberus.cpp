// Cerberus baseline engine: incentivized-watchtower punishment, O(n)
// storage for party and tower, and Appendix H.6's commit layout.
#include <gtest/gtest.h>

#include "src/cerberus/protocol.h"
#include "src/tx/weight.h"

namespace daric {
namespace {

using cerberus::CerberusChannel;
using channel::StateVec;
using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Amount kReward = 5'000;

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

TEST(Cerberus, OutputScriptIs115Bytes) {
  const auto k = crypto::derive_keypair("cb-s");
  const auto s =
      cerberus::cerberus_output_script(k.pk.compressed(), k.pk.compressed(), 144,
                                       k.pk.compressed());
  EXPECT_EQ(s.wire_size(), 115u);  // Appendix H.6
}

TEST(Cerberus, CommitMatchesAppendixH6Weight) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  CerberusChannel ch(env, make_params("cb-w"), kReward);
  ASSERT_TRUE(ch.create());
  const auto size = tx::measure(ch.latest_commit(PartyId::kA));
  EXPECT_EQ(size.base, 137u);      // two P2WSH outputs
  EXPECT_EQ(size.witness(), 224u);
  EXPECT_EQ(size.weight(), 772u);  // Table 3's non-collab figure
}

TEST(Cerberus, CreateUpdateCooperativeClose) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  CerberusChannel ch(env, make_params("cb-1"), kReward);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(ch.update({300'000, 700'000, {}}));
  EXPECT_EQ(ch.state_number(), 2u);
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kCooperative);
}

TEST(Cerberus, ForceCloseSweepsAfterDelay) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  CerberusChannel ch(env, make_params("cb-2"), kReward);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  ch.force_close(PartyId::kB);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kNonCollaborative);
}

class CerberusPunishSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CerberusPunishSweep, TowerPunishesAndCollectsReward) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  CerberusChannel ch(env, make_params("cb-p" + std::to_string(GetParam())), kReward);
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({500'000 - i * 1000, 500'000 + i * 1000, {}}));

  ch.publish_old_commit(PartyId::kA, GetParam());
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kPunished);
  EXPECT_TRUE(ch.tower(PartyId::kB).reacted());

  // The revocation pays (capacity − reward) to B and the reward to the tower.
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  ASSERT_NE(commit, nullptr);
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs.size(), 2u);
  EXPECT_EQ(rv->tx().outputs[0].cash, 1'000'000 - kReward);
  EXPECT_EQ(rv->tx().outputs[1].cash, kReward);
  EXPECT_EQ(rv->tx().outputs[1].cond,
            tx::Condition::p2wpkh(ch.tower_reward_pk()));
}

INSTANTIATE_TEST_SUITE_P(States, CerberusPunishSweep, ::testing::Values(0u, 1u, 2u));

TEST(Cerberus, PartyAndTowerStorageGrowLinearly) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  CerberusChannel ch(env, make_params("cb-3"), kReward);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  const std::size_t p1 = ch.party_storage_bytes(PartyId::kA);
  const std::size_t t1 = ch.tower(PartyId::kA).storage_bytes();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ch.update({450'000 - i, 550'000 + i, {}}));
  EXPECT_GT(ch.party_storage_bytes(PartyId::kA), p1);
  EXPECT_GT(ch.tower(PartyId::kA).storage_bytes(), t1);
}

TEST(Cerberus, RejectsDegenerateReward) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  EXPECT_THROW(CerberusChannel(env, make_params("cb-bad"), 0), std::invalid_argument);
  EXPECT_THROW(CerberusChannel(env, make_params("cb-bad2"), 2'000'000),
               std::invalid_argument);
}

}  // namespace
}  // namespace daric
