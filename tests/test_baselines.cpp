// Baseline channel engines: Lightning (O(n) secrets, punishment), eltoo
// (O(1) storage, override-but-no-punish), Generalized (adaptor-based
// publisher identification + punishment).
#include <gtest/gtest.h>

#include "src/eltoo/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"
#include "src/tx/weight.h"

namespace daric {
namespace {

using channel::StateVec;
using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Round kT = 6;

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 60'000;
  p.cash_b = 40'000;
  p.t_punish = kT;
  return p;
}

// --- Lightning -----------------------------------------------------------

TEST(Lightning, CreateUpdateCooperativeClose) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("ln-1"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  ASSERT_TRUE(ch.update({30'000, 70'000, {}}));
  EXPECT_EQ(ch.state_number(), 2u);
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kCooperative);
}

TEST(Lightning, ForceCloseSweepsAfterDelay) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("ln-2"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({45'000, 55'000, {}}));
  ch.force_close(PartyId::kA);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kNonCollaborative);
}

class LightningPunishSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LightningPunishSweep, RevokedCommitPunished) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("ln-p" + std::to_string(GetParam())));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({60'000 - i * 1000, 40'000 + i * 1000, {}}));
  ch.publish_old_commit(PartyId::kA, GetParam());
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kPunished);
}

INSTANTIATE_TEST_SUITE_P(States, LightningPunishSweep, ::testing::Values(0u, 1u, 2u));

TEST(Lightning, StorageGrowsLinearly) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("ln-3"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  const std::size_t s1 = ch.party_storage_bytes(PartyId::kA);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ch.update({50'000 - i, 50'000 + i, {}}));
  const std::size_t s11 = ch.party_storage_bytes(PartyId::kA);
  // Ten more revocation secrets: exactly 10 * 32 bytes of growth.
  EXPECT_EQ(s11 - s1, 10u * 32u);
}

TEST(Lightning, CommitWeightGrowsWithHtlcs) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ch(env, make_params("ln-4"));
  ASSERT_TRUE(ch.create());
  const auto h1 = channel::make_htlc_secret("ln-h1");
  StateVec st{40'000, 40'000, {}};
  for (int i = 0; i < 4; ++i) st.htlcs.push_back({5'000, h1.payment_hash, i % 2 == 0, 5});
  ASSERT_TRUE(ch.update(st));
  const auto size0 = tx::measure(ch.latest_commit(PartyId::kA));
  // Each HTLC output adds 43 non-witness bytes (P2WSH output).
  StateVec st2 = st;
  st2.htlcs.push_back({1'000, h1.payment_hash, true, 5});
  st2.to_a -= 1'000;
  ASSERT_TRUE(ch.update(st2));
  const auto size1 = tx::measure(ch.latest_commit(PartyId::kA));
  EXPECT_EQ(size1.base - size0.base, 43u);
}

// --- eltoo -----------------------------------------------------------------

TEST(Eltoo, CreateUpdateCooperativeClose) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("el-1"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({55'000, 45'000, {}}));
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(ch.settled_state(), 1u);
}

TEST(Eltoo, ForceCloseSettlesLatestState) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("el-2"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({20'000, 80'000, {}}));
  ch.force_close(PartyId::kB);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.settled_state(), 1u);
}

TEST(Eltoo, StaleUpdateOverriddenByReactingParty) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("el-3"));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({60'000 - i * 1000, 40'000 + i * 1000, {}}));
  ch.publish_old_commit(PartyId::kA, 1);
  ASSERT_TRUE(ch.run_until_closed());
  // No punishment exists, but the final settled state is the latest one.
  EXPECT_EQ(ch.settled_state(), 3u);
}

TEST(Eltoo, NonReactingVictimLosesToOldState) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("el-4"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({59'000, 41'000, {}}));
  ASSERT_TRUE(ch.update({10'000, 90'000, {}}));  // B's favourable latest state
  ch.set_reacting(PartyId::kA, false);
  ch.set_reacting(PartyId::kB, false);  // B crashed / DoSed (prob. 1-p event)
  ch.publish_old_commit(PartyId::kA, 1);
  env.advance_rounds(kT + kDelta + 2);
  ch.attacker_settle(PartyId::kA, 1);
  ASSERT_TRUE(ch.run_until_closed());
  // The stale state 1 (59k/41k) settled: eltoo's incentive failure.
  EXPECT_EQ(ch.settled_state(), 1u);
}

TEST(Eltoo, StorageConstantAcrossUpdates) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  eltoo::EltooChannel ch(env, make_params("el-5"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  const std::size_t s1 = ch.party_storage_bytes(PartyId::kA);
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(ch.update({50'000 - i, 50'000 + i, {}}));
  EXPECT_EQ(ch.party_storage_bytes(PartyId::kA), s1);
}

// --- Generalized ------------------------------------------------------------

TEST(Generalized, RequiresAdaptorCapableScheme) {
  sim::Environment env(kDelta, crypto::ecdsa_scheme());
  EXPECT_THROW(generalized::GeneralizedChannel(env, make_params("gc-ecdsa")),
               std::invalid_argument);
}

TEST(Generalized, CreateUpdateCooperativeClose) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  generalized::GeneralizedChannel ch(env, make_params("gc-1"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({48'000, 52'000, {}}));
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kCooperative);
}

TEST(Generalized, ForceCloseSplitsAfterDelay) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  generalized::GeneralizedChannel ch(env, make_params("gc-2"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({48'000, 52'000, {}}));
  ch.force_close(PartyId::kB);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kNonCollaborative);
}

class GeneralizedPunishSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(GeneralizedPunishSweep, PublisherIdentifiedAndPunished) {
  const PartyId cheater = std::get<0>(GetParam()) == 0 ? PartyId::kA : PartyId::kB;
  const std::uint32_t state = std::get<1>(GetParam());
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  generalized::GeneralizedChannel ch(
      env, make_params("gc-p" + std::to_string(std::get<0>(GetParam())) +
                       std::to_string(state)));
  ASSERT_TRUE(ch.create());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ch.update({60'000 - i * 500, 40'000 + i * 500, {}}));
  ch.publish_old_commit(cheater, state);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kPunished);
}

INSTANTIATE_TEST_SUITE_P(CheaterAndState, GeneralizedPunishSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0u, 1u, 2u)));

TEST(Generalized, StorageGrowsWithRevealedSecrets) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  generalized::GeneralizedChannel ch(env, make_params("gc-3"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  const std::size_t s1 = ch.party_storage_bytes(PartyId::kA);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ch.update({50'000 - i, 50'000 + i, {}}));
  EXPECT_EQ(ch.party_storage_bytes(PartyId::kA) - s1, 8u * 32u);
}

// Scheme-agnosticism: Lightning and eltoo, like Daric, only need
// (Gen, Sign, Vrfy) and must run unmodified over ECDSA. (Generalized is
// the scheme-constrained exception, tested above.)
class SchemeSweep : public ::testing::TestWithParam<int> {
 protected:
  const crypto::SignatureScheme& scheme() const {
    return GetParam() == 0 ? crypto::schnorr_scheme() : crypto::ecdsa_scheme();
  }
  std::string tag() const { return GetParam() == 0 ? "schnorr" : "ecdsa"; }
};

TEST_P(SchemeSweep, LightningLifecycleAndPunish) {
  sim::Environment env(kDelta, scheme());
  lightning::LightningChannel ch(env, make_params("ln-sw-" + tag()));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  ASSERT_TRUE(ch.update({30'000, 70'000, {}}));
  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kPunished);
}

TEST_P(SchemeSweep, EltooLifecycleAndOverride) {
  sim::Environment env(kDelta, scheme());
  eltoo::EltooChannel ch(env, make_params("el-sw-" + tag()));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  ASSERT_TRUE(ch.update({30'000, 70'000, {}}));
  ch.publish_old_commit(PartyId::kA, 1);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.settled_state(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeSweep, ::testing::Values(0, 1));

// Cross-engine storage comparison: the Table 1 asymptotics, measured.
TEST(StorageComparison, DaricAndEltooConstantLightningAndGcLinear) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  lightning::LightningChannel ln(env, make_params("cmp-ln"));
  eltoo::EltooChannel el(env, make_params("cmp-el"));
  generalized::GeneralizedChannel gc(env, make_params("cmp-gc"));
  ASSERT_TRUE(ln.create());
  ASSERT_TRUE(el.create());
  ASSERT_TRUE(gc.create());
  ASSERT_TRUE(ln.update({50'000, 50'000, {}}));
  ASSERT_TRUE(el.update({50'000, 50'000, {}}));
  ASSERT_TRUE(gc.update({50'000, 50'000, {}}));
  const std::size_t ln1 = ln.party_storage_bytes(PartyId::kA);
  const std::size_t el1 = el.party_storage_bytes(PartyId::kA);
  const std::size_t gc1 = gc.party_storage_bytes(PartyId::kA);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(ln.update({50'000 - i, 50'000 + i, {}}));
    ASSERT_TRUE(el.update({50'000 - i, 50'000 + i, {}}));
    ASSERT_TRUE(gc.update({50'000 - i, 50'000 + i, {}}));
  }
  EXPECT_GT(ln.party_storage_bytes(PartyId::kA), ln1);  // O(n)
  EXPECT_EQ(el.party_storage_bytes(PartyId::kA), el1);  // O(1)
  EXPECT_GT(gc.party_storage_bytes(PartyId::kA), gc1);  // O(n)
}

}  // namespace
}  // namespace daric
