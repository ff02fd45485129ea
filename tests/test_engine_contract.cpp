// The channel::Engine contract over all six engines, driven only through
// channel::Engine&: an honest lifecycle and a force close pay the last
// balances to the parties' payout keys, and a revoked commit published
// while both monitors are dark stays unanswered until they return, then
// resolves the way the engine promises (punishment, the tower's cut, or
// eltoo's override).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "src/cerberus/protocol.h"
#include "src/daric/protocol.h"
#include "src/eltoo/protocol.h"
#include "src/fppw/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"

namespace daric {
namespace {

using channel::Engine;
using channel::Outcome;
using channel::StateVec;
using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Round kT = 8;
constexpr Amount kCashA = 60'000;
constexpr Amount kCashB = 40'000;
constexpr Amount kCapacity = kCashA + kCashB;
constexpr Amount kTowerReward = 5'000;
const StateVec kFirst{55'000, 45'000, {}};
const StateVec kLast{30'000, 70'000, {}};

/// How B's revoked state-0 commit resolves, and what it pays.
struct Resolution {
  Outcome outcome;
  Amount to_a, to_b;
};

struct EngineCase {
  const char* name;
  std::function<std::unique_ptr<Engine>(sim::Environment&, channel::ChannelParams)> make;
  Resolution fraud;
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

template <class E>
std::unique_ptr<Engine> make(sim::Environment& env, channel::ChannelParams p) {
  return std::make_unique<E>(env, std::move(p));
}

const Resolution kPunishedToA{Outcome::kPunished, kCapacity, 0};

const EngineCase kCases[] = {
    {"daric", make<daricch::DaricChannel>, kPunishedToA},
    {"lightning", make<lightning::LightningChannel>, kPunishedToA},
    {"generalized", make<generalized::GeneralizedChannel>, kPunishedToA},
    {"fppw", make<fppw::FppwChannel>, kPunishedToA},
    {"cerberus",
     [](sim::Environment& env, channel::ChannelParams p) -> std::unique_ptr<Engine> {
       return std::make_unique<cerberus::CerberusChannel>(env, std::move(p), kTowerReward);
     },
     {Outcome::kPunished, kCapacity - kTowerReward, 0}},
    // eltoo cannot punish: the honest monitor overrides the stale update
    // and settles the latest state.
    {"eltoo", make<eltoo::EltooChannel>, {Outcome::kNonCollaborative, kLast.to_a, kLast.to_b}},
};

/// Sum of unspent P2WPKH outputs paying `pk33`.
Amount credited(const ledger::Ledger& l, BytesView pk33) {
  const tx::Condition cond = tx::Condition::p2wpkh(pk33);
  Amount sum = 0;
  for (const auto& [op, u] : l.utxos().entries())
    if (u.output.cond == cond) sum += u.output.cash;
  return sum;
}

channel::ChannelParams params(const std::string& name) {
  channel::ChannelParams p;
  p.id = "contract-" + name;
  p.cash_a = kCashA;
  p.cash_b = kCashB;
  p.t_punish = kT;
  return p;
}

/// create + two updates, through the contract only.
void open_and_update(Engine& ch) {
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update(kFirst));
  ASSERT_TRUE(ch.update(kLast));
  ASSERT_EQ(ch.state_number(), 2u);
  ASSERT_FALSE(ch.closed());
}

class EngineContract : public ::testing::TestWithParam<EngineCase> {
 protected:
  EngineContract()
      : env_(kDelta, crypto::schnorr_scheme()),
        engine_(GetParam().make(env_, params(GetParam().name))) {}

  Amount paid(PartyId who) const { return credited(env_.ledger(), engine_->payout_pk(who)); }

  sim::Environment env_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(EngineContract, HonestLifecyclePaysTheLastBalances) {
  Engine& ch = *engine_;
  open_and_update(ch);
  ASSERT_TRUE(ch.cooperative_close(PartyId::kA));
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), Outcome::kCooperative);
  EXPECT_EQ(ch.outcome(PartyId::kB), Outcome::kCooperative);
  EXPECT_EQ(paid(PartyId::kA), kLast.to_a);
  EXPECT_EQ(paid(PartyId::kB), kLast.to_b);
}

TEST_P(EngineContract, ForceClosePaysTheLastBalances) {
  Engine& ch = *engine_;
  open_and_update(ch);
  ch.force_close(PartyId::kA);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), Outcome::kNonCollaborative);
  EXPECT_EQ(paid(PartyId::kA), kLast.to_a);
  EXPECT_EQ(paid(PartyId::kB), kLast.to_b);
}

TEST_P(EngineContract, RevokedCommitWaitsForDarkMonitorsThenResolves) {
  Engine& ch = *engine_;
  open_and_update(ch);
  ch.set_monitor_online(false, false);
  ch.publish_old_commit(PartyId::kB, 0);
  // Theorem 1's budget: a monitor may miss up to T − Δ rounds.
  for (Round k = 1; k <= kT - kDelta; ++k) {
    env_.advance_round();
    ASSERT_EQ(ch.outcome(PartyId::kA), Outcome::kNone) << "answered while dark, round " << k;
  }
  ch.set_monitor_online(true, true);
  ASSERT_TRUE(ch.run_until_closed());
  const Resolution& want = GetParam().fraud;
  EXPECT_EQ(ch.outcome(PartyId::kA), want.outcome);
  EXPECT_EQ(ch.punishes(), want.outcome == Outcome::kPunished);
  EXPECT_EQ(paid(PartyId::kA), want.to_a);
  EXPECT_EQ(paid(PartyId::kB), want.to_b);
}

/// Loses every message, so no handshake ever gets through.
class DropEverything : public sim::FaultInjector {
 public:
  sim::MessageAction on_message(Round, PartyId, const std::string&) override {
    return {sim::MessageFate::kDrop, 0};
  }
  Round post_delay(Round, Round) override { return 0; }
};

TEST_P(EngineContract, CreateThatTimesOutStrandsNoFunds) {
  DropEverything drop;
  env_.set_fault_injector(&drop);
  EXPECT_FALSE(engine_->create());
  // A channel that never opened is not closed either.
  EXPECT_FALSE(engine_->closed());
  // The 2-of-2 funding output is the only script output a create mints.
  for (const auto& [op, u] : env_.ledger().utxos().entries())
    EXPECT_NE(u.output.cond.type, tx::Condition::Type::kP2WSH)
        << u.output.cash << " stranded in a script output";
  env_.set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineContract, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return std::string(info.param.name);
                         });

// FPPW escrows the tower's collateral beside the channel funds, and every
// commit carries it in output 1. A force close at the latest state counts
// as closed only once the co-signed release has paid output 1 back to the
// tower, so the funding output's whole value reaches its owners.
TEST(EngineContractFppw, ForceCloseReleasesTheTowersCollateral) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  fppw::FppwChannel fppw(env, params("fppw-escrow"));
  Engine& ch = fppw;
  open_and_update(ch);
  ch.force_close(PartyId::kA);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.outcome(PartyId::kA), Outcome::kNonCollaborative);
  const auto commit = env.ledger().spender_of(fppw.funding_outpoint());
  ASSERT_NE(commit, nullptr);
  const auto release = env.ledger().spender_of({commit->txid(), 1});
  ASSERT_NE(release, nullptr);
  ASSERT_TRUE(env.ledger().is_confirmed(release->txid()));
  ASSERT_EQ(release->tx().outputs.size(), 1u);
  EXPECT_EQ(release->tx().outputs[0].cond, tx::Condition::p2wpkh(fppw.tower_payout_pk()));
  EXPECT_EQ(release->tx().outputs[0].cash, commit->tx().outputs[1].cash);
  const Amount tower = credited(env.ledger(), fppw.tower_payout_pk());
  EXPECT_EQ(tower, fppw.collateral());
  EXPECT_EQ(credited(env.ledger(), ch.payout_pk(PartyId::kA)), kLast.to_a);
  EXPECT_EQ(credited(env.ledger(), ch.payout_pk(PartyId::kB)), kLast.to_b);
}

}  // namespace
}  // namespace daric
