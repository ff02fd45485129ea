// Fault-injection harness: schedule round-trips, chaos drills under the
// deterministic injector, retry/duplicate robustness of the engines, and
// the Theorem-1 watchtower-downtime boundary (safe at T − Δ, demonstrable
// funds loss one round beyond).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/crypto/sig_scheme.h"
#include "src/daric/protocol.h"
#include "src/sim/faults/chaos.h"
#include "src/sim/faults/drill.h"
#include "src/sim/faults/rng.h"
#include "src/sim/faults/schedule.h"

#ifndef DARIC_SCHEDULE_DIR
#define DARIC_SCHEDULE_DIR "tests/schedules"
#endif

namespace daric {
namespace {

using namespace sim::faults;
using sim::PartyId;

std::string read_file(const std::string& name) {
  std::ifstream in(std::string(DARIC_SCHEDULE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing schedule " << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- Schedule serialization ----------------------------------------------

TEST(FaultSchedule, TextRoundTripIsByteExact) {
  for (std::uint64_t seed : {1ull, 7ull, 46ull, 99ull, 1234567ull}) {
    const FaultSchedule s = generate_schedule(seed);
    const std::string text = to_text(s);
    const FaultSchedule back = parse_schedule(text);
    EXPECT_TRUE(back == s) << "seed " << seed;
    EXPECT_EQ(to_text(back), text) << "seed " << seed;
  }
}

TEST(FaultSchedule, GenerationIsDeterministic) {
  EXPECT_TRUE(generate_schedule(42) == generate_schedule(42));
  EXPECT_FALSE(generate_schedule(42) == generate_schedule(43));
}

TEST(FaultSchedule, GeneratedSchedulesRespectLiveness) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FaultSchedule s = generate_schedule(seed);
    const Round bound = s.t_punish - s.delta;
    for (const DowntimeWindow& w : s.downtime) EXPECT_LE(w.length, bound);
    if (s.cheat.enabled) {
      EXPECT_LE(s.cheat.victim_offline, bound);
      EXPECT_FALSE(s.cheat.expect_loss);
      EXPECT_LT(s.cheat.state, s.updates);
    }
    EXPECT_TRUE(s.crashes.empty() || !s.cheat.enabled);
  }
}

TEST(FaultSchedule, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_schedule(""), std::runtime_error);
  EXPECT_THROW(parse_schedule("daric-fault-schedule v1\n"), std::runtime_error);  // no end
  EXPECT_THROW(parse_schedule("daric-fault-schedule v1\nbogus 1\nend\n"),
               std::runtime_error);
  EXPECT_THROW(parse_schedule("daric-fault-schedule v1\nmsg 3 explode\nend\n"),
               std::runtime_error);
  EXPECT_THROW(parse_schedule("daric-fault-schedule v1\nseed x\nend\n"), std::runtime_error);
  EXPECT_THROW(parse_schedule("daric-fault-schedule v1\nend\nseed 1\n"), std::runtime_error);
}

TEST(FaultSchedule, MixIsOrderIndependent) {
  EXPECT_EQ(mix(5, 10), mix(5, 10));
  EXPECT_NE(mix(5, 10), mix(5, 11));
  EXPECT_NE(mix(5, 10), mix(6, 10));
}

// --- Drill determinism and replay ----------------------------------------

TEST(ChaosDrill, ReplayIsDeterministic) {
  const FaultSchedule s = generate_schedule(46);
  const DrillReport r1 = run_drill(Protocol::kDaric, s);
  const DrillReport r2 = run_drill(Protocol::kDaric, s);
  EXPECT_EQ(r1.ok, r2.ok);
  EXPECT_EQ(r1.updates_done, r2.updates_done);
  EXPECT_EQ(r1.detail, r2.detail);
  EXPECT_EQ(r1.msg_total, r2.msg_total);
  EXPECT_EQ(r1.msg_dropped, r2.msg_dropped);
}

TEST(ChaosDrill, SmallSweepHoldsInvariantsOnAllProtocols) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FaultSchedule s = generate_schedule(seed);
    for (Protocol p : {Protocol::kDaric, Protocol::kLightning, Protocol::kGeneralized,
                       Protocol::kEltoo}) {
      const DrillReport r = run_drill(p, s);
      EXPECT_TRUE(r.ok) << protocol_name(p) << " seed " << seed << ": " << r.detail;
      EXPECT_TRUE(r.conservation_ok) << protocol_name(p) << " seed " << seed;
      EXPECT_FALSE(r.funds_lost) << protocol_name(p) << " seed " << seed;
    }
  }
}

// --- Committed regression schedules --------------------------------------

TEST(ChaosRegression, GcAbortScheduleClosesSafelyEverywhere) {
  const std::string text = read_file("gc-abort-regression.sched");
  const FaultSchedule s = parse_schedule(text);
  EXPECT_EQ(to_text(s), text) << "committed schedule must be canonical";
  for (Protocol p : {Protocol::kDaric, Protocol::kLightning, Protocol::kGeneralized,
                     Protocol::kEltoo}) {
    const DrillReport r = run_drill(p, s);
    EXPECT_TRUE(r.ok) << protocol_name(p) << ": " << r.detail;
  }
}

TEST(ChaosRegression, OfflineExactlyAtBoundStillPunishes) {
  const std::string text = read_file("boundary-safe.sched");
  const FaultSchedule s = parse_schedule(text);
  EXPECT_EQ(to_text(s), text);
  ASSERT_TRUE(s.cheat.enabled);
  EXPECT_EQ(s.cheat.victim_offline, s.t_punish - s.delta);
  const DrillReport r = run_drill(Protocol::kDaric, s);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(r.punished);
  EXPECT_FALSE(r.funds_lost);
}

TEST(ChaosRegression, OfflineBeyondBoundDemonstrablyLosesFunds) {
  const std::string text = read_file("funds-loss-beyond-bound.sched");
  const FaultSchedule s = parse_schedule(text);
  EXPECT_EQ(to_text(s), text);
  ASSERT_TRUE(s.cheat.enabled);
  ASSERT_TRUE(s.cheat.expect_loss);
  EXPECT_EQ(s.cheat.victim_offline, s.t_punish - s.delta + 1);
  const DrillReport r = run_drill(Protocol::kDaric, s);
  EXPECT_TRUE(r.ok) << r.detail;  // ok here MEANS the loss materialized
  EXPECT_TRUE(r.funds_lost);
  EXPECT_FALSE(r.punished);
  EXPECT_TRUE(r.conservation_ok);  // stolen, not conjured: no value created
}

// Crash recoveries that once failed. The restored party met a commit newer
// than its snapshot: the counterparty's (1001369, 5003021), or its own Γ′
// commit, force-closed but never persisted (8000744). In 16820 the crash
// froze the survivor's downtime window, so it never posted its split.
TEST(ChaosRegression, CrashRecoveriesCloseNonCollaboratively) {
  for (const char* name : {"crash-1001369.sched", "crash-5003021.sched", "crash-8000744.sched",
                           "crash-16820.sched"}) {
    const std::string text = read_file(name);
    const FaultSchedule s = parse_schedule(text);
    EXPECT_EQ(to_text(s), text) << name << " must be canonical";
    // ok includes the restored party ending kNonCollaborative.
    const DrillReport r = run_drill(Protocol::kDaric, s);
    EXPECT_TRUE(r.crashed) << name;
    EXPECT_TRUE(r.ok) << name << ": " << r.detail;
  }
}

// --- The full boundary scan (Theorem 1) ----------------------------------

TEST(DowntimeBoundary, SafeUpToExactlyTMinusDelta) {
  const Round t_punish = 8, delta = 2;
  for (Round d = 0; d <= t_punish - delta; ++d) {
    const BoundaryReport r = run_downtime_boundary(d, t_punish, delta);
    EXPECT_TRUE(r.punished) << "offline " << d;
    EXPECT_FALSE(r.funds_lost) << "offline " << d;
    EXPECT_TRUE(r.conservation_ok) << "offline " << d;
  }
}

TEST(DowntimeBoundary, FailsOneRoundBeyond) {
  const Round t_punish = 8, delta = 2;
  const BoundaryReport r = run_downtime_boundary(t_punish - delta + 1, t_punish, delta);
  EXPECT_FALSE(r.punished);
  EXPECT_TRUE(r.funds_lost);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(DowntimeBoundary, HoldsForOtherTimelockChoices) {
  for (const auto& [t, d] : {std::pair<Round, Round>{6, 1}, {10, 3}}) {
    const BoundaryReport safe = run_downtime_boundary(t - d, t, d);
    EXPECT_TRUE(safe.punished) << "T=" << t << " delta=" << d;
    const BoundaryReport lost = run_downtime_boundary(t - d + 1, t, d);
    EXPECT_TRUE(lost.funds_lost) << "T=" << t << " delta=" << d;
  }
}

// --- Engine robustness: duplicates and retries ----------------------------

// An injector that drops the first `n` transmit attempts of a run, then
// delivers; exercises the senders' retry budget end to end.
class DropFirstN : public sim::FaultInjector {
 public:
  explicit DropFirstN(int n) : remaining_(n) {}
  sim::MessageAction on_message(Round, PartyId, const std::string&) override {
    if (remaining_ > 0) {
      --remaining_;
      return {sim::MessageFate::kDrop, 0};
    }
    return {};
  }
  Round post_delay(Round, Round delta) override { return delta; }

 private:
  int remaining_;
};

// Duplicates every message: every mutation the engines apply per delivered
// copy must be idempotent.
class DuplicateAll : public sim::FaultInjector {
 public:
  sim::MessageAction on_message(Round, PartyId, const std::string&) override {
    return {sim::MessageFate::kDuplicate, 0};
  }
  Round post_delay(Round, Round delta) override { return delta; }
};

channel::ChannelParams chaos_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 60'000;
  p.cash_b = 40'000;
  p.t_punish = 8;
  return p;
}

TEST(EngineRobustness, DaricSurvivesEveryMessageDuplicated) {
  sim::Environment env(2, crypto::schnorr_scheme());
  DuplicateAll inj;
  env.set_fault_injector(&inj);
  daricch::DaricChannel ch(env, chaos_params("dup-all"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  ASSERT_TRUE(ch.update({30'000, 70'000, {}}));
  EXPECT_EQ(ch.party(PartyId::kA).state_number(), 2u);
  EXPECT_TRUE(ch.cooperative_close());
  EXPECT_EQ(ch.party(PartyId::kA).outcome(), daricch::CloseOutcome::kCooperative);
}

TEST(EngineRobustness, DaricRetriesThroughTransientDrops) {
  // Two drops per message survive the 3-attempt budget; the update must
  // still complete, just slower.
  class DropTwoOfThree : public sim::FaultInjector {
   public:
    sim::MessageAction on_message(Round, PartyId, const std::string&) override {
      return {(count_++ % 3 < 2) ? sim::MessageFate::kDrop : sim::MessageFate::kDeliver, 0};
    }
    Round post_delay(Round, Round delta) override { return delta; }

   private:
    int count_ = 0;
  };
  sim::Environment env(2, crypto::schnorr_scheme());
  DropTwoOfThree inj;
  env.set_fault_injector(&inj);
  daricch::DaricChannel ch(env, chaos_params("drop-2of3"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({45'000, 55'000, {}}));
  EXPECT_EQ(ch.party(PartyId::kB).state_number(), 1u);
}

TEST(EngineRobustness, DaricAbortsToForceCloseWhenLinkDies) {
  sim::Environment env(2, crypto::schnorr_scheme());
  DropFirstN inj(1000);  // the link never comes back
  env.set_fault_injector(&inj);
  daricch::DaricChannel ch(env, chaos_params("link-dead"));
  // Create never completes — and no funds were committed.
  EXPECT_FALSE(ch.create());
  EXPECT_FALSE(ch.party(PartyId::kA).channel_open());
}

TEST(EngineRobustness, DaricForceClosesOnMidUpdateSilence) {
  sim::Environment env(2, crypto::schnorr_scheme());
  // Deliver the whole create handshake, then kill the link mid-update.
  class DieAfter : public sim::FaultInjector {
   public:
    explicit DieAfter(int n) : left_(n) {}
    sim::MessageAction on_message(Round, PartyId, const std::string&) override {
      if (left_ > 0) {
        --left_;
        return {};
      }
      return {sim::MessageFate::kDrop, 0};
    }
    Round post_delay(Round, Round delta) override { return delta; }

   private:
    int left_;
  };
  DieAfter inj(5);  // create's messages get through, update's do not
  env.set_fault_injector(&inj);
  daricch::DaricChannel ch(env, chaos_params("mid-update"));
  ASSERT_TRUE(ch.create());
  EXPECT_FALSE(ch.update({50'000, 50'000, {}}));
  EXPECT_FALSE(ch.party(PartyId::kA).channel_open());
  // Non-collaborative close at a both-signed state; conservation intact.
  EXPECT_EQ(ch.party(PartyId::kA).outcome(), daricch::CloseOutcome::kNonCollaborative);
  EXPECT_EQ(env.ledger().utxos().total_value() + env.ledger().fees_total(),
            env.ledger().minted_total());
}

TEST(EngineRobustness, DaricAbortReturnsOnceTheAborterClosed) {
  sim::Environment env(2, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, chaos_params("abort-dark-peer"));
  ASSERT_TRUE(ch.create());
  // B goes dark and silent before message 2: A aborts to a force close.
  ch.party(PartyId::kB).set_online(false);
  ch.party(PartyId::kB).behavior.abort_update_before_msg = 2;
  const Round t0 = env.now();
  EXPECT_FALSE(ch.update({50'000, 50'000, {}}));
  EXPECT_EQ(ch.outcome(PartyId::kA), channel::Outcome::kNonCollaborative);
  EXPECT_EQ(ch.outcome(PartyId::kB), channel::Outcome::kNone);  // dark: never closes
  // A's commit and split confirm within 2Δ + T; A does not wait out the
  // whole close budget for its dark peer.
  EXPECT_LT(env.now() - t0, channel::kCloseRounds / 4);
}

}  // namespace
}  // namespace daric
