// End-to-end tests of the Daric protocol engine (Appendix D) on the ledger
// functionality: create, update, both close paths, punishment, bounded
// closure timing, state ordering, storage, and the watchtower.
#include <gtest/gtest.h>

#include <optional>

#include "src/crypto/sig_scheme.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/obs/sinks.h"
#include "src/store/backend.h"
#include "src/store/tower.h"

namespace daric {
namespace {

using channel::ChannelFlag;
using channel::StateVec;
using daricch::CloseOutcome;
using daricch::DaricChannel;
using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Round kT = 6;  // T > Δ

channel::ChannelParams make_params(const std::string& id, Amount a = 60'000,
                                   Amount b = 40'000) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = a;
  p.cash_b = b;
  p.t_punish = kT;
  return p;
}

struct Fixture {
  sim::Environment env{kDelta, crypto::schnorr_scheme()};
  std::unique_ptr<DaricChannel> ch;

  explicit Fixture(const std::string& id, Amount a = 60'000, Amount b = 40'000) {
    ch = std::make_unique<DaricChannel>(env, make_params(id, a, b));
  }
};

TEST(DaricCreate, FundingConfirmsAndStateZeroActive) {
  Fixture f("create-1");
  ASSERT_TRUE(f.ch->create());
  EXPECT_TRUE(f.env.ledger().is_unspent(f.ch->funding_outpoint()));
  for (PartyId p : {PartyId::kA, PartyId::kB}) {
    EXPECT_TRUE(f.ch->party(p).channel_open());
    EXPECT_EQ(f.ch->party(p).state_number(), 0u);
    EXPECT_EQ(f.ch->party(p).state().to_a, 60'000);
    EXPECT_EQ(f.ch->party(p).state().to_b, 40'000);
    EXPECT_EQ(f.ch->party(p).flag(), ChannelFlag::kStable);
  }
}

TEST(DaricCreate, RejectsBadParams) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  channel::ChannelParams p = make_params("bad");
  p.t_punish = kDelta;  // violates T > Δ
  EXPECT_THROW(DaricChannel(env, p), std::invalid_argument);
  p = make_params("bad2");
  p.cash_b = 0;
  EXPECT_THROW(DaricChannel(env, p), std::invalid_argument);
}

TEST(DaricUpdate, AdvancesStateWithoutLedgerInteraction) {
  Fixture f("upd-1");
  ASSERT_TRUE(f.ch->create());
  const std::size_t txs_before = f.env.ledger().accepted().size();
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  ASSERT_TRUE(f.ch->update({30'000, 70'000, {}}));
  // Optimistic update: no on-chain traffic at all.
  EXPECT_EQ(f.env.ledger().accepted().size(), txs_before);
  EXPECT_EQ(f.ch->party(PartyId::kA).state_number(), 2u);
  EXPECT_EQ(f.ch->party(PartyId::kB).state_number(), 2u);
  EXPECT_EQ(f.ch->party(PartyId::kA).state().to_a, 30'000);
}

TEST(DaricUpdate, EitherPartyCanPropose) {
  Fixture f("upd-2");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({55'000, 45'000, {}}, PartyId::kB));
  EXPECT_EQ(f.ch->party(PartyId::kA).state_number(), 1u);
}

TEST(DaricUpdate, RejectsCapacityViolation) {
  Fixture f("upd-3");
  ASSERT_TRUE(f.ch->create());
  EXPECT_THROW(f.ch->update({90'000, 20'000, {}}), std::invalid_argument);
}

TEST(DaricUpdate, EnforcesReserve) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  channel::ChannelParams p = make_params("reserve");
  p.min_balance_fraction = 0.01;
  DaricChannel ch(env, p);
  ASSERT_TRUE(ch.create());
  EXPECT_THROW(ch.update({100, 99'900, {}}), std::invalid_argument);  // < 1%
  EXPECT_TRUE(ch.update({1'000, 99'000, {}}));                       // exactly 1%
}

TEST(DaricUpdate, SupportsHtlcOutputs) {
  Fixture f("upd-htlc");
  ASSERT_TRUE(f.ch->create());
  const auto secret = channel::make_htlc_secret("pay-1");
  StateVec st{50'000, 45'000, {{5'000, secret.payment_hash, true, 4}}};
  ASSERT_TRUE(f.ch->update(st));
  EXPECT_EQ(f.ch->party(PartyId::kA).state().num_htlcs(), 1u);
}

TEST(DaricClose, CooperativeSplitsLatestState) {
  Fixture f("close-1");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({20'000, 80'000, {}}));
  ASSERT_TRUE(f.ch->cooperative_close());
  for (PartyId p : {PartyId::kA, PartyId::kB})
    EXPECT_EQ(f.ch->party(p).outcome(), CloseOutcome::kCooperative);
  // The funding output is spent by a transaction paying 20k/80k.
  const auto spender = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(spender, nullptr);
  EXPECT_EQ(spender->tx().outputs[0].cash, 20'000);
  EXPECT_EQ(spender->tx().outputs[1].cash, 80'000);
}

TEST(DaricClose, NonCollaborativeDeliversLatestState) {
  Fixture f("close-2");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({25'000, 75'000, {}}));
  f.ch->party(PartyId::kA).force_close();
  ASSERT_TRUE(f.ch->run_until_closed());
  EXPECT_EQ(f.ch->party(PartyId::kA).outcome(), CloseOutcome::kNonCollaborative);
  EXPECT_EQ(f.ch->party(PartyId::kB).outcome(), CloseOutcome::kNonCollaborative);
  // The split transaction carries the latest state.
  const auto spender = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(spender, nullptr);
  const auto split = f.env.ledger().spender_of({spender->txid(), 0});
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->tx().outputs[0].cash, 25'000);
  EXPECT_EQ(split->tx().outputs[1].cash, 75'000);
}

TEST(DaricClose, BoundedClosureWithinTPlusDelta) {
  Fixture f("close-3");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({25'000, 75'000, {}}));
  const Round start = f.env.now();
  f.ch->party(PartyId::kB).force_close();
  ASSERT_TRUE(f.ch->run_until_closed());
  const Round closed = *f.ch->party(PartyId::kB).closed_round();
  // Commit within Δ, split T rounds later, confirmed within another Δ,
  // plus monitor-round slack.
  EXPECT_LE(closed - start, kDelta + kT + kDelta + 2);
}

TEST(DaricClose, RefusedCooperationFallsBackToForceClose) {
  Fixture f("close-4");
  ASSERT_TRUE(f.ch->create());
  f.ch->party(PartyId::kB).behavior.refuse_close = true;
  EXPECT_FALSE(f.ch->cooperative_close(PartyId::kA));
  EXPECT_EQ(f.ch->party(PartyId::kA).outcome(), CloseOutcome::kNonCollaborative);
}

// --- Punishment ---------------------------------------------------------

class DaricPunishSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DaricPunishSweep, EveryRevokedStateIsPunished) {
  const std::uint32_t cheat_state = GetParam();
  Fixture f("punish-" + std::to_string(cheat_state));
  ASSERT_TRUE(f.ch->create());
  const int updates = 4;
  for (int i = 1; i <= updates; ++i)
    ASSERT_TRUE(f.ch->update({60'000 - i * 5'000, 40'000 + i * 5'000, {}}));

  // A publishes a revoked commit; B must take all 100k.
  f.ch->publish_old_commit(PartyId::kA, cheat_state);
  ASSERT_TRUE(f.ch->run_until_closed());
  EXPECT_EQ(f.ch->party(PartyId::kB).outcome(), CloseOutcome::kPunished);
  // B owns the full capacity on-chain now.
  const auto commit = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(commit, nullptr);
  const auto rv = f.env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs.size(), 1u);
  EXPECT_EQ(rv->tx().outputs[0].cash, 100'000);
  EXPECT_EQ(rv->tx().outputs[0].cond,
            tx::Condition::p2wpkh(f.ch->party(PartyId::kB).pub().main));
}

INSTANTIATE_TEST_SUITE_P(AllRevokedStates, DaricPunishSweep, ::testing::Values(0u, 1u, 2u, 3u));

TEST(DaricPunish, BPublishingOldStateIsPunishedByA) {
  Fixture f("punish-b");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({80'000, 20'000, {}}));
  ASSERT_TRUE(f.ch->update({90'000, 10'000, {}}));
  f.ch->publish_old_commit(PartyId::kB, 1);
  ASSERT_TRUE(f.ch->run_until_closed());
  EXPECT_EQ(f.ch->party(PartyId::kA).outcome(), CloseOutcome::kPunished);
}

TEST(DaricPunish, PunishmentLandsWithinDelta) {
  Fixture f("punish-fast");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  f.ch->publish_old_commit(PartyId::kA, 0);
  // Wait for the stale commit to confirm.
  Round commit_conf = -1;
  for (int i = 0; i < 10 && commit_conf < 0; ++i) {
    f.env.advance_round();
    if (const auto sp = f.env.ledger().spender_of(f.ch->funding_outpoint())) {
      commit_conf = *f.env.ledger().confirmation_round(sp->txid());
    }
  }
  ASSERT_GE(commit_conf, 0);
  ASSERT_TRUE(f.ch->run_until_closed());
  // Revocation confirmed within Δ plus monitor-round slack.
  EXPECT_LE(*f.ch->party(PartyId::kB).closed_round() - commit_conf, kDelta + 2);
}

TEST(DaricPunish, LatestCommitIsNotPunishable) {
  // If B publishes the *latest* commit, A must not punish; the channel
  // closes non-collaboratively with the latest split.
  Fixture f("punish-latest");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  f.ch->publish_old_commit(PartyId::kB, 1);  // state 1 == latest
  ASSERT_TRUE(f.ch->run_until_closed());
  EXPECT_EQ(f.ch->party(PartyId::kA).outcome(), CloseOutcome::kNonCollaborative);
  EXPECT_EQ(f.ch->party(PartyId::kB).outcome(), CloseOutcome::kNonCollaborative);
}

// The tower package and the punishment sign the same ANYPREVOUT digest of
// the victim's TX_RV (the floating body, bound or not), so a victim whose
// package covers the latest revoked state punishes with that package's own
// signature and signs nothing. A victim without a package, or with one an
// update old, signs once at punish time. Signs are counted through a
// CountingScheme over the rounds from the cheat to the punishment, in
// which nobody else signs.
TEST(DaricPunish, OnlineVictimReusesItsPackageSignature) {
  enum class Package { kNone, kLatest, kOneUpdateOld };
  const crypto::CountingScheme counting(crypto::schnorr_scheme());
  for (const Package pkg : {Package::kNone, Package::kLatest, Package::kOneUpdateOld}) {
    SCOPED_TRACE(static_cast<int>(pkg));
    sim::Environment env(kDelta, counting);
    DaricChannel ch(env, make_params("punish-memo-" + std::to_string(static_cast<int>(pkg))));
    ASSERT_TRUE(ch.create());
    ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
    std::optional<daricch::WatchtowerPackage> package;
    if (pkg == Package::kOneUpdateOld)
      package = daricch::make_watchtower_package(ch.party(PartyId::kB));
    ASSERT_TRUE(ch.update({70'000, 30'000, {}}));
    if (pkg == Package::kLatest) package = daricch::make_watchtower_package(ch.party(PartyId::kB));

    const std::uint64_t signs_before = crypto::op_counters().signs;
    ch.publish_old_commit(PartyId::kA, 0);
    ASSERT_TRUE(ch.run_until_closed());
    EXPECT_EQ(crypto::op_counters().signs - signs_before, pkg == Package::kLatest ? 0u : 1u);
    ASSERT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);

    const auto commit = env.ledger().spender_of(ch.funding_outpoint());
    ASSERT_NE(commit, nullptr);
    const auto rv = env.ledger().spender_of({commit->txid(), 0});
    ASSERT_NE(rv, nullptr);
    const Bytes& victim_sig = rv->tx().witnesses[0].stack[2];  // [ε, rv_A, rv_B, 1]
    if (pkg == Package::kLatest) {
      EXPECT_EQ(victim_sig, package->sig_b);
    } else if (pkg == Package::kOneUpdateOld) {
      EXPECT_NE(victim_sig, package->sig_b);
    }
  }
}

TEST(DaricPunish, StateOrderingBlocksOldSplitOnNewCommit) {
  // A split with nLT = S0+1 cannot spend a commit whose CLTV is S0+2:
  // the ledger's script check rejects it even after the CSV delay.
  Fixture f("ordering");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  ASSERT_TRUE(f.ch->update({10'000, 90'000, {}}));

  f.ch->party(PartyId::kB).force_close();
  f.env.advance_rounds(kDelta + 1);
  const auto commit = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(commit, nullptr);

  tx::Transaction old_split;
  old_split.nlocktime = 1;
  old_split.inputs = {{{commit->txid(), 0}}};
  old_split.outputs = {{50'000, tx::Condition::p2wpkh(f.ch->party(PartyId::kA).pub().main)},
                       {50'000, tx::Condition::p2wpkh(f.ch->party(PartyId::kB).pub().main)}};
  // (Witness content is irrelevant: CLTV fails before signature checks.)
  old_split.witnesses.resize(1);
  old_split.witnesses[0].stack = {Bytes{}, Bytes{}, Bytes{}, Bytes{}};
  // Post while the commit output is still unspent (before B's split lands):
  // the CLTV (S0+2 > nLT 1) must reject it at the script level.
  f.env.ledger().post_with_delay(old_split, 0);
  f.env.advance_round();
  EXPECT_EQ(f.env.ledger().post_result(old_split.txid()), ledger::TxError::kBadWitness);
}

// --- Update aborts (consensus on update) ----------------------------------

class DaricAbortSweep : public ::testing::TestWithParam<int> {};

TEST_P(DaricAbortSweep, AbortAtAnyMessageForceCloses) {
  const int msg = GetParam();
  Fixture f("abort-" + std::to_string(msg));
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));

  // Odd messages are sent by the proposer (A), even ones by B.
  if (msg % 2 == 1) {
    f.ch->party(PartyId::kA).behavior.abort_update_before_msg = msg;
  } else {
    f.ch->party(PartyId::kB).behavior.abort_update_before_msg = msg;
  }
  EXPECT_FALSE(f.ch->update({40'000, 60'000, {}}, PartyId::kA));

  // Both parties end closed, with no money lost.
  EXPECT_FALSE(f.ch->party(PartyId::kA).channel_open());
  EXPECT_FALSE(f.ch->party(PartyId::kB).channel_open());
  const auto spender = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(spender, nullptr);
  const auto split = f.env.ledger().spender_of({spender->txid(), 0});
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->tx().total_output_value(), 100'000);
  // The enforced state is either the old state (50/50) or the new (40/60):
  const Amount a_share = split->tx().outputs[0].cash;
  EXPECT_TRUE(a_share == 50'000 || a_share == 40'000) << a_share;
}

INSTANTIATE_TEST_SUITE_P(AllAbortPoints, DaricAbortSweep, ::testing::Range(1, 7));

// Schnorr with one forged signature: the `nth` signature made with the armed
// key after arm() comes back with s + 1, so it still decodes but fails every
// verification. Everything else passes through.
class ForgingScheme : public crypto::SignatureScheme {
 public:
  void arm(const crypto::Point& key, int nth) {
    key_ = key;
    left_ = nth;
  }
  bool forged() const { return forged_; }

  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const crypto::Scalar& sk, const Hash256& msg) const override {
    return maybe_forge(crypto::Point::mul_gen(sk), inner_.sign(sk, msg));
  }
  Bytes sign_with(const crypto::KeyPair& kp, const Hash256& msg) const override {
    return maybe_forge(kp.pk, inner_.sign_with(kp, msg));
  }
  bool verify(const crypto::Point& pk, const Hash256& msg, BytesView sig) const override {
    return inner_.verify(pk, msg, sig);
  }
  bool verify_cached(const crypto::PrecomputedPoint& pre, const Hash256& msg,
                     BytesView sig) const override {
    return inner_.verify_cached(pre, msg, sig);
  }
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return inner_.supports_batch_verify(); }
  bool verify_batch(std::span<const crypto::SigBatchItem> items) const override {
    return inner_.verify_batch(items);
  }

 private:
  Bytes maybe_forge(const crypto::Point& pk, Bytes sig) const {
    if (left_ == 0 || !(pk == key_) || --left_ > 0) return sig;
    const crypto::Scalar s = crypto::Scalar::from_be_bytes_reduce(BytesView(sig).subspan(33));
    const Bytes forged = (s + crypto::Scalar(1)).to_be_bytes();
    std::copy(forged.begin(), forged.end(), sig.begin() + 33);
    forged_ = true;
    return sig;
  }

  const crypto::SignatureScheme& inner_ = crypto::schnorr_scheme();
  crypto::Point key_;
  mutable int left_ = 0;
  mutable bool forged_ = false;
};

TEST(DaricUpdate, CorruptedSignatureInEachMessageClosesAtTheLastVerifiedState) {
  // A proposes the update from state 1 (50/50) to state 2 (40/60). Each
  // case forges one signature the sender puts in message `msg`, named by
  // its key and by which signature with that key it is in the update (B
  // signs its own new commit with `main` before message 4's signature).
  struct Forgery {
    int msg;
    PartyId signer;
    crypto::KeyPair daricch::DaricKeys::*key;
    int nth;
  };
  using K = daricch::DaricKeys;
  const Forgery cases[] = {
      {2, PartyId::kB, &K::sp, 1},    // Q's split signature
      {3, PartyId::kA, &K::sp, 1},    // P's split signature
      {3, PartyId::kA, &K::main, 1},  // P's signature on Q's new commit
      {4, PartyId::kB, &K::main, 2},  // Q's signature on P's new commit
      {5, PartyId::kA, &K::rv, 1},    // P's revocation of state 1 (TX^B_RV)
      {6, PartyId::kB, &K::rv2, 1},   // Q's revocation of state 1 (TX^A_RV)
  };
  for (const Forgery& c : cases) {
    SCOPED_TRACE("message " + std::to_string(c.msg));
    ForgingScheme scheme;
    sim::Environment env(kDelta, scheme);
    obs::CollectSink sink;
    env.tracer().add_sink(&sink);
    DaricChannel ch(env, make_params("forge-" + std::to_string(c.msg)));
    ASSERT_TRUE(ch.create());
    ASSERT_TRUE(ch.update({50'000, 50'000, {}}));

    scheme.arm((ch.party(c.signer).keys().*c.key).pk, c.nth);
    EXPECT_FALSE(ch.update({40'000, 60'000, {}}, PartyId::kA));
    ASSERT_TRUE(scheme.forged());
    ASSERT_TRUE(ch.run_until_closed());

    // The receiver of the forged message force-closes, at state 1 unless
    // the forgery is the last message, when both already hold state 2.
    const PartyId verifier = c.signer == PartyId::kA ? PartyId::kB : PartyId::kA;
    const std::uint32_t state = c.msg == 6 ? 2 : 1;
    const auto attr = [](const obs::Event& e, const std::string& key) {
      for (const obs::Attr& a : e.attrs)
        if (a.key == key) return a;
      return obs::Attr{};
    };
    std::vector<obs::Event> force_closes;
    for (const obs::Event& e : sink.events) {
      // Both parties post the same split, and the ledger turns the second
      // copy away as a duplicate. A commit carrying the forged signature
      // would fail its witness check instead.
      if (e.kind == obs::EventKind::kTxReject) {
        EXPECT_EQ(attr(e, "error").str, "duplicate-txid") << obs::to_json(e);
      }
      if (e.engine == "daric" && e.kind == obs::EventKind::kForceClose) force_closes.push_back(e);
    }
    ASSERT_EQ(force_closes.size(), 1u);
    EXPECT_EQ(force_closes[0].party, sim::party_name(verifier));
    EXPECT_EQ(attr(force_closes[0], "sn").num, state);

    for (const PartyId who : {PartyId::kA, PartyId::kB})
      EXPECT_EQ(ch.party(who).outcome(), CloseOutcome::kNonCollaborative);
    // The split pays that state's balances and conserves the capacity.
    const auto commit = env.ledger().spender_of(ch.funding_outpoint());
    ASSERT_NE(commit, nullptr);
    EXPECT_EQ(commit->tx().total_output_value(), 100'000);
    const auto split = env.ledger().spender_of({commit->txid(), 0});
    ASSERT_NE(split, nullptr);
    EXPECT_EQ(split->tx().total_output_value(), 100'000);
    EXPECT_EQ(split->tx().outputs[0].cash, state == 1 ? 50'000 : 40'000);
    EXPECT_EQ(split->tx().outputs[1].cash, state == 1 ? 50'000 : 60'000);
  }
}

// --- Storage ---------------------------------------------------------------

TEST(DaricStorage, ConstantInNumberOfUpdates) {
  Fixture f("storage");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  const std::size_t after_one = f.ch->party(PartyId::kA).storage_bytes();
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(f.ch->update({50'000 - i * 100, 50'000 + i * 100, {}}));
  EXPECT_EQ(f.ch->party(PartyId::kA).storage_bytes(), after_one);
  EXPECT_EQ(f.ch->party(PartyId::kB).storage_bytes(), after_one);
}

// --- Watchtower -----------------------------------------------------------

/// The tower entry built from B's package for the latest revoked state.
store::WatchEntry tower_entry(const DaricChannel& ch) {
  return store::make_watch_entry(ch.params(), PartyId::kB, ch.funding_outpoint(),
                                 ch.party(PartyId::kA).pub(), ch.party(PartyId::kB).pub(),
                                 daricch::make_watchtower_package(ch.party(PartyId::kB)));
}

TEST(DaricWatchtowerTest, PunishesWhilePartyOffline) {
  Fixture f("tower-1");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  ASSERT_TRUE(f.ch->update({45'000, 55'000, {}}));

  store::MemoryBackend disk;
  store::TowerService tower(disk);
  tower.watch(tower_entry(*f.ch));
  f.env.add_round_hook([&] { tower.on_round(f.env.ledger()); });

  // B goes dark before A cheats, so only the tower can answer.
  f.ch->party(PartyId::kB).set_online(false);
  const Hash256 cheat = f.ch->archived_commits(PartyId::kA)[0].txid();
  f.ch->publish_old_commit(PartyId::kA, 0);
  for (int r = 0; r < 20 && !f.env.ledger().spender_of({cheat, 0}); ++r) f.env.advance_round();
  EXPECT_EQ(tower.reactions(), 1u);
  EXPECT_EQ(f.ch->party(PartyId::kB).outcome(), CloseOutcome::kNone);  // B saw nothing
  // All channel funds ended at B's payout key.
  const auto commit = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->txid(), cheat);
  const auto rv = f.env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs[0].cond, tx::Condition::p2wpkh(f.ch->party(PartyId::kB).pub().main));
}

TEST(DaricWatchtowerTest, StorageConstantAcrossUpdates) {
  Fixture f("tower-2");
  ASSERT_TRUE(f.ch->create());
  store::MemoryBackend disk;
  store::TowerService tower(disk);
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  tower.watch(tower_entry(*f.ch));
  const std::size_t record = tower.live_record_bytes();
  const std::size_t index = tower.index_bytes();
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(f.ch->update({50'000 - i * 10, 50'000 + i * 10, {}}));
    tower.watch(tower_entry(*f.ch));
  }
  EXPECT_EQ(tower.live_record_bytes(), record);
  EXPECT_EQ(tower.index_bytes(), index);
}

TEST(DaricWatchtowerTest, IgnoresLatestCommit) {
  Fixture f("tower-3");
  ASSERT_TRUE(f.ch->create());
  ASSERT_TRUE(f.ch->update({50'000, 50'000, {}}));
  store::MemoryBackend disk;
  store::TowerService tower(disk);
  tower.watch(tower_entry(*f.ch));
  f.env.add_round_hook([&] { tower.on_round(f.env.ledger()); });
  f.ch->party(PartyId::kA).force_close();  // latest state: not fraud
  ASSERT_TRUE(f.ch->run_until_closed());
  EXPECT_EQ(tower.reactions(), 0u);
  EXPECT_EQ(f.ch->party(PartyId::kB).outcome(), CloseOutcome::kNonCollaborative);
}

// --- HTLC resolution after close -------------------------------------------

TEST(DaricHtlc, RedeemAndClaimbackAfterNonCollabClose) {
  Fixture f("htlc-close");
  ASSERT_TRUE(f.ch->create());
  const auto s1 = channel::make_htlc_secret("h1");
  const auto s2 = channel::make_htlc_secret("h2");
  StateVec st{40'000, 44'000,
              {{9'000, s1.payment_hash, true, 3},     // A pays B
               {7'000, s2.payment_hash, false, 3}}};  // B pays A
  ASSERT_TRUE(f.ch->update(st));
  f.ch->party(PartyId::kA).force_close();
  ASSERT_TRUE(f.ch->run_until_closed());

  const auto commit = f.env.ledger().spender_of(f.ch->funding_outpoint());
  ASSERT_NE(commit, nullptr);
  const auto split = f.env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(split, nullptr);
  ASSERT_EQ(split->tx().outputs.size(), 4u);

  const auto& a = f.ch->party(PartyId::kA);
  const auto& b = f.ch->party(PartyId::kB);
  // B redeems HTLC 0 with the preimage.
  const tx::Transaction redeem =
      daricch::build_htlc_redeem(split->tx(), 0, st, b, a.pub(), b.pub(), s1.preimage);
  f.env.ledger().post(redeem);
  // B, the payer of HTLC 1, claws it back after its timeout.
  f.env.advance_rounds(4);
  const tx::Transaction back =
      daricch::build_htlc_claimback(split->tx(), 1, st, b, a.pub(), b.pub());
  f.env.ledger().post(back);
  f.env.advance_rounds(kDelta + 1);
  EXPECT_TRUE(f.env.ledger().is_confirmed(redeem.txid()));
  EXPECT_TRUE(f.env.ledger().is_confirmed(back.txid()));
}

// --- Any-signature-scheme instantiation ------------------------------------

TEST(DaricEcdsa, FullLifecycleOverEcdsa) {
  sim::Environment env(kDelta, crypto::ecdsa_scheme());
  DaricChannel ch(env, make_params("ecdsa-ch"));
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({50'000, 50'000, {}}));
  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  EXPECT_EQ(ch.party(PartyId::kB).outcome(), CloseOutcome::kPunished);
}

}  // namespace
}  // namespace daric
