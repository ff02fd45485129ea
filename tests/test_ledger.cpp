// Ledger functionality L(Δ, Σ): the five Appendix-C validity rules,
// round/delay behaviour, and the fee-market mempool (RBF).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/crypto/sha256.h"
#include "src/ledger/fee_market.h"
#include "src/ledger/ledger.h"
#include "src/tx/sighash.h"

namespace daric {
namespace {

using ledger::Ledger;
using ledger::TxError;
using script::SighashFlag;

const auto kOwner = crypto::derive_keypair("ledger-test/owner");
const auto kOther = crypto::derive_keypair("ledger-test/other");

tx::Transaction spend_p2wpkh(const tx::OutPoint& op, Amount in_value, Amount out_value,
                             const crypto::KeyPair& key, std::uint32_t nlt = 0) {
  (void)in_value;
  tx::Transaction t;
  t.inputs = {{op}};
  t.nlocktime = nlt;
  t.outputs = {{out_value, tx::Condition::p2wpkh(key.pk.compressed())}};
  const Bytes sig = tx::sign_input(t, 0, key.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
  t.witnesses.resize(1);
  t.witnesses[0].stack = {sig, key.pk.compressed()};
  return t;
}

class LedgerTest : public ::testing::Test {
 protected:
  Ledger ledger_{2, crypto::schnorr_scheme()};
};

TEST_F(LedgerTest, MintCreatesSpendableUtxo) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  EXPECT_TRUE(ledger_.is_unspent(op));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 900, kOwner);
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_TRUE(ledger_.is_confirmed(t.txid()));
  EXPECT_FALSE(ledger_.is_unspent(op));
  EXPECT_EQ(ledger_.fees_total(), 100);
}

TEST_F(LedgerTest, PostHonorsAdversaryDelayBound) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOwner);
  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(t.txid()));
  EXPECT_THROW(ledger_.post_with_delay(t, 3), std::invalid_argument);  // > Δ
}

TEST_F(LedgerTest, Rule1DuplicateTxidRejected) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOwner);
  ledger_.post_with_delay(t, 0);
  ledger_.post_with_delay(t, 0);
  ledger_.advance_rounds(2);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kDuplicateTxid);
}

TEST_F(LedgerTest, Rule2MissingInputRejected) {
  const tx::OutPoint bogus{crypto::Sha256::hash(Bytes{1}), 0};
  const tx::Transaction t = spend_p2wpkh(bogus, 1000, 1000, kOwner);
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kMissingInput);
}

TEST_F(LedgerTest, Rule2BadWitnessRejected) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOther);  // wrong key
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kBadWitness);
}

// Multi-input P2WPKH spends alone in their round verify input by input; one
// tampered signature sinks the whole transaction.
TEST_F(LedgerTest, MultiInputBatchVerifiedSpendAccepted) {
  std::vector<tx::OutPoint> ops;
  for (int i = 0; i < 4; ++i)
    ops.push_back(ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed())));
  tx::Transaction t;
  for (const auto& op : ops) t.inputs.push_back({op});
  t.outputs = {{4000, tx::Condition::p2wpkh(kOther.pk.compressed())}};
  t.witnesses.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Bytes sig =
        tx::sign_input(t, i, kOwner.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
    t.witnesses[i].stack = {sig, kOwner.pk.compressed()};
  }
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_TRUE(ledger_.is_confirmed(t.txid()));
  for (const auto& op : ops) EXPECT_FALSE(ledger_.is_unspent(op));
}

TEST_F(LedgerTest, MultiInputBatchRejectsOneTamperedSignature) {
  std::vector<tx::OutPoint> ops;
  for (int i = 0; i < 3; ++i)
    ops.push_back(ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed())));
  tx::Transaction t;
  for (const auto& op : ops) t.inputs.push_back({op});
  t.outputs = {{3000, tx::Condition::p2wpkh(kOther.pk.compressed())}};
  t.witnesses.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Bytes sig =
        tx::sign_input(t, i, kOwner.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
    t.witnesses[i].stack = {sig, kOwner.pk.compressed()};
  }
  t.witnesses[1].stack[0][12] ^= 1;  // tamper the middle input's signature
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kBadWitness);
  for (const auto& op : ops) EXPECT_TRUE(ledger_.is_unspent(op));
}

// Inputs are judged in order for every scheme: a bad P2WPKH signature ahead
// of a missing or repeated input is the transaction's error.
TEST_F(LedgerTest, BadSignatureBeforeBadLaterInputIsBadWitness) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::OutPoint bogus{crypto::Sha256::hash(Bytes{2}), 0};
  for (const tx::OutPoint& second : {bogus, op}) {
    tx::Transaction t;
    t.inputs = {{op}, {second}};
    t.outputs = {{900, tx::Condition::p2wpkh(kOther.pk.compressed())}};
    t.witnesses.resize(2);
    for (std::size_t i = 0; i < 2; ++i)
      t.witnesses[i].stack = {
          tx::sign_input(t, i, kOwner.sk, crypto::schnorr_scheme(), SighashFlag::kAll),
          kOwner.pk.compressed()};
    t.witnesses[0].stack[0][12] ^= 1;
    ledger_.post(t);
    ledger_.advance_rounds(3);
    EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kBadWitness);
  }
  EXPECT_TRUE(ledger_.is_unspent(op));
}

TEST_F(LedgerTest, Rule3ZeroValueOutputRejected) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOwner);
  t.outputs[0].cash = 0;
  // Re-sign after the mutation.
  const Bytes sig = tx::sign_input(t, 0, kOwner.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
  t.witnesses[0].stack = {sig, kOwner.pk.compressed()};
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kBadOutputValue);
}

TEST_F(LedgerTest, Rule4ValueInflationRejected) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1001, kOwner);
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kValueNotConserved);
}

TEST_F(LedgerTest, Rule5FutureLocktimeRejected) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOwner, /*nlt=*/100);
  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kLocktimeInFuture);
  // After enough rounds the same transaction becomes valid.
  ledger_.advance_rounds(100);
  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(t.txid()));
}

TEST_F(LedgerTest, DoubleSpendFirstWins) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t1 = spend_p2wpkh(op, 1000, 1000, kOwner);
  tx::Transaction t2 = spend_p2wpkh(op, 1000, 999, kOwner);
  ledger_.post_with_delay(t1, 0);
  ledger_.post_with_delay(t2, 0);
  ledger_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(t1.txid()));
  EXPECT_EQ(ledger_.post_result(t2.txid()), TxError::kMissingInput);
}

TEST_F(LedgerTest, SpenderOfTracksConfirmedSpends) {
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 1000, 1000, kOwner);
  EXPECT_FALSE(ledger_.spender_of(op).has_value());
  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();
  ASSERT_TRUE(ledger_.spender_of(op).has_value());
  EXPECT_EQ(ledger_.spender_of(op)->txid(), t.txid());
}

TEST_F(LedgerTest, ValueConservationInvariant) {
  const tx::OutPoint op = ledger_.mint(5000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction t = spend_p2wpkh(op, 5000, 4500, kOwner);
  ledger_.post(t);
  ledger_.advance_rounds(3);
  EXPECT_EQ(ledger_.utxos().total_value() + ledger_.fees_total(), ledger_.minted_total());
}

TEST_F(LedgerTest, CsvEnforcedViaUtxoAge) {
  // Output requiring 5 rounds of age before spending.
  script::Script s;
  s.num4(5)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .push(kOwner.pk.compressed())
      .op(script::Op::OP_CHECKSIG);
  const tx::OutPoint op = ledger_.mint(1000, tx::Condition::p2wsh(s));

  tx::Transaction t;
  t.inputs = {{op}};
  t.outputs = {{1000, tx::Condition::p2wpkh(kOwner.pk.compressed())}};
  const Bytes sig = tx::sign_input(t, 0, kOwner.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
  t.witnesses.resize(1);
  t.witnesses[0].stack = {sig};
  t.witnesses[0].witness_script = s;

  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();  // age 1 < 5
  EXPECT_EQ(ledger_.post_result(t.txid()), TxError::kBadWitness);
  ledger_.advance_rounds(5);
  ledger_.post_with_delay(t, 0);
  ledger_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(t.txid()));
}

// --- One round's signatures proved in one batch ---------------------------

/// Forwards to another scheme and counts single and batch verifications.
/// With `batch` false it hides batch support, which keeps a ledger on the
/// sequential path: the reference the batched round must match.
class CountingWrapper final : public crypto::SignatureScheme {
 public:
  CountingWrapper(const crypto::SignatureScheme& inner, bool batch)
      : inner_(inner), batch_(batch) {}

  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const crypto::Scalar& sk, const Hash256& msg) const override {
    return inner_.sign(sk, msg);
  }
  bool verify(const crypto::Point& pk, const Hash256& msg, BytesView sig) const override {
    ++verifies;
    return inner_.verify(pk, msg, sig);
  }
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return batch_ && inner_.supports_batch_verify(); }
  bool verify_batch(std::span<const crypto::SigBatchItem> items) const override {
    ++batches;
    return inner_.verify_batch(items);
  }

  mutable int verifies = 0;
  mutable int batches = 0;

 private:
  const crypto::SignatureScheme& inner_;
  bool batch_;
};

const auto kRoundA = crypto::derive_keypair("ledger-round/a");
const auto kRoundB = crypto::derive_keypair("ledger-round/b");

/// One round's worth of posts: 2-of-2 P2WSH and P2WPKH spends, a parent
/// and its child, a double-spend pair, a re-post and a script that branches
/// on a failing CHECKSIG. With `bad_sig`, one P2WPKH signature is tampered.
/// With `bad_child`, a second parent's child carries a tampered signature:
/// the claim pass cannot see it (its input is not in the pre-round UTXO
/// set), so only the sequential pass can reject it. Mints into `l` first;
/// the same call on a fresh ledger mints the same outpoints, so the posts
/// are identical across ledgers.
std::vector<tx::Transaction> build_round(Ledger& l, bool bad_sig, bool bad_child) {
  const auto& scheme = crypto::schnorr_scheme();
  const script::Script ms =
      script::multisig_2of2(kRoundA.pk.compressed(), kRoundB.pk.compressed());
  const auto pay = [](Amount v) {
    return tx::Output{v, tx::Condition::p2wpkh(kOther.pk.compressed())};
  };
  std::vector<tx::Transaction> posts;
  for (int i = 0; i < 100; ++i) {
    tx::Transaction t;
    t.inputs = {{l.mint(1000, tx::Condition::p2wsh(ms))}};
    t.outputs = {pay(990)};
    t.witnesses.resize(1);
    t.witnesses[0].witness_script = ms;
    t.witnesses[0].stack = {Bytes{}, tx::sign_input(t, 0, kRoundA, scheme, SighashFlag::kAll),
                            tx::sign_input(t, 0, kRoundB, scheme, SighashFlag::kAll)};
    posts.push_back(t);
  }
  const auto p2wpkh = tx::Condition::p2wpkh(kOwner.pk.compressed());
  const auto spend_owner = [&](const tx::OutPoint& op, Amount out) {
    tx::Transaction t;
    t.inputs = {{op}};
    t.outputs = {pay(out)};
    t.witnesses.resize(1);
    t.witnesses[0].stack = {tx::sign_input(t, 0, kOwner, scheme, SighashFlag::kAll),
                            kOwner.pk.compressed()};
    return t;
  };
  for (int i = 0; i < 90; ++i) posts.push_back(spend_owner(l.mint(1000, p2wpkh), 995));
  if (bad_sig) posts[150].witnesses[0].stack[0][20] ^= 0x01;

  // Parent and child: the child spends a hashlock output the parent creates
  // in the same round, so it needs no signature.
  const Bytes preimage{7, 7, 7};
  script::Script lock;
  lock.op(script::Op::OP_SHA256).push(crypto::Sha256::hash(preimage).view())
      .op(script::Op::OP_EQUAL);
  tx::Transaction parent = spend_owner(l.mint(1000, p2wpkh), 0);
  parent.outputs = {{990, tx::Condition::p2wsh(lock)}};
  parent.witnesses[0].stack[0] =
      tx::sign_input(parent, 0, kOwner, scheme, SighashFlag::kAll);
  tx::Transaction child;
  child.inputs = {{{parent.txid(), 0}}};
  child.outputs = {pay(980)};
  child.witnesses.resize(1);
  child.witnesses[0].witness_script = lock;
  child.witnesses[0].stack = {preimage};
  posts.push_back(parent);
  posts.push_back(child);

  // A double-spend pair (the first wins) and an identical re-post.
  const tx::OutPoint contested = l.mint(1000, p2wpkh);
  posts.push_back(spend_owner(contested, 900));
  posts.push_back(spend_owner(contested, 800));
  posts.push_back(posts[3]);

  // <A> CHECKSIG IF 1 ELSE <B> CHECKSIG ENDIF, fed an empty signature for
  // A: the first CHECKSIG fails and the script takes B's branch.
  script::Script branch;
  branch.push(kRoundA.pk.compressed()).op(script::Op::OP_CHECKSIG).op(script::Op::OP_IF)
      .small_int(1).op(script::Op::OP_ELSE).push(kRoundB.pk.compressed())
      .op(script::Op::OP_CHECKSIG).op(script::Op::OP_ENDIF);
  tx::Transaction fork;
  fork.inputs = {{l.mint(1000, tx::Condition::p2wsh(branch))}};
  fork.outputs = {pay(990)};
  fork.witnesses.resize(1);
  fork.witnesses[0].witness_script = branch;
  fork.witnesses[0].stack = {tx::sign_input(fork, 0, kRoundB, scheme, SighashFlag::kAll),
                             Bytes{}};
  posts.push_back(fork);

  if (bad_child) {
    const tx::Transaction parent2 = spend_owner(l.mint(1000, p2wpkh), 990);
    tx::Transaction child2;
    child2.inputs = {{{parent2.txid(), 0}}};
    child2.outputs = {pay(980)};
    child2.witnesses.resize(1);
    child2.witnesses[0].stack = {tx::sign_input(child2, 0, kOther, scheme, SighashFlag::kAll),
                                 kOther.pk.compressed()};
    child2.witnesses[0].stack[0][20] ^= 0x01;
    posts.push_back(parent2);
    posts.push_back(child2);
  }
  return posts;
}

void expect_same_round(bool bad_sig, bool bad_child) {
  const CountingWrapper seq_scheme(crypto::schnorr_scheme(), false);
  const CountingWrapper batch_scheme(crypto::schnorr_scheme(), true);
  Ledger ref(2, seq_scheme);
  Ledger batched(2, batch_scheme);
  const std::vector<tx::Transaction> posts = build_round(ref, bad_sig, bad_child);
  ASSERT_EQ(build_round(batched, bad_sig, bad_child).size(), posts.size());
  ASSERT_GE(posts.size(), 190u);
  for (Ledger* l : {&ref, &batched}) {
    for (const tx::Transaction& t : posts) l->post(t);
    l->advance_rounds(2);  // every post is due in the second round
  }

  for (const tx::Transaction& t : posts)
    EXPECT_EQ(batched.post_result(t.txid()), ref.post_result(t.txid()));
  ASSERT_EQ(batched.accepted().size(), ref.accepted().size());
  for (std::size_t i = 0; i < ref.accepted().size(); ++i)
    EXPECT_EQ(batched.accepted()[i].tx.txid(), ref.accepted()[i].tx.txid()) << "position " << i;
  ASSERT_EQ(batched.utxos().size(), ref.utxos().size());
  for (const auto& [op, u] : ref.utxos().entries()) {
    const auto other = batched.find_utxo(op);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->output, u.output);
    EXPECT_EQ(other->recorded_round, u.recorded_round);
  }
  EXPECT_EQ(batched.fees_total(), ref.fees_total());

  // Spot checks of the verdicts themselves.
  EXPECT_EQ(ref.post_result(posts[190].txid()), TxError::kOk);  // parent
  EXPECT_EQ(ref.post_result(posts[191].txid()), TxError::kOk);  // child
  EXPECT_EQ(ref.post_result(posts[193].txid()), TxError::kMissingInput);  // double spend
  EXPECT_EQ(ref.post_result(posts[3].txid()), TxError::kDuplicateTxid);   // the re-post
  EXPECT_EQ(ref.post_result(posts[195].txid()), TxError::kOk);            // branch
  EXPECT_EQ(ref.post_result(posts[150].txid()), bad_sig ? TxError::kBadWitness : TxError::kOk);
  EXPECT_EQ(ref.post_result(posts.back().txid()),
            bad_child ? TxError::kBadWitness : TxError::kOk);

  EXPECT_EQ(seq_scheme.batches, 0);
  EXPECT_EQ(batch_scheme.batches, 1);
  EXPECT_EQ(batch_scheme.verifies == 0, !bad_sig && !bad_child);
}

TEST(LedgerRound, BatchedRoundMatchesSequentialReference) { expect_same_round(false, false); }

TEST(LedgerRound, FailedBatchFallsBackToTheSameVerdicts) { expect_same_round(true, false); }

TEST(LedgerRound, UnclaimedBadSignatureStillRejected) { expect_same_round(false, true); }

// --- Randomized-schedule properties -------------------------------------

tx::Transaction spend_split(const tx::OutPoint& op, const std::vector<Amount>& outs,
                            const crypto::KeyPair& key, std::uint32_t nlt) {
  tx::Transaction t;
  t.inputs = {{op}};
  t.nlocktime = nlt;
  for (const Amount v : outs)
    t.outputs.push_back({v, tx::Condition::p2wpkh(key.pk.compressed())});
  const Bytes sig = tx::sign_input(t, 0, key.sk, crypto::schnorr_scheme(), SighashFlag::kAll);
  t.witnesses.resize(1);
  t.witnesses[0].stack = {sig, key.pk.compressed()};
  return t;
}

// Under arbitrary interleavings of spends, splits, conflicting double spends
// and adversary delays, minted value is conserved every single round:
// unspent outputs plus collected fees always equal the total ever minted.
TEST(LedgerProperty, ValueConservationUnderRandomSchedules) {
  for (const std::uint32_t seed : {1u, 7u, 42u, 1337u}) {
    std::mt19937 rng(seed);
    const Round delta = 1 + static_cast<Round>(rng() % 3);
    ledger::Ledger ledger(delta, crypto::schnorr_scheme());

    // (outpoint, value) candidates; stale entries double-spend on purpose.
    std::vector<std::pair<tx::OutPoint, Amount>> coins;
    for (int i = 0; i < 6; ++i) {
      const Amount v = 500 + static_cast<Amount>(rng() % 5000);
      coins.emplace_back(ledger.mint(v, tx::Condition::p2wpkh(kOwner.pk.compressed())), v);
    }

    for (int step = 0; step < 60; ++step) {
      const int posts = static_cast<int>(rng() % 3);
      for (int k = 0; k < posts; ++k) {
        const auto [op, value] = coins[rng() % coins.size()];
        const Amount fee = static_cast<Amount>(rng() % (value / 2 + 1));
        std::vector<Amount> outs;
        if (value - fee > 1 && rng() % 2 == 0) {
          const Amount first = 1 + static_cast<Amount>(rng() % (value - fee - 1));
          outs = {first, value - fee - first};
        } else {
          outs = {value - fee};
        }
        const auto nlt = static_cast<std::uint32_t>(std::max<long long>(
            0, ledger.now() + static_cast<long long>(rng() % 7) - 2));
        const tx::Transaction t = spend_split(op, outs, kOwner, nlt);
        ledger.post_with_delay(t, static_cast<Round>(rng() % (delta + 1)));
        for (std::uint32_t i = 0; i < outs.size(); ++i)
          coins.emplace_back(tx::OutPoint{t.txid(), i}, outs[i]);
      }
      ledger.advance_round();
      ASSERT_EQ(ledger.utxos().total_value() + ledger.fees_total(), ledger.minted_total())
          << "seed=" << seed << " round=" << ledger.now();
    }
    ledger.advance_rounds(delta + 1);
    EXPECT_EQ(ledger.utxos().total_value() + ledger.fees_total(), ledger.minted_total());
  }
}

// Rule-5 / Δ-delay validity: across randomized publish schedules nothing
// ever confirms before its nLockTime, everything confirms within the posted
// delay window, and the only rejections are future locktimes.
TEST(LedgerProperty, LocktimeAndDelayBoundsUnderRandomSchedules) {
  struct Posted {
    Hash256 txid;
    Round posted = 0;
    Round tau = 0;
    std::uint32_t nlt = 0;
  };
  for (const std::uint32_t seed : {3u, 11u, 99u, 2024u}) {
    std::mt19937 rng(seed);
    const Round delta = 1 + static_cast<Round>(rng() % 3);
    ledger::Ledger ledger(delta, crypto::schnorr_scheme());
    std::vector<Posted> posted;

    for (int step = 0; step < 40; ++step) {
      if (rng() % 2 == 0) {
        const tx::OutPoint op =
            ledger.mint(1000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
        const auto nlt = static_cast<std::uint32_t>(std::max<long long>(
            0, ledger.now() + static_cast<long long>(rng() % 9) - 2));
        const Round tau = static_cast<Round>(rng() % (delta + 1));
        const tx::Transaction t = spend_split(op, {1000}, kOwner, nlt);
        ledger.post_with_delay(t, tau);
        posted.push_back({t.txid(), ledger.now(), tau, nlt});
      }
      ledger.advance_round();
    }
    ledger.advance_rounds(delta + 1);  // drain the queue

    for (const Posted& p : posted) {
      const auto res = ledger.post_result(p.txid);
      ASSERT_TRUE(res.has_value());
      if (const auto conf = ledger.confirmation_round(p.txid)) {
        EXPECT_GE(*conf, static_cast<Round>(p.nlt)) << "seed=" << seed;
        EXPECT_GE(*conf, p.posted + p.tau) << "seed=" << seed;
        // One round per step ⇒ due posts are picked up immediately.
        EXPECT_LE(*conf, p.posted + std::max<Round>(p.tau, 1)) << "seed=" << seed;
      } else {
        EXPECT_EQ(*res, TxError::kLocktimeInFuture) << "seed=" << seed;
        EXPECT_GT(static_cast<long long>(p.nlt), p.posted + p.tau) << "seed=" << seed;
      }
    }
  }
}

// --- Fee market / mempool ----------------------------------------------

TEST(FeeMarket, InclusionDelayScalesWithFeerate) {
  const ledger::FeeMarketParams params{1.0, 3, 1};
  EXPECT_EQ(ledger::inclusion_delay(params, 1.0), 3);
  EXPECT_EQ(ledger::inclusion_delay(params, 3.0), 1);
  EXPECT_EQ(ledger::inclusion_delay(params, 100.0), 1);
  EXPECT_EQ(ledger::inclusion_delay(params, 0.5), -1);  // below relay floor
}

TEST(FeeMarket, CongestionMultiplies) {
  const ledger::FeeMarketParams params{1.0, 3, 4};
  EXPECT_EQ(ledger::inclusion_delay(params, 1.0), 12);
}

class MempoolTest : public ::testing::Test {
 protected:
  Ledger ledger_{2, crypto::schnorr_scheme()};
  ledger::Mempool mempool_{ledger_, {1.0, 3, 1}};
};

TEST_F(MempoolTest, HighFeeConfirmsFasterThanFloor) {
  const tx::OutPoint op1 = ledger_.mint(100'000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::OutPoint op2 = ledger_.mint(100'000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction fast = spend_p2wpkh(op1, 100'000, 90'000, kOwner);   // huge feerate
  const tx::Transaction slow = spend_p2wpkh(op2, 100'000, 99'800, kOwner);   // ~1 sat/vB
  EXPECT_EQ(mempool_.submit(fast), ledger::MempoolResult::kAccepted);
  EXPECT_EQ(mempool_.submit(slow), ledger::MempoolResult::kAccepted);
  mempool_.advance_round();
  mempool_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(fast.txid()));
  EXPECT_FALSE(ledger_.is_confirmed(slow.txid()));
  mempool_.advance_round();
  mempool_.advance_round();
  EXPECT_TRUE(ledger_.is_confirmed(slow.txid()));
}

TEST_F(MempoolTest, RbfRequiresStrictlyHigherAbsoluteFee) {
  const tx::OutPoint op = ledger_.mint(100'000, tx::Condition::p2wpkh(kOwner.pk.compressed()));
  const tx::Transaction incumbent = spend_p2wpkh(op, 100'000, 50'000, kOwner);  // fee 50k
  EXPECT_EQ(mempool_.submit(incumbent), ledger::MempoolResult::kAccepted);

  const tx::Transaction cheap = spend_p2wpkh(op, 100'000, 60'000, kOwner);  // fee 40k
  EXPECT_EQ(mempool_.submit(cheap), ledger::MempoolResult::kRejectedRbfTooCheap);

  const tx::Transaction rich = spend_p2wpkh(op, 100'000, 40'000, kOwner);  // fee 60k
  EXPECT_EQ(mempool_.submit(rich), ledger::MempoolResult::kReplaced);
  EXPECT_FALSE(mempool_.pending(incumbent.txid()));
  EXPECT_TRUE(mempool_.pending(rich.txid()));
}

TEST_F(MempoolTest, InvalidSpendRejected) {
  const tx::OutPoint bogus{crypto::Sha256::hash(Bytes{9}), 0};
  EXPECT_EQ(mempool_.submit(spend_p2wpkh(bogus, 1, 1, kOwner)),
            ledger::MempoolResult::kRejectedInvalid);
}

}  // namespace
}  // namespace daric
