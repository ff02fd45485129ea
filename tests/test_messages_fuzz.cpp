// Wire-message codec discipline and adversarial robustness sweeps:
// mutation of every byte of valid artifacts must be either rejected or
// harmless, never accepted with changed meaning, and never crash.
#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "src/daric/messages.h"
#include "src/daric/protocol.h"
#include "src/script/interpreter.h"
#include "src/tx/sighash.h"
#include "src/util/serialize.h"

namespace daric {
namespace {

using daricch::msg::Envelope;
using daricch::msg::Type;
using sim::PartyId;

Bytes sig_bytes(Byte fill) { return Bytes(script::kWireSigSize, fill); }

daricch::DaricPubKeys test_keys(const std::string& label) {
  return to_pub(daricch::DaricKeys::derive(label, "msg-test"));
}

// --- Codec round trips -------------------------------------------------

TEST(Messages, CreateInfoRoundTrip) {
  Envelope e;
  e.type = Type::kCreateInfo;
  e.channel_id = "chan-42";
  daricch::msg::CreateInfo b;
  b.funding_source = {crypto::Sha256::hash(Bytes{1}), 3};
  b.keys = test_keys("A");
  e.body = b;
  const auto back = daricch::msg::decode(daricch::msg::encode(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, Type::kCreateInfo);
  EXPECT_EQ(back->channel_id, "chan-42");
  const auto& body = std::get<daricch::msg::CreateInfo>(back->body);
  EXPECT_EQ(body.funding_source.vout, 3u);
  EXPECT_EQ(body.keys.rv2, b.keys.rv2);
}

TEST(Messages, UpdateReqRoundTripWithHtlcs) {
  Envelope e;
  e.type = Type::kUpdateReq;
  e.channel_id = "c";
  daricch::msg::UpdateReq b;
  b.next_state = {40'000, 50'000, {{10'000, Bytes(20, 0xaa), true, 12}}};
  b.t_stp = 7;
  e.body = b;
  const auto back = daricch::msg::decode(daricch::msg::encode(e));
  ASSERT_TRUE(back.has_value());
  const auto& body = std::get<daricch::msg::UpdateReq>(back->body);
  EXPECT_TRUE(body.next_state == b.next_state);
  EXPECT_EQ(body.t_stp, 7u);
}

TEST(Messages, AllSignatureMessagesRoundTrip) {
  const struct {
    Type type;
    Envelope env;
  } cases[] = {
      {Type::kCreateCom, {Type::kCreateCom, "c", daricch::msg::CreateCom{sig_bytes(1), sig_bytes(2)}}},
      {Type::kCreateFund, {Type::kCreateFund, "c", daricch::msg::CreateFund{sig_bytes(3)}}},
      {Type::kUpdateInfo, {Type::kUpdateInfo, "c", daricch::msg::UpdateInfo{sig_bytes(4)}}},
      {Type::kUpdateComP, {Type::kUpdateComP, "c", daricch::msg::UpdateComP{sig_bytes(5), sig_bytes(6)}}},
      {Type::kUpdateComQ, {Type::kUpdateComQ, "c", daricch::msg::UpdateComQ{sig_bytes(7)}}},
      {Type::kRevokeP, {Type::kRevokeP, "c", daricch::msg::Revoke{sig_bytes(8)}}},
      {Type::kRevokeQ, {Type::kRevokeQ, "c", daricch::msg::Revoke{sig_bytes(9)}}},
      {Type::kCloseP, {Type::kCloseP, "c", daricch::msg::Close{sig_bytes(10)}}},
      {Type::kCloseQ, {Type::kCloseQ, "c", daricch::msg::Close{sig_bytes(11)}}},
  };
  for (const auto& c : cases) {
    const auto back = daricch::msg::decode(daricch::msg::encode(c.env));
    ASSERT_TRUE(back.has_value()) << static_cast<int>(c.type);
    EXPECT_EQ(back->type, c.type);
  }
}

TEST(Messages, UnknownTypeRejected) {
  Envelope e{Type::kCreateFund, "c", daricch::msg::CreateFund{sig_bytes(1)}};
  Bytes wire = daricch::msg::encode(e);
  wire[0] = 0xff;  // type 0x??ff
  wire[1] = 0x7f;
  EXPECT_FALSE(daricch::msg::decode(wire).has_value());
}

TEST(Messages, TrailingBytesRejected) {
  Envelope e{Type::kCreateFund, "c", daricch::msg::CreateFund{sig_bytes(1)}};
  Bytes wire = daricch::msg::encode(e);
  wire.push_back(0);
  EXPECT_FALSE(daricch::msg::decode(wire).has_value());
}

TEST(Messages, EveryTruncationRejectedOrNullopt) {
  Envelope e;
  e.type = Type::kUpdateReq;
  e.channel_id = "chan";
  e.body = daricch::msg::UpdateReq{{1'000, 2'000, {{500, Bytes(20, 1), false, 3}}}, 9};
  const Bytes wire = daricch::msg::encode(e);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const BytesView prefix(wire.data(), cut);
    EXPECT_FALSE(daricch::msg::decode(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(Messages, ExcessiveHtlcCountRejected) {
  // Hand-craft an UpdateReq claiming 10,000 HTLCs (above the BOLT cap).
  Writer w;
  w.u16le(static_cast<std::uint16_t>(Type::kUpdateReq));
  w.var_bytes(Bytes{'c'});
  w.u64le(1);
  w.u64le(2);
  w.varint(10'000);
  EXPECT_FALSE(daricch::msg::decode(w.data()).has_value());
}

// --- Fuzz-ish mutation sweeps ------------------------------------------

TEST(MutationSweep, MessageByteFlipsNeverCrash) {
  Envelope e;
  e.type = Type::kCreateInfo;
  e.channel_id = "mutate";
  daricch::msg::CreateInfo b;
  b.funding_source = {crypto::Sha256::hash(Bytes{7}), 0};
  b.keys = test_keys("B");
  e.body = b;
  const Bytes wire = daricch::msg::encode(e);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x55;
    // Must not crash; may decode (a pubkey byte is opaque here) or reject.
    (void)daricch::msg::decode(mutated);
  }
  SUCCEED();
}

TEST(MutationSweep, WitnessTamperingNeverValidates) {
  // Every single-byte flip of any witness signature in a confirmed-style
  // revocation transaction must fail script verification.
  sim::Environment env(2, crypto::schnorr_scheme());
  channel::ChannelParams p;
  p.id = "fuzz-1";
  p.cash_a = 50'000;
  p.cash_b = 50'000;
  p.t_punish = 6;
  daricch::DaricChannel ch(env, p);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({40'000, 60'000, {}}));
  ch.publish_old_commit(PartyId::kA, 0);
  ASSERT_TRUE(ch.run_until_closed());
  const auto commit = env.ledger().spender_of(ch.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  ASSERT_NE(rv, nullptr);

  const tx::Output spent = commit->tx().outputs[0];
  ASSERT_EQ(tx::verify_input(rv->tx(), 0, spent, env.scheme(), 0), script::ScriptError::kOk);
  for (std::size_t el : {1u, 2u}) {  // the two multisig signatures
    for (std::size_t i = 0; i < rv->tx().witnesses[0].stack[el].size(); i += 5) {
      tx::Transaction mutated = rv->tx();
      mutated.witnesses[0].stack[el][i] ^= 0x01;
      EXPECT_NE(tx::verify_input(mutated, 0, spent, env.scheme(), 0),
                script::ScriptError::kOk)
          << "element " << el << " byte " << i;
    }
  }
}

TEST(MutationSweep, RandomScriptsNeverCrashInterpreter) {
  // Pseudo-random instruction soup: the interpreter must terminate with a
  // clean error code, never crash or hang.
  std::uint64_t state = 12345;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const script::Op ops[] = {
      script::Op::OP_0,     script::Op::OP_1,       script::Op::OP_IF,
      script::Op::OP_ELSE,  script::Op::OP_ENDIF,   script::Op::OP_DROP,
      script::Op::OP_DUP,   script::Op::OP_EQUAL,   script::Op::OP_VERIFY,
      script::Op::OP_SHA256, script::Op::OP_HASH160, script::Op::OP_CHECKSIG,
      script::Op::OP_CHECKMULTISIG, script::Op::OP_CHECKLOCKTIMEVERIFY,
      script::Op::OP_CHECKSEQUENCEVERIFY, script::Op::OP_RETURN,
  };
  struct NullChecker : script::SigChecker {
    bool check_sig(BytesView, BytesView) const override { return false; }
    bool check_locktime(std::uint32_t) const override { return true; }
    bool check_sequence(std::uint32_t) const override { return true; }
  };
  for (int iter = 0; iter < 300; ++iter) {
    script::Script s;
    const int len = 1 + static_cast<int>(next() % 24);
    for (int i = 0; i < len; ++i) {
      const std::uint64_t pick = next() % (std::size(ops) + 2);
      if (pick < std::size(ops)) {
        s.op(ops[pick]);
      } else if (pick == std::size(ops)) {
        s.push(Bytes(next() % 40, static_cast<Byte>(next())));
      } else {
        s.num4(static_cast<std::uint32_t>(next()));
      }
    }
    std::vector<Bytes> stack;
    for (std::uint64_t i = 0; i < next() % 4; ++i)
      stack.push_back(Bytes(next() % 8, static_cast<Byte>(next())));
    (void)script::eval_script(s, stack, NullChecker{});  // must not crash
  }
  SUCCEED();
}

TEST(MutationSweep, LedgerRejectsMutatedTransactionsGracefully) {
  sim::Environment env(2, crypto::schnorr_scheme());
  const auto key = crypto::derive_keypair("fuzz-ledger");
  const tx::OutPoint op = env.ledger().mint(5'000, tx::Condition::p2wpkh(key.pk.compressed()));
  tx::Transaction t;
  t.inputs = {{op}};
  t.outputs = {{5'000, tx::Condition::p2wpkh(key.pk.compressed())}};
  const Bytes sig =
      tx::sign_input(t, 0, key.sk, env.scheme(), script::SighashFlag::kAll);
  t.witnesses.resize(1);
  t.witnesses[0].stack = {sig, key.pk.compressed()};

  std::uint64_t state = 777;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  for (int iter = 0; iter < 50; ++iter) {
    tx::Transaction mutated = t;
    switch (next() % 4) {
      case 0: mutated.outputs[0].cash += static_cast<Amount>(next() % 1000 + 1); break;
      case 1: mutated.witnesses[0].stack[0][next() % 64] ^= 0xff; break;
      case 2: mutated.nlocktime = static_cast<std::uint32_t>(next() % 100 + 1000); break;
      case 3: mutated.inputs[0].prevout.vout += 1; break;
    }
    env.ledger().post_with_delay(mutated, 0);
    env.advance_round();
    EXPECT_FALSE(env.ledger().is_confirmed(mutated.txid())) << "iter " << iter;
  }
  // The untouched original still confirms — the set above was all-invalid.
  env.ledger().post_with_delay(t, 0);
  env.advance_round();
  EXPECT_TRUE(env.ledger().is_confirmed(t.txid()));
}

}  // namespace
}  // namespace daric
