#include "src/generalized/scripts.h"

#include "src/crypto/sha256.h"
#include "src/daric/builders.h"

namespace daric::generalized {

namespace {
PartyKeys derive_party(const std::string& base) {
  PartyKeys k{crypto::derive_keypair(base + "/main"), {}};
  k.payout = k.main.pk.compressed();
  return k;
}
}  // namespace

Keys derive_keys(const std::string& channel_id) {
  return {derive_party(channel_id + "/gc/A"), derive_party(channel_id + "/gc/B")};
}

script::Script funding_script(const Keys& k) {
  return script::multisig_2of2(k.a.payout, k.b.payout);
}

StateSecrets state_secrets(const std::string& channel_id, std::uint32_t state) {
  const std::string base = channel_id + "/gc/state/" + std::to_string(state);
  auto preimage = [&](const std::string& label) {
    const Hash256 h = crypto::Sha256::tagged(
        "daric/gc-rev", {reinterpret_cast<const Byte*>(label.data()), label.size()});
    return Bytes(h.view().begin(), h.view().end());
  };
  return {crypto::derive_keypair(base + "/yA"), crypto::derive_keypair(base + "/yB"),
          preimage(base + "/rA"), preimage(base + "/rB")};
}

script::Script commit_output_script(BytesView pk_a, BytesView pk_b, BytesView statement_a,
                                    BytesView statement_b, BytesView rev_hash_a,
                                    BytesView rev_hash_b, std::uint32_t csv_delay) {
  using script::Op;
  script::Script s;
  s.op(Op::OP_IF)
      // Split path: both parties, after the dispute delay.
      .num4(csv_delay)
      .op(Op::OP_CHECKSEQUENCEVERIFY)
      .op(Op::OP_DROP)
      .small_int(2)
      .push(pk_a)
      .push(pk_b)
      .small_int(2)
      .op(Op::OP_CHECKMULTISIG)
      .op(Op::OP_ELSE)
      .op(Op::OP_IF)
      // B punishes A: signature under Y_A (extracted witness) + preimage r_A.
      .push(statement_a)
      .op(Op::OP_CHECKSIGVERIFY)
      .op(Op::OP_HASH256)
      .push(rev_hash_a)
      .op(Op::OP_EQUALVERIFY)
      .push(pk_b)
      .op(Op::OP_CHECKSIG)
      .op(Op::OP_ELSE)
      // A punishes B.
      .push(statement_b)
      .op(Op::OP_CHECKSIGVERIFY)
      .op(Op::OP_HASH256)
      .push(rev_hash_b)
      .op(Op::OP_EQUALVERIFY)
      .push(pk_a)
      .op(Op::OP_CHECKSIG)
      .op(Op::OP_ENDIF)
      .op(Op::OP_ENDIF);
  return s;
}

script::Script output_script(const channel::ChannelParams& p, const Keys& k,
                             const StateSecrets& s) {
  const Hash256 ha = crypto::Sha256::double_hash(s.r_a);
  const Hash256 hb = crypto::Sha256::double_hash(s.r_b);
  return commit_output_script(k.a.payout, k.b.payout, s.y_a.pk.compressed(),
                              s.y_b.pk.compressed(), ha.view(), hb.view(),
                              static_cast<std::uint32_t>(p.t_punish));
}

tx::Transaction commit_body(const channel::ChannelParams& p, const tx::OutPoint& fund_op,
                            const script::Script& out_script, std::uint32_t state) {
  tx::Transaction t;
  t.inputs = {{fund_op}};
  t.nlocktime = p.s0 + state;
  t.outputs = {{p.capacity(), tx::Condition::p2wsh(out_script)}};
  return t;
}

std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb) {
  using namespace analyze;
  using script::SighashFlag;

  std::vector<TxTemplate> out;
  const Keys k = derive_keys(p.id);
  const Amount cap = p.capacity();
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  const script::Script fund_script = funding_script(k);
  const tx::OutPoint fund_op = template_outpoint(p.id + "/gc/fund");

  std::vector<StateSecrets> secrets;
  for (std::uint32_t j = 0; j <= n_latest; ++j) secrets.push_back(state_secrets(p.id, j));
  if (kb) {
    // The main keys gate the funding multisig and the split/punish branches
    // alike: one key, one role each.
    kb->add_key(k.a.payout, "gc/A/fund", kP);
    kb->add_key(k.b.payout, "gc/B/fund", kQ);
    for (std::uint32_t j = 0; j <= n_latest; ++j) {
      const StateSecrets& sec = secrets[j];
      const auto jt = static_cast<std::int32_t>(j);
      // The victim learns the publisher's statement witness y and revocation
      // preimage r when state j is revoked — both modeled at time j+1.
      kb->add_key(sec.y_a.pk.compressed(), "gc/yA/" + std::to_string(j), kP, kQ, jt + 1);
      kb->add_key(sec.y_b.pk.compressed(), "gc/yB/" + std::to_string(j), kQ, kP, jt + 1);
      const Hash256 ha = crypto::Sha256::double_hash(sec.r_a);
      const Hash256 hb = crypto::Sha256::double_hash(sec.r_b);
      kb->add_preimage(Bytes(ha.view().begin(), ha.view().end()), sec.r_a,
                       "gc/rA/" + std::to_string(j), kP, kQ, jt + 1);
      kb->add_preimage(Bytes(hb.view().begin(), hb.view().end()), sec.r_b,
                       "gc/rB/" + std::to_string(j), kQ, kP, jt + 1);
    }
  }

  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    const script::Script os = output_script(p, k, secrets[j]);
    const tx::Transaction commit = commit_body(p, fund_op, os, j);
    out.push_back({"generalized", "commit[" + std::to_string(j) + "]", commit,
                   {funding_input(fund_script, cap, kPQ, static_cast<std::int32_t>(j))},
                   TemplateTag::kCommit, static_cast<std::int32_t>(j)});
    const tx::OutPoint commit_op{commit.txid(), 0};

    auto spend_in = [&](std::vector<WitnessElem> witness, Round age) {
      TemplateInput in;
      in.spent = commit.outputs[0];
      in.witness_script = os;
      in.witness = std::move(witness);
      in.spend_age = age;
      return in;
    };

    // Split after the dispute delay (IF branch). For the latest state this
    // is the honest close; for a revoked state it is the publisher's race
    // attempt the punish transactions must beat.
    TemplateInput split_in =
        spend_in({WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll),
                  WitnessElem::sig(SighashFlag::kAll), WitnessElem::constant(Bytes{1})},
                 p.t_punish);
    split_in.intended = kPQ;
    split_in.presigned = Presign{kPQ, static_cast<std::int32_t>(j)};
    out.push_back({"generalized", "split[" + std::to_string(j) + "]",
                   daricch::gen_fin_split(commit_op, model_state(model, cap, j), k.a.payout,
                                          k.b.payout),
                   {std::move(split_in)}});
    if (j < n_latest) {
      // Revoked state: the victim punishes with the adaptor-extracted y-sig
      // plus the publisher's revealed revocation preimage.
      for (const bool a_published : {true, false}) {
        // Selectors: outer ε (punish side), inner 1 = punish A / ε = punish B.
        TemplateInput punish_in = spend_in(
            {WitnessElem::sig(SighashFlag::kAll),
             WitnessElem::constant(a_published ? secrets[j].r_a : secrets[j].r_b),
             WitnessElem::sig(SighashFlag::kAll),
             a_published ? WitnessElem::constant(Bytes{1}) : WitnessElem::empty(),
             WitnessElem::empty()},
            0);
        // Only the victim can produce the y-signature + revealed preimage.
        punish_in.intended = a_published ? kQ : kP;
        out.push_back(
            {"generalized",
             std::string("punish[") + (a_published ? "A," : "B,") + std::to_string(j) + "]",
             daricch::gen_sweep(commit_op, cap, a_published ? k.b.payout : k.a.payout),
             {std::move(punish_in)}, TemplateTag::kPunish});
      }
    }
  }

  out.push_back(coop_close_template(
      "generalized",
      daricch::gen_fin_split(fund_op, model_state(model, cap, n_latest), k.a.payout,
                             k.b.payout),
      fund_script, cap, static_cast<std::int32_t>(n_latest)));
  return out;
}

}  // namespace daric::generalized
