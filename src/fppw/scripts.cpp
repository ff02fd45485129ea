#include "src/fppw/scripts.h"

#include "src/daric/builders.h"

namespace daric::fppw {

using script::Op;

namespace {
PartyKeys derive_party(const std::string& base) {
  PartyKeys k{crypto::derive_keypair(base + "/main"), crypto::derive_keypair(base + "/rev"),
              crypto::derive_keypair(base + "/pen"), {}};
  k.payout = k.main.pk.compressed();
  return k;
}

void multisig3(script::Script& s, BytesView k1, BytesView k2, BytesView k3) {
  s.small_int(3).push(k1).push(k2).push(k3).small_int(3).op(Op::OP_CHECKMULTISIG);
}
}  // namespace

Keys derive_keys(const std::string& channel_id) {
  const std::string base = channel_id + "/fppw/";
  return {derive_party(base + "A"), derive_party(base + "B"),
          crypto::derive_keypair(base + "W/rev"), crypto::derive_keypair(base + "W/payout")};
}

script::Script funding_script(const Keys& k) {
  return script::multisig_2of2(k.a.payout, k.b.payout);
}

StateSecrets state_secrets(const std::string& channel_id, std::uint32_t state) {
  const std::string base = channel_id + "/fppw/state/" + std::to_string(state);
  return {crypto::derive_keypair(base + "/yA"), crypto::derive_keypair(base + "/yB")};
}

script::Script fppw_out0_script(BytesView rev_a, BytesView rev_b, BytesView rev_w,
                                std::uint32_t csv, BytesView spl_a, BytesView spl_b) {
  script::Script s;
  s.op(Op::OP_IF);
  multisig3(s, rev_a, rev_b, rev_w);
  s.op(Op::OP_ELSE)
      .num4(csv)
      .op(Op::OP_CHECKSEQUENCEVERIFY)
      .op(Op::OP_DROP)
      .small_int(2)
      .push(spl_a)
      .push(spl_b)
      .small_int(2)
      .op(Op::OP_CHECKMULTISIG)
      .op(Op::OP_ENDIF);
  return s;
}

script::Script fppw_out1_script(BytesView rev_a, BytesView rev_b, BytesView rev_w,
                                std::uint32_t csv, BytesView pen_a, BytesView pen_b,
                                BytesView y_a, BytesView y_b) {
  script::Script s;
  s.op(Op::OP_IF);
  multisig3(s, rev_a, rev_b, rev_w);
  s.op(Op::OP_ELSE)
      .num4(csv)
      .op(Op::OP_CHECKSEQUENCEVERIFY)
      .op(Op::OP_DROP)
      .op(Op::OP_IF)
      .small_int(2)
      .push(pen_b)
      .push(y_a)
      .small_int(2)
      .op(Op::OP_CHECKMULTISIG)
      .op(Op::OP_ELSE)
      .small_int(2)
      .push(pen_a)
      .push(y_b)
      .small_int(2)
      .op(Op::OP_CHECKMULTISIG)
      .op(Op::OP_ENDIF)
      .op(Op::OP_ENDIF);
  return s;
}

Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    std::uint32_t state, const StateSecrets& sec) {
  const auto csv = static_cast<std::uint32_t>(p.t_punish);
  const Bytes rev_a = k.a.rev.pk.compressed();
  const Bytes rev_b = k.b.rev.pk.compressed();
  const Bytes rev_w = k.tower_rev.pk.compressed();
  Commit c;
  // The revocation keys are per channel; nLT identifies the state.
  c.out0 = fppw_out0_script(rev_a, rev_b, rev_w, csv, k.a.payout, k.b.payout);
  c.out1 = fppw_out1_script(rev_a, rev_b, rev_w, csv, k.a.pen.pk.compressed(),
                            k.b.pen.pk.compressed(), sec.y_a.pk.compressed(),
                            sec.y_b.pk.compressed());
  c.body.inputs = {{fund_op}};
  c.body.nlocktime = p.s0 + state;
  c.body.outputs = {{p.capacity(), tx::Condition::p2wsh(c.out0)},
                    {p.capacity(), tx::Condition::p2wsh(c.out1)}};
  return c;
}

tx::Transaction revocation_body(const channel::ChannelParams& p, const Keys& k,
                                const Hash256& commit_txid, sim::PartyId victim) {
  tx::Transaction t;
  t.inputs = {{{commit_txid, 0}}, {{commit_txid, 1}}};
  t.nlocktime = 0;
  t.outputs = {{p.capacity(), tx::Condition::p2wpkh(k.of(victim).payout)},
               {p.capacity(), tx::Condition::p2wpkh(k.tower_payout.pk.compressed())}};
  return t;
}

tx::Transaction coop_close_body(const channel::ChannelParams& p, const Keys& k,
                                const tx::OutPoint& fund_op, const channel::StateVec& st) {
  tx::Transaction t = daricch::gen_fin_split(fund_op, st, k.a.payout, k.b.payout);
  t.outputs.push_back({p.capacity(), tx::Condition::p2wpkh(k.tower_payout.pk.compressed())});
  return t;
}

std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb) {
  using namespace analyze;
  using script::SighashFlag;
  using sim::PartyId;

  std::vector<TxTemplate> out;
  const Keys k = derive_keys(p.id);
  const Amount cap = p.capacity();
  const Amount collateral = cap;  // the tower escrows the full capacity
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  const script::Script fund_script = funding_script(k);
  const tx::OutPoint fund_op = template_outpoint(p.id + "/fppw/fund");
  const Bytes tower_payout = k.tower_payout.pk.compressed();

  std::vector<StateSecrets> secrets;
  for (std::uint32_t j = 0; j <= n_latest; ++j) secrets.push_back(state_secrets(p.id, j));
  if (kb) {
    kb->add_key(k.a.payout, "fppw/A/fund", kP);
    kb->add_key(k.b.payout, "fppw/B/fund", kQ);
    kb->add_key(k.a.rev.pk.compressed(), "fppw/A/rev", kP);
    kb->add_key(k.b.rev.pk.compressed(), "fppw/B/rev", kQ);
    kb->add_key(k.tower_rev.pk.compressed(), "fppw/W/rev", kT);
    kb->add_key(k.a.pen.pk.compressed(), "fppw/A/pen", kP);
    kb->add_key(k.b.pen.pk.compressed(), "fppw/B/pen", kQ);
    kb->add_key(tower_payout, "fppw/W/payout", kT);
    // The funding keys are the payout keys. The counterparty extracts the
    // publisher's statement witness y from the adaptor-completed commit
    // signature — modeled at the revocation event.
    for (std::uint32_t j = 0; j <= n_latest; ++j) {
      const auto jt = static_cast<std::int32_t>(j);
      kb->add_key(secrets[j].y_a.pk.compressed(), "fppw/yA/" + std::to_string(j), kP, kQ,
                  jt + 1);
      kb->add_key(secrets[j].y_b.pk.compressed(), "fppw/yB/" + std::to_string(j), kQ, kP,
                  jt + 1);
    }
  }

  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    const Commit c = build_commit(p, k, fund_op, j, secrets[j]);
    out.push_back({"fppw", "commit[" + std::to_string(j) + "]", c.body,
                   {funding_input(fund_script, cap + collateral, kPQ,
                                  static_cast<std::int32_t>(j))},
                   TemplateTag::kCommit, static_cast<std::int32_t>(j)});
    const Hash256 commit_txid = c.body.txid();

    auto output_in = [&](std::uint32_t vout, std::vector<WitnessElem> witness, Round age) {
      TemplateInput in;
      in.spent = c.body.outputs[vout];
      in.witness_script = vout == 0 ? c.out0 : c.out1;
      in.witness = std::move(witness);
      in.spend_age = age;
      return in;
    };
    const std::vector<WitnessElem> rev_wit = {
        WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll),
        WitnessElem::sig(SighashFlag::kAll), WitnessElem::sig(SighashFlag::kAll),
        WitnessElem::constant(Bytes{1})};

    if (j < n_latest) {
      // The tower's 3-of-3 revocation: funds to the victim, collateral back
      // to the tower. One variant per possible victim.
      for (const PartyId victim : {PartyId::kA, PartyId::kB}) {
        // Only the tower holds this fully signed 3-of-3 revocation, from
        // the revocation event of state j.
        TemplateInput rv0 = output_in(0, rev_wit, 0);
        TemplateInput rv1 = output_in(1, rev_wit, 0);
        rv0.intended = rv1.intended = kT;
        rv0.presigned = rv1.presigned = Presign{kT, static_cast<std::int32_t>(j) + 1};
        out.push_back({"fppw",
                       std::string("revocation[") + sim::party_name(victim) + "," +
                           std::to_string(j) + "]",
                       revocation_body(p, k, commit_txid, victim),
                       {std::move(rv0), std::move(rv1)},
                       TemplateTag::kPunish});
      }

      // Tower-failure path: the victim claims the collateral through the
      // penalty branch, proving who published via the adaptor-extracted y.
      for (const bool a_published : {true, false}) {
        // The victim alone can pair its penalty key with the extracted y.
        TemplateInput pen_in =
            output_in(1,
                      {WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll),
                       WitnessElem::sig(SighashFlag::kAll),
                       a_published ? WitnessElem::constant(Bytes{1})
                                   : WitnessElem::empty(),
                       WitnessElem::empty()},
                      p.t_punish);
        pen_in.intended = a_published ? kQ : kP;
        out.push_back({"fppw",
                       std::string("penalty[") + (a_published ? "B," : "A,") +
                           std::to_string(j) + "]",
                       daricch::gen_sweep({commit_txid, 1}, collateral,
                                          a_published ? k.b.payout : k.a.payout),
                       {std::move(pen_in)}, TemplateTag::kPunish});
      }
    }

    // The split (ELSE branch of out0). For the latest state this is the
    // honest close; for a revoked state it is the publisher's race attempt.
    TemplateInput split_in =
        output_in(0,
                  {WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll),
                   WitnessElem::sig(SighashFlag::kAll), WitnessElem::empty()},
                  p.t_punish);
    split_in.intended = kPQ;
    split_in.presigned = Presign{kPQ, static_cast<std::int32_t>(j)};
    out.push_back({"fppw", "split[" + std::to_string(j) + "]",
                   daricch::gen_fin_split({commit_txid, 0}, model_state(model, cap, j),
                                          k.a.payout, k.b.payout),
                   {std::move(split_in)}});

    if (j == n_latest) {
      // Latest state: the tower exits by co-signing the collateral release
      // through the 3-of-3 branch (part of the cooperative teardown).
      TemplateInput rel_in = output_in(1, rev_wit, 0);
      rel_in.intended = kPQT;
      rel_in.presigned = Presign{kPQT, static_cast<std::int32_t>(j)};
      out.push_back({"fppw", "collateral-release[" + std::to_string(j) + "]",
                     daricch::gen_sweep({commit_txid, 1}, collateral, tower_payout),
                     {std::move(rel_in)}});
    }
  }

  out.push_back(coop_close_template(
      "fppw", coop_close_body(p, k, fund_op, model_state(model, cap, n_latest)), fund_script,
      cap + collateral, static_cast<std::int32_t>(n_latest)));
  return out;
}

}  // namespace daric::fppw
