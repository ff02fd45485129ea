#include "src/lightning/scripts.h"

#include "src/daric/builders.h"

namespace daric::lightning {

namespace {
PartyKeys derive_party(const std::string& base) {
  PartyKeys k{crypto::derive_keypair(base + "/main"), crypto::derive_keypair(base + "/delayed"),
              {}};
  k.payout = k.main.pk.compressed();
  return k;
}
}  // namespace

Keys derive_keys(const std::string& channel_id) {
  return {derive_party(channel_id + "/ln/A"), derive_party(channel_id + "/ln/B")};
}

script::Script funding_script(const Keys& k) {
  return script::multisig_2of2(k.a.payout, k.b.payout);
}

crypto::KeyPair revocation_keypair(const std::string& channel_id, sim::PartyId owner,
                                   std::uint32_t state) {
  return crypto::derive_keypair(channel_id + "/ln/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state));
}

script::Script to_local_script(BytesView revocation_pk, std::uint32_t to_self_delay,
                               BytesView delayed_pk) {
  script::Script s;
  s.op(script::Op::OP_IF)
      .push(revocation_pk)
      .op(script::Op::OP_ELSE)
      .num4(to_self_delay)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .push(delayed_pk)
      .op(script::Op::OP_ENDIF)
      .op(script::Op::OP_CHECKSIG);
  return s;
}

Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    sim::PartyId owner, std::uint32_t state, const channel::StateVec& st) {
  const bool a = owner == sim::PartyId::kA;
  Commit c;
  c.to_local = to_local_script(revocation_keypair(p.id, owner, state).pk.compressed(),
                               static_cast<std::uint32_t>(p.t_punish),
                               k.of(owner).delayed.pk.compressed());
  c.body.inputs = {{fund_op}};
  // BOLT 3 hides the commitment number in nLockTime too; here it doubles
  // as the honest parties' state identifier.
  c.body.nlocktime = p.s0 + state;
  c.body.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(c.to_local)},
                    {a ? st.to_b : st.to_a, tx::Condition::p2wpkh(k.of(sim::other(owner)).payout)}};
  for (const channel::Htlc& h : st.htlcs) {
    c.body.outputs.push_back(
        {h.cash, tx::Condition::p2wsh(daricch::htlc_script(h, k.a.payout, k.b.payout))});
  }
  return c;
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
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  const script::Script fund_script = funding_script(k);
  const tx::OutPoint fund_op = template_outpoint(p.id + "/ln/fund");
  auto principal = [](PartyId who) { return who == PartyId::kA ? kP : kQ; };

  if (kb) {
    kb->add_key(k.a.payout, "ln/A/fund", kP);
    kb->add_key(k.b.payout, "ln/B/fund", kQ);
    kb->add_key(k.a.delayed.pk.compressed(), "ln/A/delayed", kP);
    kb->add_key(k.b.delayed.pk.compressed(), "ln/B/delayed", kQ);
    // The funding keys are the payout keys, so the registrations above
    // already cover the P2WPKH payout spends.
    // BOLT-3 combined revocation secret: neither side can sign alone; the
    // victim learns the full secret when state j is revoked at time j+1.
    for (std::uint32_t j = 0; j <= n_latest; ++j) {
      for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
        kb->add_key(revocation_keypair(p.id, owner, j).pk.compressed(),
                    std::string("ln/rev/") + sim::party_name(owner) + "/" + std::to_string(j),
                    {}, principal(sim::other(owner)), static_cast<std::int32_t>(j) + 1);
      }
    }
  }

  auto to_local_in = [&](const Commit& c, const WitnessElem& selector, Round age) {
    TemplateInput in;
    in.spent = c.body.outputs[0];
    in.witness_script = c.to_local;
    in.witness = {WitnessElem::sig(SighashFlag::kAll), selector};
    in.spend_age = age;
    return in;
  };

  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
      const Commit c = build_commit(p, k, fund_op, owner, j, model_state(model, cap, j));
      const std::string tag = std::string(sim::party_name(owner)) + "," + std::to_string(j);
      out.push_back({"lightning", "commit[" + tag + "]", c.body,
                     {funding_input(fund_script, cap, principal(owner),
                                    static_cast<std::int32_t>(j))},
                     TemplateTag::kCommit, static_cast<std::int32_t>(j)});

      const tx::OutPoint to_local{c.body.txid(), 0};
      const Amount cash = c.body.outputs[0].cash;
      if (j == n_latest) {
        // Latest state: the owner sweeps its to_local after the CSV delay.
        TemplateInput sweep_in = to_local_in(c, WitnessElem::empty(), p.t_punish);
        sweep_in.intended = principal(owner);
        out.push_back({"lightning", "sweep[" + tag + "]",
                       daricch::gen_sweep(to_local, cash, k.of(owner).payout),
                       {std::move(sweep_in)}});
      } else {
        // Revoked state: the victim claims instantly with the revealed secret.
        TemplateInput breach_in = to_local_in(c, WitnessElem::constant(Bytes{1}), 0);
        breach_in.intended = principal(sim::other(owner));
        out.push_back({"lightning", "breach-claim[" + tag + "]",
                       daricch::gen_sweep(to_local, cash, k.of(sim::other(owner)).payout),
                       {std::move(breach_in)},
                       TemplateTag::kPunish});
        // The cheater's own sweep attempt on the revoked commit — the race
        // the breach claim must win (CSV delay vs. instant revocation).
        TemplateInput cheat_in = to_local_in(c, WitnessElem::empty(), p.t_punish);
        cheat_in.intended = principal(owner);
        out.push_back({"lightning", "cheat-sweep[" + tag + "]",
                       daricch::gen_sweep(to_local, cash, k.of(owner).payout),
                       {std::move(cheat_in)}});
      }
    }
  }

  const channel::StateVec latest = model_state(model, cap, n_latest);
  {
    // The counterparty's direct balance on the latest commit.
    const Commit c = build_commit(p, k, fund_op, PartyId::kA, n_latest, latest);
    TemplateInput in;
    in.spent = c.body.outputs[1];
    in.witness = {WitnessElem::sig(SighashFlag::kAll), WitnessElem::constant(k.b.payout)};
    in.intended = kQ;
    out.push_back({"lightning", "to-remote-sweep",
                   daricch::gen_sweep({c.body.txid(), 1}, in.spent.cash, k.b.payout),
                   {std::move(in)}});
  }

  out.push_back(coop_close_template(
      "lightning", daricch::gen_fin_split(fund_op, latest, k.a.payout, k.b.payout), fund_script,
      cap, static_cast<std::int32_t>(n_latest)));
  return out;
}

}  // namespace daric::lightning
