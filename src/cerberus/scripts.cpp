#include "src/cerberus/scripts.h"

#include "src/daric/builders.h"

namespace daric::cerberus {

namespace {
PartyKeys derive_party(const std::string& base) {
  PartyKeys k{crypto::derive_keypair(base + "/main"), crypto::derive_keypair(base + "/delayed"),
              {}};
  k.payout = k.main.pk.compressed();
  return k;
}
}  // namespace

Keys derive_keys(const std::string& channel_id) {
  return {derive_party(channel_id + "/cb/A"), derive_party(channel_id + "/cb/B"),
          crypto::derive_keypair(channel_id + "/cb/tower")};
}

script::Script funding_script(const Keys& k) {
  return script::multisig_2of2(k.a.payout, k.b.payout);
}

crypto::KeyPair revocation_keypair(const std::string& channel_id, sim::PartyId owner,
                                   std::uint32_t state, int leg) {
  return crypto::derive_keypair(channel_id + "/cb/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state) + "/" + std::to_string(leg));
}

script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk) {
  script::Script s;
  s.op(script::Op::OP_IF)
      .small_int(2)
      .push(rev1)
      .push(rev2)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ELSE)
      .num4(csv)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .push(delayed_pk)
      .op(script::Op::OP_CHECKSIG)
      .op(script::Op::OP_ENDIF);
  return s;
}

Commit build_commit(const channel::ChannelParams& p, const Keys& k, const tx::OutPoint& fund_op,
                    sim::PartyId owner, std::uint32_t state, const channel::StateVec& st) {
  const bool a = owner == sim::PartyId::kA;
  const auto csv = static_cast<std::uint32_t>(p.t_punish);
  auto rev_pk = [&](int leg) {
    return revocation_keypair(p.id, owner, state, leg).pk.compressed();
  };
  Commit c;
  c.local = cerberus_output_script(rev_pk(0), rev_pk(1), csv, k.of(owner).delayed.pk.compressed());
  c.remote = cerberus_output_script(rev_pk(2), rev_pk(3), csv,
                                    k.of(sim::other(owner)).delayed.pk.compressed());
  c.body.inputs = {{fund_op}};
  c.body.nlocktime = p.s0 + state;
  c.body.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(c.local)},
                    {a ? st.to_b : st.to_a, tx::Condition::p2wsh(c.remote)}};
  return c;
}

tx::Transaction revocation_body(const channel::ChannelParams& p, const Keys& k,
                                const Hash256& commit_txid, sim::PartyId victim, Amount reward) {
  tx::Transaction t;
  t.inputs = {{{commit_txid, 0}}, {{commit_txid, 1}}};
  t.nlocktime = 0;
  t.outputs = {{p.capacity() - reward, tx::Condition::p2wpkh(k.of(victim).payout)},
               {reward, tx::Condition::p2wpkh(k.tower.pk.compressed())}};
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
  const Amount reward = cap / 100;  // the tower's incentive carve-out
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  const script::Script fund_script = funding_script(k);
  const tx::OutPoint fund_op = template_outpoint(p.id + "/cb/fund");
  auto principal = [](PartyId who) { return who == PartyId::kA ? kP : kQ; };

  if (kb) {
    kb->add_key(k.a.payout, "cb/A/fund", kP);
    kb->add_key(k.b.payout, "cb/B/fund", kQ);
    kb->add_key(k.a.delayed.pk.compressed(), "cb/A/delayed", kP);
    kb->add_key(k.b.delayed.pk.compressed(), "cb/B/delayed", kQ);
    kb->add_key(k.tower.pk.compressed(), "cb/tower", kT);
    // The funding keys are the payout keys. Revocation legs are split
    // across the parties (even legs owner, odd legs counterparty), so the
    // 2-of-2 revocation branch is never satisfiable from one party's key
    // knowledge alone — the tower acts through the pre-signed revocation
    // transaction, not raw keys.
    for (std::uint32_t j = 0; j <= n_latest; ++j) {
      for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
        for (int leg = 0; leg < 4; ++leg) {
          kb->add_key(revocation_keypair(p.id, owner, j, leg).pk.compressed(),
                      std::string("cb/rev/") + sim::party_name(owner) + "/" +
                          std::to_string(j) + "/" + std::to_string(leg),
                      principal(leg % 2 == 0 ? owner : sim::other(owner)));
        }
      }
    }
  }

  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
      const std::string tag = std::string(sim::party_name(owner)) + "," + std::to_string(j);
      const Commit c = build_commit(p, k, fund_op, owner, j, model_state(model, cap, j));
      out.push_back({"cerberus", "commit[" + tag + "]", c.body,
                     {funding_input(fund_script, cap, principal(owner),
                                    static_cast<std::int32_t>(j))},
                     TemplateTag::kCommit, static_cast<std::int32_t>(j)});
      const Hash256 commit_txid = c.body.txid();

      auto output_in = [&](std::uint32_t vout, std::vector<WitnessElem> witness, Round age) {
        TemplateInput in;
        in.spent = c.body.outputs[vout];
        in.witness_script = vout == 0 ? c.local : c.remote;
        in.witness = std::move(witness);
        in.spend_age = age;
        return in;
      };

      if (j < n_latest) {
        // The tower's pre-signed revocation: claims both outputs, pays the
        // victim everything minus the reward that keeps the tower honest.
        const std::vector<WitnessElem> rev_wit = {
            WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll),
            WitnessElem::sig(SighashFlag::kAll), WitnessElem::constant(Bytes{1})};
        // Victim and tower hold the fully signed revocation once state j is
        // revoked at j+1.
        PrincipalSet avengers = principal(sim::other(owner));
        avengers.add(Principal::kTower);
        TemplateInput rv0 = output_in(0, rev_wit, 0);
        TemplateInput rv1 = output_in(1, rev_wit, 0);
        rv0.intended = rv1.intended = avengers;
        rv0.presigned = rv1.presigned =
            Presign{avengers, static_cast<std::int32_t>(j) + 1};
        out.push_back({"cerberus", "revocation[" + tag + "]",
                       revocation_body(p, k, commit_txid, sim::other(owner), reward),
                       {std::move(rv0), std::move(rv1)},
                       TemplateTag::kPunish});
      }

      // Delayed sweeps (ELSE branch). On the latest state these are the
      // honest non-collaborative close; on a revoked state they are the
      // cheater's race attempt the tower's revocation must beat.
      for (const std::uint32_t vout : {0u, 1u}) {
        const PartyId to = vout == 0 ? owner : sim::other(owner);
        TemplateInput in = output_in(
            vout, {WitnessElem::sig(SighashFlag::kAll), WitnessElem::empty()}, p.t_punish);
        in.intended = principal(to);
        out.push_back({"cerberus", (vout == 0 ? "sweep[" : "remote-sweep[") + tag + "]",
                       daricch::gen_sweep({commit_txid, vout}, c.body.outputs[vout].cash,
                                          k.of(to).payout),
                       {std::move(in)}});
      }
    }
  }

  out.push_back(coop_close_template(
      "cerberus",
      daricch::gen_fin_split(fund_op, model_state(model, cap, n_latest), k.a.payout,
                             k.b.payout),
      fund_script, cap, static_cast<std::int32_t>(n_latest)));
  return out;
}

}  // namespace daric::cerberus
