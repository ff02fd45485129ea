#include "src/eltoo/scripts.h"

#include "src/daric/builders.h"

namespace daric::eltoo {

namespace {
PartyKeys derive_party(const std::string& base) {
  return {crypto::derive_keypair(base + "/upd"),
          crypto::derive_keypair(base + "/main").pk.compressed()};
}
}  // namespace

Keys derive_keys(const std::string& channel_id) {
  return {derive_party(channel_id + "/eltoo/A"), derive_party(channel_id + "/eltoo/B")};
}

script::Script funding_script(const Keys& k) {
  return script::multisig_2of2(k.a.upd.pk.compressed(), k.b.upd.pk.compressed());
}

SettlementKeys settlement_keys(const std::string& channel_id, std::uint32_t state) {
  const std::string base = channel_id + "/eltoo/set/" + std::to_string(state);
  return {crypto::derive_keypair(base + "/A"), crypto::derive_keypair(base + "/B")};
}

script::Script update_script(BytesView set_a_i, BytesView set_b_i, BytesView upd_a,
                             BytesView upd_b, std::uint32_t next_state_cltv,
                             std::uint32_t csv_rel) {
  script::Script s;
  s.op(script::Op::OP_IF)
      .num4(csv_rel)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .small_int(2)
      .push(set_a_i)
      .push(set_b_i)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ELSE)
      .num4(next_state_cltv)
      .op(script::Op::OP_CHECKLOCKTIMEVERIFY)
      .op(script::Op::OP_DROP)
      .small_int(2)
      .push(upd_a)
      .push(upd_b)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ENDIF);
  return s;
}

script::Script update_output_script(const channel::ChannelParams& p, const Keys& k,
                                    const SettlementKeys& set, std::uint32_t state) {
  return update_script(set.a.pk.compressed(), set.b.pk.compressed(), k.a.upd.pk.compressed(),
                       k.b.upd.pk.compressed(), p.s0 + state + 1,
                       static_cast<std::uint32_t>(p.t_punish));
}

tx::Transaction update_body(const channel::ChannelParams& p, const script::Script& out_script,
                            std::uint32_t state) {
  tx::Transaction t;
  t.nlocktime = p.s0 + state;
  t.outputs = {{p.capacity(), tx::Condition::p2wsh(out_script)}};
  return t;
}

tx::Transaction settlement_body(const Keys& k, const channel::StateVec& st) {
  tx::Transaction t;
  t.nlocktime = 0;
  t.outputs = daricch::state_outputs(st, k.a.payout, k.b.payout);
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
  const tx::OutPoint fund_op = template_outpoint(p.id + "/eltoo/fund");
  if (kb) {
    kb->add_key(k.a.upd.pk.compressed(), "eltoo/A/upd", kP);
    kb->add_key(k.b.upd.pk.compressed(), "eltoo/B/upd", kQ);
    kb->add_key(k.a.payout, "eltoo/A/main", kP);
    kb->add_key(k.b.payout, "eltoo/B/main", kQ);
  }
  std::vector<script::Script> out_scripts;
  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    const SettlementKeys set = settlement_keys(p.id, j);
    if (kb) {
      kb->add_key(set.a.pk.compressed(), "eltoo/A/set/" + std::to_string(j), kP);
      kb->add_key(set.b.pk.compressed(), "eltoo/B/set/" + std::to_string(j), kQ);
    }
    out_scripts.push_back(update_output_script(p, k, set, j));
  }

  // Every eltoo transaction is symmetric: both parties co-sign and hold a
  // fully signed copy, so each one is presigned for {P,Q} from the time its
  // state was negotiated. Both branches of update j's output are 2-of-2s
  // like the funding output's; `selector` picks one.
  auto update_in = [&](std::uint32_t j, WitnessElem selector, std::uint32_t from) {
    TemplateInput in = funding_input(out_scripts[j], cap, kPQ, static_cast<std::int32_t>(from),
                                     SighashFlag::kAllAnyPrevOut);
    in.witness.push_back(std::move(selector));
    return in;
  };

  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    // Update j bound to the funding output (floating, ANYPREVOUT).
    const tx::Transaction upd = update_body(p, out_scripts[j], j);
    tx::Transaction on_fund = upd;
    on_fund.inputs = {{fund_op}};
    on_fund.witnesses.resize(1);
    out.push_back({"eltoo", "update[" + std::to_string(j) + "]", on_fund,
                   {funding_input(fund_script, cap, kPQ, static_cast<std::int32_t>(j),
                                  SighashFlag::kAllAnyPrevOut)},
                   TemplateTag::kCommit, static_cast<std::int32_t>(j)});

    // The latest update overriding stale update j (ELSE branch: CLTV floor
    // S0+j+1 ≤ nLT = S0+n only for j < n — eltoo's versioning).
    if (j < n_latest) {
      tx::Transaction latest = update_body(p, out_scripts[n_latest], n_latest);
      latest.inputs = {{{upd.txid(), 0}}};
      latest.witnesses.resize(1);
      out.push_back({"eltoo", "override[" + std::to_string(n_latest) + ">" +
                                  std::to_string(j) + "]",
                     latest,
                     {update_in(j, WitnessElem::empty(), n_latest)},
                     TemplateTag::kPunish});
    }

    // Settlement for state j (IF branch, after the CSV delay).
    tx::Transaction settle = settlement_body(k, model_state(model, cap, j));
    settle.inputs = {{{upd.txid(), 0}}};
    TemplateInput in = update_in(j, WitnessElem::constant(Bytes{1}), j);
    in.spend_age = p.t_punish;
    out.push_back({"eltoo", "settle[" + std::to_string(j) + "]", settle, {std::move(in)}});
  }

  out.push_back(coop_close_template(
      "eltoo",
      daricch::gen_fin_split(fund_op, model_state(model, cap, n_latest), k.a.payout,
                             k.b.payout),
      fund_script, cap, static_cast<std::int32_t>(n_latest)));
  return out;
}

}  // namespace daric::eltoo
