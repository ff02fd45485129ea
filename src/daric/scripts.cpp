#include "src/daric/scripts.h"

#include "src/crypto/keys.h"
#include "src/daric/builders.h"
#include "src/daric/wallet.h"

namespace daric::daricch {

script::Script commit_script(BytesView spl_a, BytesView spl_b, BytesView rev_a,
                             BytesView rev_b, std::uint32_t cltv_abs, std::uint32_t csv_rel) {
  script::Script s;
  s.num4(cltv_abs)
      .op(script::Op::OP_CHECKLOCKTIMEVERIFY)
      .op(script::Op::OP_DROP)
      .op(script::Op::OP_IF)
      .small_int(2)
      .push(rev_a)
      .push(rev_b)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ELSE)
      .num4(csv_rel)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .small_int(2)
      .push(spl_a)
      .push(spl_b)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ENDIF);
  return s;
}

script::Script htlc_script(const channel::Htlc& h, BytesView pk_a_main, BytesView pk_b_main) {
  const BytesView payee = h.offered_by_a ? pk_b_main : pk_a_main;
  const BytesView payer = h.offered_by_a ? pk_a_main : pk_b_main;
  return script::htlc(h.payment_hash, payee, payer, h.timeout);
}

std::vector<tx::Output> state_outputs(const channel::StateVec& st, BytesView pk_a_main,
                                      BytesView pk_b_main) {
  std::vector<tx::Output> outs;
  outs.push_back({st.to_a, tx::Condition::p2wpkh(pk_a_main)});
  outs.push_back({st.to_b, tx::Condition::p2wpkh(pk_b_main)});
  for (const channel::Htlc& h : st.htlcs) {
    outs.push_back({h.cash, tx::Condition::p2wsh(htlc_script(h, pk_a_main, pk_b_main))});
  }
  return outs;
}

std::vector<analyze::TxTemplate> enumerate_templates(const channel::ChannelParams& p,
                                                     const verify::Options& model,
                                                     analyze::KnowledgeBase* kb) {
  using namespace analyze;
  using script::SighashFlag;

  std::vector<TxTemplate> out;
  const DaricPubKeys pa = to_pub(DaricKeys::derive("A", p.id));
  const DaricPubKeys pb = to_pub(DaricKeys::derive("B", p.id));
  const Amount cap = p.capacity();
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  const auto n_time = static_cast<std::int32_t>(n_latest);
  const SighashFlag rv_flag =
      p.feeable_revocations ? SighashFlag::kSingleAnyPrevOut : SighashFlag::kAllAnyPrevOut;
  const crypto::KeyPair fee_key = crypto::derive_keypair(p.id + "/A/fee-source");

  if (kb) {
    // A's keys are P's, B's are Q's; the revocation 2-of-2s deliberately
    // split across the parties so neither can punish alone.
    kb->add_key(pa.main, "A/main", kP);
    kb->add_key(pb.main, "B/main", kQ);
    kb->add_key(pa.sp, "A/split", kP);
    kb->add_key(pb.sp, "B/split", kQ);
    kb->add_key(pa.rv, "A/rev", kP);
    kb->add_key(pb.rv, "B/rev", kQ);
    kb->add_key(pa.rv2, "A/rev2", kP);
    kb->add_key(pb.rv2, "B/rev2", kQ);
    kb->add_key(funding_source_keypair(p.id, sim::PartyId::kA).pk.compressed(), "A/wallet", kP);
    kb->add_key(funding_source_keypair(p.id, sim::PartyId::kB).pk.compressed(), "B/wallet", kQ);
    kb->add_key(fee_key.pk.compressed(), "A/fee", kP);
  }

  const FundingTemplate fund =
      gen_fund(template_outpoint(p.id + "/src/A"), template_outpoint(p.id + "/src/B"), cap, pa, pb);
  {
    auto wallet_in = [&](Amount cash, sim::PartyId who) {
      const crypto::KeyPair k = funding_source_keypair(p.id, who);
      TemplateInput in;
      in.spent = {cash, tx::Condition::p2wpkh(k.pk.compressed())};
      in.witness = {WitnessElem::sig(SighashFlag::kAll),
                    WitnessElem::constant(k.pk.compressed())};
      in.intended = who == sim::PartyId::kA ? kP : kQ;
      return in;
    };
    out.push_back({"daric", "funding", fund.body,
                   {wallet_in(p.cash_a, sim::PartyId::kA), wallet_in(p.cash_b, sim::PartyId::kB)}});
  }

  std::vector<CommitPair> commits;
  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    commits.push_back(gen_commit(fund.output(), cap, pa, pb, j, p));
    const CommitPair& c = commits.back();
    const auto jt = static_cast<std::int32_t>(j);
    out.push_back({"daric", "commit[A," + std::to_string(j) + "]", c.body_a,
                   {funding_input(fund.fund_script, cap, kP, jt)}, TemplateTag::kCommit, jt});
    out.push_back({"daric", "commit[B," + std::to_string(j) + "]", c.body_b,
                   {funding_input(fund.fund_script, cap, kQ, jt)}, TemplateTag::kCommit, jt});
  }

  // One split per state, bound to either party's commit (the two commits
  // share the state's CLTV but differ in revocation keys). Both branches of
  // a commit output are 2-of-2s signed under ANYPREVOUT flags, like a
  // floating spend of the funding output; `selector` picks one.
  auto commit_in = [&](std::uint32_t j, bool party_a, SighashFlag flag,
                       const WitnessElem& selector, PrincipalSet who,
                       std::int32_t from) {
    TemplateInput in = funding_input(party_a ? commits[j].script_a : commits[j].script_b, cap,
                                     who, from, flag);
    in.witness.push_back(selector);
    return in;
  };
  for (std::uint32_t j = 0; j <= n_latest; ++j) {
    const tx::Transaction split = gen_split(model_state(model, cap, j), j, p, pa, pb);
    for (const bool party_a : {true, false}) {
      tx::Transaction bound = split;
      bind_floating(bound, {(party_a ? commits[j].body_a : commits[j].body_b).txid(), 0});
      TemplateInput in = commit_in(j, party_a, SighashFlag::kAllAnyPrevOut,
                                   WitnessElem::empty(),  // ELSE: split branch
                                   kPQ, static_cast<std::int32_t>(j));
      in.spend_age = p.t_punish;
      out.push_back({"daric",
                     std::string("split[") + (party_a ? "A," : "B,") + std::to_string(j) + "]",
                     bound,
                     {std::move(in)}});
    }
  }

  // The single stored revocation (nLT = S0 + sn−1) punishes every commit
  // with state < sn via ANYPREVOUT rebinding (Appendix B).
  for (std::uint32_t j = 0; j < n_latest; ++j) {
    for (const bool party_a : {true, false}) {
      tx::Transaction rv =
          gen_revoke(party_a ? pb.main : pa.main, cap, n_latest - 1, p);
      bind_floating(rv, {(party_a ? commits[j].body_a : commits[j].body_b).txid(), 0});
      // The revocation of state j is exchanged (and handed to the tower) at
      // the update that replaces it — time j+1.
      out.push_back({"daric",
                     std::string("revoke[") + (party_a ? "A," : "B,") + std::to_string(j) + "]",
                     rv,
                     {commit_in(j, party_a, rv_flag,
                                WitnessElem::constant(Bytes{1}),  // IF: revocation
                                kPQT, static_cast<std::int32_t>(j) + 1)},
                     TemplateTag::kPunish});
    }
  }

  // Sec. 8 fee handling: a SINGLE|ANYPREVOUT-signed revocation with a fee
  // input and change output grafted on at publish time (daric/fees.h).
  if (n_latest > 0) {
    tx::Transaction rv = gen_revoke(pb.main, cap, n_latest - 1, p);
    bind_floating(rv, {commits[0].body_a.txid(), 0});
    const Amount fee_value = 1000;
    const Amount fee = 400;
    rv.inputs.push_back({template_outpoint(p.id + "/fee-source")});
    rv.outputs.push_back({fee_value - fee, tx::Condition::p2wpkh(fee_key.pk.compressed())});
    TemplateInput fee_in;
    fee_in.spent = {fee_value, tx::Condition::p2wpkh(fee_key.pk.compressed())};
    fee_in.witness = {WitnessElem::sig(SighashFlag::kAll),
                      WitnessElem::constant(fee_key.pk.compressed())};
    fee_in.intended = kP;  // the fee wallet is A's; its sig is fresh
    out.push_back({"daric", "revoke+fee[A,0]", rv,
                   {commit_in(0, true, SighashFlag::kSingleAnyPrevOut,
                              WitnessElem::constant(Bytes{1}), kPQT, 1),
                    std::move(fee_in)},
                   TemplateTag::kPunish});
  }

  const channel::StateVec st_latest = model_state(model, cap, n_latest);
  out.push_back(coop_close_template("daric",
                                    gen_fin_split(fund.output(), st_latest, pa.main, pb.main),
                                    fund.fund_script, cap, n_time, "final-split"));

  // Multi-hop extension (Sec. 8): a state carrying one in-flight HTLC, plus
  // the payee claim (preimage path) and payer clawback (timeout path).
  {
    const channel::HtlcSecret secret = channel::make_htlc_secret(p.id + "/analyze/htlc");
    if (kb) {
      // The payee (B) holds the preimage; A learns nothing until B claims.
      kb->add_preimage(secret.payment_hash, secret.preimage, "htlc-preimage", kQ);
    }
    channel::Htlc h;
    h.cash = cap / 10;
    h.payment_hash = secret.payment_hash;
    h.offered_by_a = true;
    h.timeout = static_cast<std::uint32_t>(p.t_punish);
    const channel::StateVec st{st_latest.to_a - h.cash, st_latest.to_b, {h}};
    tx::Transaction split = gen_split(st, n_latest, p, pa, pb);
    bind_floating(split, {commits[n_latest].body_a.txid(), 0});
    TemplateInput in = commit_in(n_latest, true, SighashFlag::kAllAnyPrevOut,
                                 WitnessElem::empty(), kPQ, n_time);
    in.spend_age = p.t_punish;
    const Hash256 split_txid = split.txid();
    out.push_back({"daric", "split+htlc[A," + std::to_string(n_latest) + "]", split,
                   {std::move(in)}});

    const script::Script hs = htlc_script(h, pa.main, pb.main);
    auto htlc_in = [&](std::vector<WitnessElem> witness, Round spend_age) {
      TemplateInput hin;
      hin.spent = {h.cash, tx::Condition::p2wsh(hs)};
      hin.witness_script = hs;
      hin.witness = std::move(witness);
      hin.spend_age = spend_age;
      return hin;
    };
    tx::Transaction claim;
    claim.inputs = {{{split_txid, 2}}};
    claim.nlocktime = 0;
    claim.outputs = {{h.cash, tx::Condition::p2wpkh(pb.main)}};  // payee B
    TemplateInput claim_in = htlc_in({WitnessElem::sig(SighashFlag::kAll),
                                      WitnessElem::constant(secret.preimage)},
                                     0);
    claim_in.intended = kQ;
    out.push_back({"daric", "htlc-claim", claim, {std::move(claim_in)}});
    tx::Transaction timeout;
    timeout.inputs = {{{split_txid, 2}}};
    timeout.nlocktime = 0;
    timeout.outputs = {{h.cash, tx::Condition::p2wpkh(pa.main)}};  // payer A
    // An empty top element misses the hash lock, forcing the timeout branch.
    TemplateInput timeout_in =
        htlc_in({WitnessElem::sig(SighashFlag::kAll), WitnessElem::empty()}, h.timeout);
    timeout_in.intended = kP;
    out.push_back({"daric", "htlc-timeout", timeout, {std::move(timeout_in)}});
  }

  return out;
}

}  // namespace daric::daricch
