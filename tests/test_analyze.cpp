// Static analyzer tests: every engine's template set must prove clean and
// describe the commits the engine posts, and each lint must fire on a
// crafted broken fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "src/analyze/auth.h"
#include "src/analyze/engines.h"
#include "src/analyze/graph.h"
#include "src/analyze/interp.h"
#include "src/analyze/reach.h"
#include "src/analyze/lints.h"
#include "src/analyze/report.h"
#include "src/cerberus/protocol.h"
#include "src/crypto/keys.h"
#include "src/crypto/sha256.h"
#include "src/daric/scripts.h"
#include "src/eltoo/protocol.h"
#include "src/fppw/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"
#include "src/script/interpreter.h"
#include "src/script/standard.h"

namespace daric {
namespace {

using analyze::Report;
using analyze::TemplateInput;
using analyze::TxTemplate;
using analyze::WitnessElem;
using script::Op;
using script::Script;
using script::SighashFlag;

const auto kA = crypto::derive_keypair("analyze-test/A");
const auto kB = crypto::derive_keypair("analyze-test/B");

// --- Positive: the real protocol templates are sound ----------------------

TEST(AnalyzeEngines, AllFourEnginesLintClean) {
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  for (const std::string& engine : analyze::engine_names()) {
    const std::vector<TxTemplate> templates =
        analyze::engine_templates(engine, params, model);
    ASSERT_FALSE(templates.empty()) << engine;
    Report rep;
    analyze::lint_templates(templates, rep);
    EXPECT_EQ(rep.error_count(), 0u) << engine << ":\n" << rep.render();
    EXPECT_EQ(rep.warning_count(), 0u) << engine << ":\n" << rep.render();
  }
}

TEST(AnalyzeEngines, FeeableRevocationVariantLintsClean) {
  const verify::Options model;
  channel::ChannelParams params = analyze::params_for_model(model);
  params.feeable_revocations = true;
  Report rep;
  analyze::lint_templates(daricch::enumerate_templates(params, model), rep);
  EXPECT_EQ(rep.error_count(), 0u) << rep.render();
}

TEST(AnalyzeEngines, MoreStatesStayClean) {
  verify::Options model;
  model.max_updates = 6;
  const channel::ChannelParams params = analyze::params_for_model(model);
  Report rep;
  analyze::lint_templates(analyze::all_engine_templates(params, model), rep);
  EXPECT_EQ(rep.error_count(), 0u) << rep.render();
}

// The templates the analyzer proves things about are the transactions the
// engines post: for each baseline and each state j of the default
// schedule, the commit its engine publishes (force_close at the latest
// state, publish_old_commit below it) has the txid of the enumerated commit
// template once that template's funding input is bound to the engine's
// funding outpoint.
TEST(AnalyzeEngines, BaselineCommitsAreTheirTemplates) {
  using sim::PartyId;
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  const Amount cap = params.capacity();
  const auto n_latest = static_cast<std::uint32_t>(model.max_updates);
  struct Baseline {
    const char* engine;
    const char* commit;  // template name prefix
    bool per_party;      // one commit per party, named commit[A,j]
    std::function<std::unique_ptr<channel::Engine>(sim::Environment&)> make;
  };
  const Baseline baselines[] = {
      {"lightning", "commit", true,
       [&](sim::Environment& env) {
         return std::make_unique<lightning::LightningChannel>(env, params);
       }},
      {"eltoo", "update", false,
       [&](sim::Environment& env) { return std::make_unique<eltoo::EltooChannel>(env, params); }},
      {"generalized", "commit", false,
       [&](sim::Environment& env) {
         return std::make_unique<generalized::GeneralizedChannel>(env, params);
       }},
      // The enumerator's tower reward is capacity/100.
      {"cerberus", "commit", true,
       [&](sim::Environment& env) {
         return std::make_unique<cerberus::CerberusChannel>(env, params, cap / 100);
       }},
      {"fppw", "commit", false,
       [&](sim::Environment& env) { return std::make_unique<fppw::FppwChannel>(env, params); }},
  };
  for (const Baseline& b : baselines) {
    const std::vector<TxTemplate> templates = analyze::engine_templates(b.engine, params, model);
    for (std::uint32_t j = 0; j <= n_latest; ++j) {
      for (const PartyId who : {PartyId::kA, PartyId::kB}) {
        std::string name = std::string(b.commit) + "[";
        if (b.per_party) name = name + sim::party_name(who) + ",";
        name += std::to_string(j) + "]";
        SCOPED_TRACE(std::string(b.engine) + "/" + name);
        sim::Environment env(model.delta, crypto::schnorr_scheme());
        const std::unique_ptr<channel::Engine> ch = b.make(env);
        ASSERT_TRUE(ch->create());
        for (std::uint32_t i = 1; i <= n_latest; ++i)
          ASSERT_TRUE(ch->update(analyze::model_state(model, cap, i)));
        if (j == n_latest)
          ch->force_close(who);
        else
          ch->publish_old_commit(who, j);
        const ledger::AcceptedTx* posted = nullptr;
        for (Round r = 0; r <= model.delta && !posted; ++r) {
          env.advance_round();
          posted = env.ledger().spender_of(ch->funding_outpoint());
        }
        ASSERT_NE(posted, nullptr);

        const auto t = std::find_if(templates.begin(), templates.end(),
                                    [&](const TxTemplate& x) { return x.name == name; });
        ASSERT_NE(t, templates.end());
        tx::Transaction bound = t->body;
        bound.inputs.at(0).prevout = ch->funding_outpoint();
        EXPECT_EQ(bound.txid(), posted->txid());
      }
    }
  }
}

// --- Fixture helpers ------------------------------------------------------

TxTemplate p2wsh_fixture(const Script& ws, std::vector<WitnessElem> witness,
                         Amount in_cash = 100, Amount out_cash = 100) {
  TxTemplate t;
  t.engine = "fixture";
  t.name = "case";
  t.body.inputs = {{analyze::template_outpoint("fixture")}};
  t.body.nlocktime = 0;
  t.body.outputs = {{out_cash, tx::Condition::p2wpkh(kA.pk.compressed())}};
  TemplateInput in;
  in.spent = {in_cash, tx::Condition::p2wsh(ws)};
  in.witness_script = ws;
  in.witness = std::move(witness);
  t.inputs = {std::move(in)};
  return t;
}

Report lint_one(const TxTemplate& t) {
  Report rep;
  analyze::lint_templates({t}, rep);
  return rep;
}

Report lint_script_only(const Script& s) {
  Report rep;
  analyze::lint_script(s, "fixture", rep);
  return rep;
}

// --- Negative: each lint fires on its broken fixture ----------------------

TEST(AnalyzeLints, StackUnderflowDA001) {
  // 2-of-2 multisig needs [dummy, sigA, sigB]; the template only carries two.
  const Script ws = script::multisig_2of2(kA.pk.compressed(), kB.pk.compressed());
  const Report rep = lint_one(p2wsh_fixture(
      ws, {WitnessElem::empty(), WitnessElem::sig(SighashFlag::kAll)}));
  EXPECT_TRUE(rep.has("DA001")) << rep.render();
}

TEST(AnalyzeLints, UnbalancedConditionalDA002) {
  Script s;
  s.push(kA.pk.compressed()).op(Op::OP_CHECKSIG).op(Op::OP_ENDIF);
  EXPECT_TRUE(lint_script_only(s).has("DA002"));

  Script open_if;
  open_if.op(Op::OP_IF).push(kA.pk.compressed()).op(Op::OP_CHECKSIG);
  EXPECT_TRUE(lint_script_only(open_if).has("DA002"));
}

TEST(AnalyzeLints, DeadBranchDA003) {
  // Constant condition: the false branch of OP_1 IF can never execute.
  Script constant_selector;
  constant_selector.op(Op::OP_1)
      .op(Op::OP_IF)
      .push(kA.pk.compressed())
      .op(Op::OP_CHECKSIG)
      .op(Op::OP_ELSE)
      .push(kB.pk.compressed())
      .op(Op::OP_CHECKSIG)
      .op(Op::OP_ENDIF);
  EXPECT_TRUE(lint_script_only(constant_selector).has("DA003"));

  // Reachable but never accepting: the ELSE arm always aborts.
  Script return_else;
  return_else.op(Op::OP_IF)
      .push(kA.pk.compressed())
      .op(Op::OP_CHECKSIG)
      .op(Op::OP_ELSE)
      .op(Op::OP_RETURN)
      .op(Op::OP_ENDIF);
  EXPECT_TRUE(lint_script_only(return_else).has("DA003"));
}

TEST(AnalyzeLints, UnspendableDA004) {
  Script s;
  s.op(Op::OP_RETURN);
  EXPECT_TRUE(lint_script_only(s).has("DA004"));

  // Constant EQUALVERIFY that can never hold.
  Script mismatch;
  mismatch.op(Op::OP_1).op(Op::OP_0).op(Op::OP_EQUALVERIFY).op(Op::OP_1);
  EXPECT_TRUE(lint_script_only(mismatch).has("DA004"));
}

TEST(AnalyzeLints, AnyoneCanSpendDA005) {
  Script s;
  s.op(Op::OP_1);
  EXPECT_TRUE(lint_script_only(s).has("DA005"));

  // A protocol script with a real signature gate must not trip the lint.
  const Report rep = lint_script_only(script::single_key(kA.pk.compressed()));
  EXPECT_FALSE(rep.has("DA005")) << rep.render();
}

TEST(AnalyzeLints, UncleanStackDA006) {
  Script s;
  s.push(kA.pk.compressed()).op(Op::OP_CHECKSIG).op(Op::OP_1);
  EXPECT_TRUE(lint_script_only(s).has("DA006"));
}

TEST(AnalyzeLints, NonMinimalPushDA007) {
  Script s;
  s.push(Bytes{5}).op(Op::OP_DROP).push(kA.pk.compressed()).op(Op::OP_CHECKSIG);
  const Report rep = lint_script_only(s);
  EXPECT_TRUE(rep.has("DA007")) << rep.render();
}

TEST(AnalyzeLints, ResourceLimitDA008) {
  // Static: wire size past script::kMaxScriptSize.
  Script big;
  while (big.wire_size() <= script::kMaxScriptSize) big.push(Bytes(255, 0xab));
  EXPECT_TRUE(lint_script_only(big).has("DA008"));

  // Static: abstract stack depth past script::kMaxStackDepth.
  Script deep;
  for (std::size_t i = 0; i <= script::kMaxStackDepth; ++i) deep.op(Op::OP_1);
  EXPECT_TRUE(lint_script_only(deep).has("DA008"));
}

TEST(AnalyzeLints, CltvMismatchDA009) {
  Script s;
  s.num4(50)
      .op(Op::OP_CHECKLOCKTIMEVERIFY)
      .op(Op::OP_DROP)
      .push(kA.pk.compressed())
      .op(Op::OP_CHECKSIG);
  TxTemplate t = p2wsh_fixture(s, {WitnessElem::sig(SighashFlag::kAll)});
  t.body.nlocktime = 10;  // < 50: the template can never satisfy its script
  EXPECT_TRUE(lint_one(t).has("DA009"));
  t.body.nlocktime = 50;
  EXPECT_FALSE(lint_one(t).has("DA009"));
}

TEST(AnalyzeLints, CsvMismatchDA010) {
  Script s;
  s.num4(5)
      .op(Op::OP_CHECKSEQUENCEVERIFY)
      .op(Op::OP_DROP)
      .push(kA.pk.compressed())
      .op(Op::OP_CHECKSIG);
  TxTemplate t = p2wsh_fixture(s, {WitnessElem::sig(SighashFlag::kAll)});
  t.inputs[0].spend_age = 2;  // the protocol posts before the CSV matures
  EXPECT_TRUE(lint_one(t).has("DA010"));
  t.inputs[0].spend_age = 5;
  EXPECT_FALSE(lint_one(t).has("DA010"));
}

TEST(AnalyzeLints, SingleWithoutOutputDA011) {
  // Two inputs, one output: a SINGLE signature on input 1 has no digest.
  TxTemplate t;
  t.engine = "fixture";
  t.name = "single";
  t.body.inputs = {{analyze::template_outpoint("in0")},
                   {analyze::template_outpoint("in1")}};
  t.body.nlocktime = 0;
  t.body.outputs = {{100, tx::Condition::p2wpkh(kA.pk.compressed())}};
  auto p2wpkh_in = [&](const crypto::KeyPair& k, SighashFlag flag) {
    TemplateInput in;
    in.spent = {50, tx::Condition::p2wpkh(k.pk.compressed())};
    in.witness = {WitnessElem::sig(flag), WitnessElem::constant(k.pk.compressed())};
    return in;
  };
  t.inputs = {p2wpkh_in(kA, SighashFlag::kAll), p2wpkh_in(kB, SighashFlag::kSingle)};
  EXPECT_TRUE(lint_one(t).has("DA011"));
  t.inputs[1].witness[0] = WitnessElem::sig(SighashFlag::kAll);
  EXPECT_FALSE(lint_one(t).has("DA011"));
}

TEST(AnalyzeLints, RebindWithoutAnyprevoutDA012) {
  const Script ws = script::multisig_2of2(kA.pk.compressed(), kB.pk.compressed());
  TxTemplate t = p2wsh_fixture(ws, {WitnessElem::empty(),
                                    WitnessElem::sig(SighashFlag::kAll),
                                    WitnessElem::sig(SighashFlag::kAll)});
  t.inputs[0].rebindable = true;  // floating, but the signatures pin the outpoint
  EXPECT_TRUE(lint_one(t).has("DA012"));
  t.inputs[0].witness[1] = WitnessElem::sig(SighashFlag::kAllAnyPrevOut);
  t.inputs[0].witness[2] = WitnessElem::sig(SighashFlag::kAllAnyPrevOut);
  EXPECT_FALSE(lint_one(t).has("DA012"));
}

TEST(AnalyzeLints, WitnessProgramMismatchDA013) {
  const Script real = script::multisig_2of2(kA.pk.compressed(), kB.pk.compressed());
  const Script wrong = script::single_key(kA.pk.compressed());
  TxTemplate t = p2wsh_fixture(real, {WitnessElem::empty(),
                                      WitnessElem::sig(SighashFlag::kAll),
                                      WitnessElem::sig(SighashFlag::kAll)});
  t.inputs[0].witness_script = wrong;  // hash no longer matches the spent program
  EXPECT_TRUE(lint_one(t).has("DA013"));
}

TEST(AnalyzeLints, ValueOverflowDA015) {
  const Script ws = script::single_key(kA.pk.compressed());
  const TxTemplate t = p2wsh_fixture(ws, {WitnessElem::sig(SighashFlag::kAll)},
                                     /*in_cash=*/100, /*out_cash=*/200);
  EXPECT_TRUE(lint_one(t).has("DA015"));
}

TEST(AnalyzeLints, TemplateShapeDA017) {
  TxTemplate t = p2wsh_fixture(script::single_key(kA.pk.compressed()),
                               {WitnessElem::sig(SighashFlag::kAll)});
  t.body.inputs.push_back({analyze::template_outpoint("extra")});  // no input spec
  EXPECT_TRUE(lint_one(t).has("DA017"));
}

TEST(AnalyzeLints, SuppressionDropsFindings) {
  Script s;
  s.op(Op::OP_1);
  Report rep;
  rep.suppress("DA005");
  analyze::lint_script(s, "fixture", rep);
  EXPECT_FALSE(rep.has("DA005"));
  EXPECT_EQ(rep.error_count(), 0u);
}

// --- Interpreter limits: static constants are enforced dynamically too ----

class PermissiveChecker : public script::SigChecker {
 public:
  bool check_sig(BytesView, BytesView) const override { return true; }
  bool check_locktime(std::uint32_t) const override { return true; }
  bool check_sequence(std::uint32_t) const override { return true; }
};

TEST(InterpreterLimits, StackOverflowCaughtAtRuntime) {
  Script deep;
  for (std::size_t i = 0; i <= script::kMaxStackDepth; ++i) deep.op(Op::OP_1);
  std::vector<Bytes> stack;
  const PermissiveChecker checker;
  EXPECT_EQ(script::eval_script(deep, stack, checker), script::ScriptError::kStackOverflow);
}

TEST(InterpreterLimits, OversizedScriptRejectedAtRuntime) {
  Script big;
  while (big.wire_size() <= script::kMaxScriptSize) big.push(Bytes(255, 0xab));
  std::vector<Bytes> stack;
  const PermissiveChecker checker;
  EXPECT_EQ(script::eval_script(big, stack, checker), script::ScriptError::kScriptTooLarge);
}

TEST(InterpreterLimits, RealProtocolScriptsFitWithinLimits) {
  // The analyzer proves these statically; spot-check the shared constants.
  const Script commit = daricch::commit_script(kA.pk.compressed(), kB.pk.compressed(),
                                               kA.pk.compressed(), kB.pk.compressed(), 42, 10);
  EXPECT_LE(commit.wire_size(), script::kMaxScriptSize);
  const analyze::ScriptAnalysis an = analyze::analyze_script(commit);
  EXPECT_LE(an.max_depth, script::kMaxStackDepth);
}

// --- Spend graph: reachability, races, Theorem-1 bounds (DA018..DA022) ----

using analyze::ReachParams;
using analyze::ReachReport;
using analyze::SpendGraph;
using analyze::TemplateTag;

ReachReport graph_pass(std::vector<TxTemplate> templates, Report& rep,
                       ReachParams params = {}) {
  const SpendGraph g = analyze::build_spend_graph(std::move(templates));
  return analyze::analyze_reachability(g, params, rep);
}

/// Asserts that exactly `id` fired among the graph lints.
void expect_only(const Report& rep, const std::string& id) {
  for (const char* lint : {"DA018", "DA019", "DA020", "DA021", "DA022"}) {
    if (id == lint)
      EXPECT_TRUE(rep.has(lint)) << rep.render();
    else
      EXPECT_FALSE(rep.has(lint)) << rep.render();
  }
}

Script csv_key_script(std::uint32_t csv, const crypto::KeyPair& k) {
  Script s;
  s.num4(csv)
      .op(Op::OP_CHECKSEQUENCEVERIFY)
      .op(Op::OP_DROP)
      .push(k.pk.compressed())
      .op(Op::OP_CHECKSIG);
  return s;
}

Script cltv_key_script(std::uint32_t cltv, const crypto::KeyPair& k) {
  Script s;
  s.num4(cltv)
      .op(Op::OP_CHECKLOCKTIMEVERIFY)
      .op(Op::OP_DROP)
      .push(k.pk.compressed())
      .op(Op::OP_CHECKSIG);
  return s;
}

/// Template spending one prior output through a single-sig P2WSH script.
TxTemplate spender(const std::string& name, tx::OutPoint prev,
                   const tx::Output& spent, const Script& ws, Round age,
                   std::vector<tx::Output> outs,
                   TemplateTag tag = TemplateTag::kNeutral, int state = -1) {
  TxTemplate t;
  t.engine = "gfx";
  t.name = name;
  t.body.inputs = {{prev}};
  t.body.nlocktime = 0;
  t.body.outputs = std::move(outs);
  TemplateInput in;
  in.spent = spent;
  in.witness_script = ws;
  in.witness = {WitnessElem::sig(SighashFlag::kAll)};
  in.spend_age = age;
  t.inputs = {std::move(in)};
  t.tag = tag;
  t.state = state;
  return t;
}

/// A stale commit (state 0) + a latest commit (state 1) with terminal
/// outputs, both drawn from the same external funding root. The stale
/// commit's single output carries `out_ws`.
std::vector<TxTemplate> two_commits(const Script& out_ws) {
  const Script fund_ws = script::single_key(kA.pk.compressed());
  const tx::OutPoint fund = analyze::template_outpoint("gfx/fund");
  const tx::Output fund_out{100, tx::Condition::p2wsh(fund_ws)};
  std::vector<TxTemplate> ts;
  ts.push_back(spender("commit[0]", fund, fund_out, fund_ws, 0,
                       {{100, tx::Condition::p2wsh(out_ws)}}, TemplateTag::kCommit, 0));
  ts.push_back(spender("commit[1]", fund, fund_out, fund_ws, 0,
                       {{100, tx::Condition::p2wpkh(kB.pk.compressed())}},
                       TemplateTag::kCommit, 1));
  return ts;
}

tx::OutPoint out0(const TxTemplate& t) { return {t.body.txid(), 0}; }

TEST(AnalyzeGraph, AllSixEnginesGraphClean) {
  const verify::Options model;  // Δ=1, T=3 → bound limit 2
  const channel::ChannelParams params = analyze::params_for_model(model);
  for (const std::string& engine : analyze::engine_names()) {
    Report rep;
    ReachReport rr =
        graph_pass(analyze::engine_templates(engine, params, model), rep,
                   {model.delta, model.t_punish});
    EXPECT_EQ(rep.error_count(), 0u) << engine << ":\n" << rep.render();
    EXPECT_TRUE(rr.punish_reachable) << engine;
    EXPECT_GT(rr.stale_commits, 0u) << engine;
    EXPECT_EQ(rr.races_won(), rr.races.size()) << engine;
    EXPECT_GE(rr.theorem1_bound, 0) << engine;
    EXPECT_LE(rr.theorem1_bound, rr.bound_limit) << engine;
  }
}

TEST(AnalyzeGraph, DaricBoundMatchesTheorem1) {
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  Report rep;
  const ReachReport rr =
      graph_pass(analyze::engine_templates("daric", params, model), rep,
                 {model.delta, model.t_punish});
  // Revocation posts immediately (age 0): bound 2Δ = 2, limit T − Δ = 2.
  EXPECT_EQ(rr.theorem1_bound, 2);
  EXPECT_EQ(rr.bound_limit, 2);
}

TEST(AnalyzeGraph, CerberusAndFppwEnumerateNonEmpty) {
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  for (const std::string engine : {"cerberus", "fppw"}) {
    const auto templates = analyze::engine_templates(engine, params, model);
    ASSERT_FALSE(templates.empty()) << engine;
    Report rep;
    analyze::lint_templates(templates, rep);
    EXPECT_EQ(rep.error_count(), 0u) << engine << ":\n" << rep.render();
    EXPECT_EQ(rep.warning_count(), 0u) << engine << ":\n" << rep.render();
  }
}

TEST(AnalyzeGraph, LatePunishTripsDA018) {
  // The only punish response waits 10 rounds: bound 1+10+1 = 12 > T−Δ = 2.
  const Script ws = script::single_key(kA.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(ws);
  ts.push_back(spender("punish", out0(ts[0]), ts[0].body.outputs[0], ws, 10,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                       TemplateTag::kPunish));
  Report rep;
  const ReachReport rr = graph_pass(std::move(ts), rep);
  expect_only(rep, "DA018");
  EXPECT_EQ(rr.theorem1_bound, 12);
}

TEST(AnalyzeGraph, MissingPunishTripsDA018) {
  const Script ws = script::single_key(kA.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(ws);
  // No punish template at all; the stale commit's output must still have a
  // spender or DA019 would (rightly) fire too — give it a neutral sweep.
  ts.push_back(spender("sweep", out0(ts[0]), ts[0].body.outputs[0], ws, 0,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}}));
  Report rep;
  const ReachReport rr = graph_pass(std::move(ts), rep);
  expect_only(rep, "DA018");
  EXPECT_FALSE(rr.punish_reachable);
}

TEST(AnalyzeGraph, StrandedOutputTripsDA019) {
  // A reachable template leaves a P2WSH output nothing ever spends.
  const Script fund_ws = script::single_key(kA.pk.compressed());
  const tx::OutPoint fund = analyze::template_outpoint("gfx/fund");
  std::vector<TxTemplate> ts;
  ts.push_back(spender("strand", fund, {100, tx::Condition::p2wsh(fund_ws)},
                       fund_ws, 0,
                       {{100, tx::Condition::p2wsh(script::single_key(
                                  kB.pk.compressed()))}}));
  Report rep;
  graph_pass(std::move(ts), rep);
  expect_only(rep, "DA019");
}

TEST(AnalyzeGraph, DeadPunishTripsDA020) {
  // Two punish responses: a live one (keeps DA018 quiet) and one whose
  // script demands CLTV 50 that its nLockTime 0 body can never satisfy.
  const Script ws = script::single_key(kA.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(ws);
  ts.push_back(spender("punish-live", out0(ts[0]), ts[0].body.outputs[0], ws, 0,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                       TemplateTag::kPunish));
  ts.push_back(spender("punish-dead", out0(ts[0]), ts[0].body.outputs[0],
                       cltv_key_script(50, kA), 0,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                       TemplateTag::kPunish));
  Report rep;
  graph_pass(std::move(ts), rep);
  expect_only(rep, "DA020");
}

TEST(AnalyzeGraph, LostRaceTripsDA021) {
  // Punish waits 2 rounds but a consensus-only rival is includable after a
  // 1-round CSV: honest confirms at 1+2+1 = 4, rival includable from 1+1 = 2.
  // T = 10 keeps the DA018 bound (4 ≤ 9) quiet so only the race fires.
  const Script ws = script::single_key(kA.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(ws);
  ts.push_back(spender("punish", out0(ts[0]), ts[0].body.outputs[0], ws, 2,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                       TemplateTag::kPunish));
  ts.push_back(spender("rival-sweep", out0(ts[0]), ts[0].body.outputs[0],
                       csv_key_script(1, kB), 1,
                       {{100, tx::Condition::p2wpkh(kB.pk.compressed())}}));
  Report rep;
  const ReachReport rr = graph_pass(std::move(ts), rep, {1, 10});
  expect_only(rep, "DA021");
  ASSERT_EQ(rr.races.size(), 1u);
  EXPECT_FALSE(rr.races[0].honest_wins);
  EXPECT_EQ(rr.races[0].honest_confirm, 4);
  EXPECT_EQ(rr.races[0].rival_include, 2);
}

// --- Authorization: who can spend every path (DA023..DA028) ---------------

using analyze::AuthParams;
using analyze::AuthReport;
using analyze::KnowledgeBase;
using analyze::Principal;
using analyze::PrincipalSet;

const PrincipalSet kSetP{Principal::kPartyP};
const PrincipalSet kSetQ{Principal::kPartyQ};
const PrincipalSet kSetPQ{Principal::kPartyP, Principal::kPartyQ};

AuthReport auth_pass(std::vector<TxTemplate> templates, const KnowledgeBase& kb,
                     Report& rep, AuthParams params = {}) {
  const SpendGraph g = analyze::build_spend_graph(std::move(templates));
  return analyze::analyze_authorization(g, kb, params, rep);
}

/// Asserts that exactly `id` fired among the authorization lints.
void expect_only_auth(const Report& rep, const std::string& id) {
  for (const char* lint : {"DA023", "DA024", "DA025", "DA026", "DA027", "DA028"}) {
    if (id == lint)
      EXPECT_TRUE(rep.has(lint)) << rep.render();
    else
      EXPECT_FALSE(rep.has(lint)) << rep.render();
  }
}

TEST(AnalyzeAuth, AllSixEnginesAuthClean) {
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  for (const std::string& engine : analyze::engine_names()) {
    KnowledgeBase kb;
    std::vector<TxTemplate> templates =
        analyze::engine_templates(engine, params, model, &kb);
    ASSERT_FALSE(kb.keys().empty()) << engine;
    const SpendGraph g = analyze::build_spend_graph(std::move(templates));
    Report rep;
    const AuthReport ar = analyze::analyze_authorization(
        g, kb, {model.delta, model.t_punish, -1}, rep);
    EXPECT_EQ(rep.error_count(), 0u) << engine << ":\n" << rep.render();
    EXPECT_EQ(ar.edges.size(), g.edges.size()) << engine;
    // Every satisfiable edge must bind at least one principal — no edge in
    // any engine is anyone-can-spend or orphaned from all key knowledge.
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      if (!g.edges[i].satisfiable) continue;
      EXPECT_FALSE(ar.edges[i].authorized.empty())
          << engine << " edge " << i;
      EXPECT_FALSE(ar.edges[i].authorized.has(Principal::kAnyone))
          << engine << " edge " << i;
    }
    // The races the reachability pass resolves survive the authorization
    // filter: every rival that can actually be signed still loses.
    const analyze::ReachReport rr =
        analyze::analyze_reachability(g, {model.delta, model.t_punish}, rep, &ar);
    EXPECT_EQ(rr.races_won(), rr.races.size()) << engine << ":\n" << rep.render();
    EXPECT_EQ(rep.error_count(), 0u) << engine << ":\n" << rep.render();
  }
}

TEST(AnalyzeAuth, DaricRevocationAuthorizedSet) {
  const verify::Options model;
  const channel::ChannelParams params = analyze::params_for_model(model);
  KnowledgeBase kb;
  const SpendGraph g = analyze::build_spend_graph(
      analyze::engine_templates("daric", params, model, &kb));
  Report rep;
  const AuthReport ar = analyze::analyze_authorization(
      g, kb, {model.delta, model.t_punish, -1}, rep);
  ASSERT_EQ(rep.error_count(), 0u) << rep.render();

  const PrincipalSet kRevokers{Principal::kPartyP, Principal::kPartyQ,
                               Principal::kTower};
  std::size_t revokes = 0, splits = 0;
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (!g.edges[i].satisfiable) continue;
    const std::string& name = g.tmpl(g.edges[i].spender).name;
    if (name.rfind("revoke[", 0) == 0) {
      ++revokes;
      // Either party or the watchtower can post the floating revocation of
      // a revoked state — the exact set the paper's penalization needs.
      EXPECT_EQ(ar.edges[i].authorized, kRevokers) << name;
    } else if (name.rfind("split[", 0) == 0) {
      ++splits;
      EXPECT_EQ(ar.edges[i].authorized, kSetPQ) << name;
    } else if (name == "htlc-claim") {
      EXPECT_EQ(ar.edges[i].authorized, kSetQ) << name;
    } else if (name == "htlc-timeout") {
      EXPECT_EQ(ar.edges[i].authorized, kSetP) << name;
    }
  }
  EXPECT_GT(revokes, 0u);
  EXPECT_GT(splits, 0u);
}

TEST(AnalyzeAuth, LeakedLatestPathTripsDA023) {
  // The latest commit's P2WSH output has an accepting path gated by a key
  // the counterparty holds, and no protocol edge takes that path.
  const auto leak = crypto::derive_keypair("analyze-test/leak");
  const Script fund_ws = script::single_key(kA.pk.compressed());
  const Script leak_ws = script::single_key(leak.pk.compressed());
  const tx::OutPoint fund = analyze::template_outpoint("gfx/fund");
  const tx::Output fund_out{100, tx::Condition::p2wsh(fund_ws)};
  std::vector<TxTemplate> ts;
  ts.push_back(spender("commit[0]", fund, fund_out, fund_ws, 0,
                       {{100, tx::Condition::p2wpkh(kB.pk.compressed())}},
                       TemplateTag::kCommit, 0));
  ts.push_back(spender("commit[1]", fund, fund_out, fund_ws, 0,
                       {{100, tx::Condition::p2wsh(leak_ws)}},
                       TemplateTag::kCommit, 1));
  // The only spender carries no signature, so its edge cannot satisfy the
  // script: the path stays uncovered while the script itself is known.
  TxTemplate sweep = spender("sweep", out0(ts[1]), ts[1].body.outputs[0],
                             leak_ws, 0,
                             {{100, tx::Condition::p2wpkh(kA.pk.compressed())}});
  sweep.inputs[0].witness = {WitnessElem::empty()};
  ts.push_back(std::move(sweep));

  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "fund", kSetP);
  kb.add_key(leak.pk.compressed(), "leaked", kSetQ);
  Report rep;
  const AuthReport ar = auth_pass(std::move(ts), kb, rep);
  expect_only_auth(rep, "DA023");
  ASSERT_FALSE(ar.latest_paths.empty());
  EXPECT_FALSE(ar.latest_paths[0].covered);
  EXPECT_EQ(ar.latest_paths[0].principals, kSetQ);
}

TEST(AnalyzeAuth, OverAuthorizedPunishTripsDA024) {
  // The punish gate key becomes known to BOTH parties at the revocation
  // event, but the annotation claims only Q may punish.
  const auto rev = crypto::derive_keypair("analyze-test/rev24");
  const Script rev_ws = script::single_key(rev.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(rev_ws);
  TxTemplate punish = spender("punish", out0(ts[0]), ts[0].body.outputs[0],
                              rev_ws, 0,
                              {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                              TemplateTag::kPunish);
  punish.inputs[0].intended = kSetQ;
  ts.push_back(std::move(punish));

  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "fund", kSetP);
  kb.add_key(rev.pk.compressed(), "rev", {}, kSetPQ, /*reveal_time=*/1);
  Report rep;
  auth_pass(std::move(ts), kb, rep);
  expect_only_auth(rep, "DA024");
}

TEST(AnalyzeAuth, HashOnlyGateTripsDA025) {
  // An accepting path gated only by a hash preimage binds no principal.
  const Bytes preimg(32, 0x5a);
  const Hash256 img = crypto::Sha256::double_hash(preimg);
  Script hs;
  hs.op(Op::OP_HASH256).push(img.view()).op(Op::OP_EQUAL);
  TxTemplate t = spender("hash-spend", analyze::template_outpoint("gfx/h"),
                         {100, tx::Condition::p2wsh(hs)}, hs, 0,
                         {{100, tx::Condition::p2wpkh(kA.pk.compressed())}});
  t.inputs[0].witness = {WitnessElem::constant(preimg)};
  KnowledgeBase kb;
  Report rep;
  auth_pass({std::move(t)}, kb, rep);
  expect_only_auth(rep, "DA025");
}

TEST(AnalyzeAuth, PrematurePunishTripsDA026) {
  // Q holds the punish key outright, so Q could punish commit state 0 at
  // time 0 — before its revocation event at time 1.
  const auto rev = crypto::derive_keypair("analyze-test/rev26");
  const Script rev_ws = script::single_key(rev.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(rev_ws);
  TxTemplate punish = spender("punish", out0(ts[0]), ts[0].body.outputs[0],
                              rev_ws, 0,
                              {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                              TemplateTag::kPunish);
  punish.inputs[0].intended = kSetQ;
  ts.push_back(std::move(punish));

  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "fund", kSetP);
  kb.add_key(rev.pk.compressed(), "rev", kSetQ);  // held from t=0, not revealed
  Report rep;
  auth_pass(std::move(ts), kb, rep);
  expect_only_auth(rep, "DA026");
}

TEST(AnalyzeAuth, KeyRoleHygieneTripsDA027) {
  // Same pubkey registered under two roles, plus a gate key with no
  // registration at all — both are DA027.
  const Script ws_a = script::single_key(kA.pk.compressed());
  const Script ws_b = script::single_key(kB.pk.compressed());
  std::vector<TxTemplate> ts;
  ts.push_back(spender("spend-a", analyze::template_outpoint("gfx/a"),
                       {100, tx::Condition::p2wsh(ws_a)}, ws_a, 0,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}}));
  ts.push_back(spender("spend-b", analyze::template_outpoint("gfx/b"),
                       {100, tx::Condition::p2wsh(ws_b)}, ws_b, 0,
                       {{100, tx::Condition::p2wpkh(kB.pk.compressed())}}));
  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "role-one", kSetP);
  kb.add_key(kA.pk.compressed(), "role-two", kSetP);  // conflict
  // kB deliberately unregistered.
  Report rep;
  auth_pass(std::move(ts), kb, rep);
  expect_only_auth(rep, "DA027");
  EXPECT_EQ(rep.error_count(), 2u) << rep.render();
}

TEST(AnalyzeAuth, SecretBeforeRevealTripsDA028) {
  // The intended spender needs a preimage that is only revealed at t=99,
  // far past the analysis time: no intended principal can satisfy the edge.
  const auto rev = crypto::derive_keypair("analyze-test/rev28");
  const Bytes preimg(32, 0x77);
  const Hash256 img = crypto::Sha256::double_hash(preimg);
  Script ws;
  ws.op(Op::OP_HASH256)
      .push(img.view())
      .op(Op::OP_EQUALVERIFY)
      .push(rev.pk.compressed())
      .op(Op::OP_CHECKSIG);
  std::vector<TxTemplate> ts = two_commits(ws);
  TxTemplate punish = spender("punish", out0(ts[0]), ts[0].body.outputs[0], ws, 0,
                              {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                              TemplateTag::kPunish);
  punish.inputs[0].witness = {WitnessElem::sig(SighashFlag::kAll),
                              WitnessElem::constant(preimg)};
  punish.inputs[0].intended = kSetQ;
  ts.push_back(std::move(punish));

  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "fund", kSetP);
  kb.add_key(rev.pk.compressed(), "rev", kSetQ);
  kb.add_preimage(Bytes(img.view().begin(), img.view().end()), preimg,
                  "late-secret", {}, kSetQ, /*reveal_time=*/99);
  Report rep;
  auth_pass(std::move(ts), kb, rep);
  expect_only_auth(rep, "DA028");
}

TEST(AnalyzeAuth, RaceFilterSkipsUnsignableRivals) {
  // A rival sweep gated by a key nobody who can publish the stale commit
  // holds: with the auth filter the race disappears; without it, it is lost.
  const Script ws = script::single_key(kA.pk.compressed());
  std::vector<TxTemplate> ts = two_commits(ws);
  ts.push_back(spender("punish", out0(ts[0]), ts[0].body.outputs[0], ws, 2,
                       {{100, tx::Condition::p2wpkh(kA.pk.compressed())}},
                       TemplateTag::kPunish));
  const auto stranger = crypto::derive_keypair("analyze-test/stranger");
  ts.push_back(spender("rival-sweep", out0(ts[0]), ts[0].body.outputs[0],
                       csv_key_script(1, stranger), 1,
                       {{100, tx::Condition::p2wpkh(kB.pk.compressed())}}));

  KnowledgeBase kb;
  kb.add_key(kA.pk.compressed(), "fund", kSetP);
  kb.add_key(stranger.pk.compressed(), "stranger", {});  // nobody can sign it
  const SpendGraph g = analyze::build_spend_graph(std::move(ts));
  Report auth_rep;
  const AuthReport ar = analyze::analyze_authorization(g, kb, {}, auth_rep);

  Report unfiltered;
  const ReachReport r0 = analyze::analyze_reachability(g, {1, 10}, unfiltered);
  ASSERT_EQ(r0.races.size(), 1u);
  EXPECT_FALSE(r0.races[0].honest_wins);

  Report filtered;
  const ReachReport r1 = analyze::analyze_reachability(g, {1, 10}, filtered, &ar);
  EXPECT_TRUE(r1.races.empty()) << filtered.render();
  EXPECT_FALSE(filtered.has("DA021")) << filtered.render();
}

TEST(AnalyzeGraph, RebindLoopTripsDA022) {
  // A floating input whose witness program matches the template's own
  // output: with ANYPREVOUT the signature could rebind to what it creates.
  const Script ws = script::single_key(kA.pk.compressed());
  const tx::Output looped{100, tx::Condition::p2wsh(ws)};
  TxTemplate t = spender("loop", analyze::template_outpoint("gfx/loop"), looped,
                         ws, 0, {looped});
  t.inputs[0].rebindable = true;
  t.inputs[0].witness = {WitnessElem::sig(SighashFlag::kAllAnyPrevOut)};
  Report rep;
  graph_pass({std::move(t)}, rep);
  expect_only(rep, "DA022");
}

}  // namespace
}  // namespace daric
