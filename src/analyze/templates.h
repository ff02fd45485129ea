// Transaction templates: the unit the DAG linter checks.
//
// A template is a concrete transaction body a protocol engine can emit,
// plus per-input metadata the runtime layers keep implicit: which output
// the input spends, the abstract shape of the witness stack, how many
// rounds the protocol waits before posting (the nSequence analogue — CSV
// in this codebase is enforced against the spent output's on-chain age),
// and whether the input is (re)bound at publish time via ANYPREVOUT.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/analyze/domain.h"
#include "src/channel/state.h"
#include "src/tx/transaction.h"
#include "src/verify/model.h"

namespace daric::analyze {

struct TemplateInput {
  tx::Output spent;                              // output this input consumes
  std::optional<script::Script> witness_script;  // present for P2WSH spends
  std::vector<WitnessElem> witness;              // bottom..top, tx::Witness order
  Round spend_age = 0;   // rounds after prevout confirmation before posting
  bool rebindable = false;  // floating: input is bound/rebound at publish time

  // Authorization annotations (auth.h). `intended` is the full set of
  // principals the protocol *permits* to post this input's witness — not
  // merely the expected poster. Empty means "unannotated"; the authorization
  // analysis then skips the intended-vs-computed cross-checks for the input.
  PrincipalSet intended;
  // Set when the complete witness was exchanged as a fully-signed
  // transaction: holders can post it without signing anything themselves.
  std::optional<Presign> presigned;
};

/// Protocol role of a template in the spend-graph round model (graph.h).
/// `kCommit` marks a unilateral state publication (the transaction an
/// adversary can replay when stale); `kPunish` marks the honest response —
/// revocation, breach claim, eltoo override, FPPW penalty — whose
/// reachability and race timing Theorem 1 is about. Everything else
/// (funding, splits, sweeps, cooperative closes, HTLC claims) is neutral.
enum class TemplateTag : std::uint8_t { kNeutral, kCommit, kPunish };

struct TxTemplate {
  std::string engine;  // "daric", "lightning", "eltoo", "generalized", ...
  std::string name;    // e.g. "commit[A,2]", "split[2]"
  tx::Transaction body;
  std::vector<TemplateInput> inputs;  // parallel to body.inputs

  TemplateTag tag = TemplateTag::kNeutral;
  std::int32_t state = -1;  // state number for kCommit templates; -1 = n/a

  std::string label() const { return engine + "/" + name; }
};

/// Deterministic dummy outpoint for wiring template DAGs together.
tx::OutPoint template_outpoint(std::string_view label, std::uint32_t vout = 0);

// --- scaffolding the engines' enumerators share ---------------------------

/// Party A is principal P, party B is Q.
inline constexpr PrincipalSet kP{Principal::kPartyP};
inline constexpr PrincipalSet kQ{Principal::kPartyQ};
inline constexpr PrincipalSet kT{Principal::kTower};
inline constexpr PrincipalSet kPQ{Principal::kPartyP, Principal::kPartyQ};
inline constexpr PrincipalSet kPQT{Principal::kPartyP, Principal::kPartyQ, Principal::kTower};

/// State j of the model's balance schedule on a channel of `capacity`.
channel::StateVec model_state(const verify::Options& model, Amount capacity, std::uint32_t j);

/// An input spending a 2-of-2 funding output of `value` under
/// `fund_script`: [ε, sig, sig], both under `flag` (rebindable when that is
/// an ANYPREVOUT flag). `who` holds the fully countersigned transaction
/// from state `from` on.
TemplateInput funding_input(const script::Script& fund_script, Amount value, PrincipalSet who,
                            std::int32_t from,
                            script::SighashFlag flag = script::SighashFlag::kAll);

/// An engine's cooperative close `close`, spending the funding output,
/// which both parties sign at the latest state `latest`.
TxTemplate coop_close_template(std::string engine, tx::Transaction close,
                               const script::Script& fund_script, Amount value,
                               std::int32_t latest, std::string name = "coop-close");

}  // namespace daric::analyze
