#include "src/analyze/auth.h"

#include <algorithm>
#include <set>

#include "src/analyze/interp.h"
#include "src/analyze/lints.h"
#include "src/util/hex.h"

namespace daric::analyze {

namespace {

// The principals that can hold knowledge. kAnyone/kAdversary are derived
// classifications, never knowledge holders.
constexpr Principal kKnowers[] = {Principal::kPartyP, Principal::kPartyQ,
                                  Principal::kTower};

std::string hex8(const Bytes& b) {
  const std::string h = to_hex(b);
  return h.size() > 8 ? h.substr(0, 8) : h;
}

struct AuthEmitter {
  Report& rep;

  void operator()(LintId id, std::string where, std::string message,
                  const PrincipalSet& principals, std::string trace = "") const {
    const Lint& info = lint_info(id);
    Finding f{info.id, info.severity, std::move(where), std::move(message),
              std::move(trace), ""};
    if (!principals.empty()) f.principals = principals.render();
    rep.add(std::move(f));
  }
};

}  // namespace

void KnowledgeBase::add_key(Bytes pub, std::string role, PrincipalSet holders,
                            PrincipalSet reveal_to, std::int32_t reveal_time) {
  auto it = key_index_.find(pub);
  if (it != key_index_.end()) {
    const KeyFact& existing = keys_[it->second];
    if (existing.role == role) return;  // idempotent re-registration
    for (auto& [p, roles] : conflicts_) {
      if (p != pub) continue;
      if (std::find(roles.begin(), roles.end(), role) == roles.end())
        roles.push_back(std::move(role));
      return;
    }
    conflicts_.emplace_back(pub, std::vector<std::string>{existing.role, std::move(role)});
    return;
  }
  key_index_.emplace(pub, keys_.size());
  keys_.push_back(KeyFact{std::move(pub), std::move(role), holders, reveal_to, reveal_time});
}

void KnowledgeBase::add_preimage(Bytes image, Bytes preimage, std::string role,
                                 PrincipalSet holders, PrincipalSet reveal_to,
                                 std::int32_t reveal_time) {
  if (image_index_.count(image)) return;
  image_index_.emplace(image, preimages_.size());
  preimage_index_.emplace(preimage, preimages_.size());
  preimages_.push_back(PreimageFact{std::move(image), std::move(preimage),
                                    std::move(role), holders, reveal_to, reveal_time});
}

const KeyFact* KnowledgeBase::key(const Bytes& pub) const {
  auto it = key_index_.find(pub);
  return it == key_index_.end() ? nullptr : &keys_[it->second];
}

const PreimageFact* KnowledgeBase::by_image(const Bytes& image) const {
  auto it = image_index_.find(image);
  return it == image_index_.end() ? nullptr : &preimages_[it->second];
}

const PreimageFact* KnowledgeBase::by_preimage(const Bytes& preimage) const {
  auto it = preimage_index_.find(preimage);
  return it == preimage_index_.end() ? nullptr : &preimages_[it->second];
}

PrincipalSet KnowledgeBase::signers(const Bytes& pub, std::int32_t t) const {
  const KeyFact* k = key(pub);
  if (!k) return {};
  PrincipalSet out = k->holders;
  if (k->reveal_time >= 0 && t >= k->reveal_time) out |= k->reveal_to;
  return out;
}

PrincipalSet KnowledgeBase::preimage_holders(const Bytes& image, std::int32_t t) const {
  const PreimageFact* f = by_image(image);
  if (!f) return {};
  PrincipalSet out = f->holders;
  if (f->reveal_time >= 0 && t >= f->reveal_time) out |= f->reveal_to;
  return out;
}

namespace {

/// Registered preimages the template witness carries as constants — secret
/// material a spender must *know* to post this witness (branch selectors
/// and pubkeys are public and never registered as preimages).
std::vector<const PreimageFact*> secret_consts(const TemplateInput& in,
                                               const KnowledgeBase& kb) {
  std::vector<const PreimageFact*> out;
  for (const WitnessElem& w : in.witness) {
    if (w.kind != WitnessElem::Kind::kConst || w.bytes.empty()) continue;
    if (const PreimageFact* f = kb.by_preimage(w.bytes)) out.push_back(f);
  }
  return out;
}

bool knows_fact(const PreimageFact& f, Principal p, std::int32_t t) {
  if (f.holders.has(p)) return true;
  return f.reveal_time >= 0 && t >= f.reveal_time && f.reveal_to.has(p);
}

/// Can `p` pass one signature gate at time `t` from key knowledge alone?
bool gate_ok(const SigGate& g, const KnowledgeBase& kb, Principal p, std::int32_t t,
             std::string* why) {
  if (g.opaque) {
    if (why) *why = "gate key is not a script constant";
    return false;
  }
  int can = 0;
  for (const Bytes& key : g.keys)
    if (kb.signers(key, t).has(p)) ++can;
  if (can >= g.threshold) return true;
  if (why)
    *why = "signs " + std::to_string(can) + " of required " +
           std::to_string(g.threshold) + " keys (gate key " +
           (g.keys.empty() ? std::string("?") : hex8(g.keys[0])) + "...)";
  return false;
}

/// Principals able to satisfy one accepting path's gates at time `t`.
/// `secrets` are the witness-constant preimages the template carries (empty
/// in script mode). Records a blocking reason per knower that fails.
PrincipalSet path_satisfiers(const PathGuards& g,
                             const std::vector<const PreimageFact*>& secrets,
                             const KnowledgeBase& kb, std::int32_t t,
                             std::map<Principal, std::string>* blockers) {
  PrincipalSet out;
  if (g.sig_reqs.empty() && g.hash_images.empty() && secrets.empty())
    out.add(Principal::kAnyone);
  for (Principal p : kKnowers) {
    std::string why;
    bool ok = true;
    for (const SigGate& gate : g.sig_reqs) {
      if (!gate_ok(gate, kb, p, t, &why)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const Bytes& image : g.hash_images) {
        if (!kb.preimage_holders(image, t).has(p)) {
          const PreimageFact* f = kb.by_image(image);
          why = f ? "preimage of " + hex8(image) + " (" + f->role +
                        ") not revealed until t=" + std::to_string(f->reveal_time)
                  : "preimage of unregistered image " + hex8(image);
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (const PreimageFact* f : secrets) {
        if (!knows_fact(*f, p, t)) {
          why = "witness carries secret " + f->role + " not revealed until t=" +
                std::to_string(f->reveal_time);
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      out.add(p);
    } else if (blockers && !blockers->count(p)) {
      (*blockers)[p] = std::move(why);
    }
  }
  return out;
}

bool cltv_feasible(const PathResult& p, const tx::Transaction& body) {
  for (const std::uint32_t lock : p.guards.cltv)
    if (body.nlocktime < lock) return false;
  return true;
}

/// Full authorization of one spend-graph edge at time `t`: presign route
/// plus the knowledge route over every accepting, CLTV-feasible path.
AuthEdge authorize_edge(const SpendGraph& g, const SpendGraph::Edge& e,
                        const KnowledgeBase& kb, std::int32_t t) {
  AuthEdge out;
  if (!e.satisfiable) return out;  // no witness shape accepts at all
  const TxTemplate& tm = g.tmpl(e.spender);
  const TemplateInput& in = tm.inputs[e.input];

  if (in.presigned && t >= in.presigned->from_time)
    out.authorized |= in.presigned->holders;

  std::map<Principal, std::string> blockers;
  if (in.spent.cond.type == tx::Condition::Type::kP2WPKH) {
    if (in.witness.size() == 2 && in.witness[1].kind == WitnessElem::Kind::kConst) {
      const Bytes& pub = in.witness[1].bytes;
      const PrincipalSet s = kb.signers(pub, t);
      out.authorized |= s;
      for (Principal p : kKnowers)
        if (!s.has(p)) blockers[p] = "cannot sign P2WPKH key " + hex8(pub);
    }
  } else if (in.witness_script) {
    const ScriptAnalysis an = analyze_with_witness(*in.witness_script, in.witness);
    const auto secrets = secret_consts(in, kb);
    for (const PathResult& p : an.paths) {
      if (!p.accepting() || !cltv_feasible(p, tm.body)) continue;
      out.authorized |= path_satisfiers(p.guards, secrets, kb, t, &blockers);
    }
  }

  if (!in.intended.empty()) {
    for (Principal p : kKnowers) {
      if (!in.intended.has(p) || out.authorized.has(p)) continue;
      auto it = blockers.find(p);
      if (it == blockers.end()) continue;
      if (!out.blocked.empty()) out.blocked += "; ";
      out.blocked += std::string(principal_name(p)) + ": " + it->second;
    }
  }
  return out;
}

std::string edge_label(const SpendGraph& g, const SpendGraph::Edge& e) {
  return g.tmpl(e.spender).label() + "#in" + std::to_string(e.input);
}

/// Who can put a template on the ledger: holders of its (presigned) first
/// input, the annotated intended set, or — unannotated — either party.
PrincipalSet template_publishers(const TxTemplate& t) {
  if (!t.inputs.empty()) {
    const TemplateInput& in = t.inputs.front();
    if (in.presigned) return in.presigned->holders;
    if (!in.intended.empty()) return in.intended;
  }
  return {Principal::kPartyP, Principal::kPartyQ};
}

}  // namespace

AuthReport analyze_authorization(const SpendGraph& g, const KnowledgeBase& kb,
                                 const AuthParams& prm, Report& rep) {
  const AuthEmitter emit{rep};
  AuthReport out;
  if (!g.templates.empty()) out.engine = g.templates.front().engine;

  // Analysis time: the newest enumerated commit state — everything older is
  // revoked, the latest is not.
  std::int32_t latest = -1;
  for (const TxTemplate& t : g.templates)
    if (t.tag == TemplateTag::kCommit) latest = std::max(latest, t.state);
  out.now = prm.now >= 0 ? prm.now : std::max(latest, 0);

  out.edges.reserve(g.edges.size());
  for (const SpendGraph::Edge& e : g.edges)
    out.edges.push_back(authorize_edge(g, e, kb, out.now));
  out.publishers.reserve(g.templates.size());
  for (const TxTemplate& t : g.templates) out.publishers.push_back(template_publishers(t));

  // DA027 — key-role hygiene: one pubkey, one role; every gate key known.
  for (const auto& [pub, roles] : kb.role_conflicts()) {
    std::string msg = "pubkey " + hex8(pub) + " registered under roles";
    for (const std::string& r : roles) msg += " '" + r + "'";
    emit(LintId::kKeyRoleReuse, out.engine.empty() ? "auth" : out.engine,
         std::move(msg), {});
  }
  {
    std::set<Bytes, BytesLess> seen, reported;
    for (const TxTemplate& t : g.templates) {
      for (std::size_t i = 0; i < t.inputs.size(); ++i) {
        const TemplateInput& in = t.inputs[i];
        std::vector<Bytes> keys;
        if (in.spent.cond.type == tx::Condition::Type::kP2WPKH) {
          if (in.witness.size() == 2 && in.witness[1].kind == WitnessElem::Kind::kConst)
            keys.push_back(in.witness[1].bytes);
        } else if (in.witness_script) {
          const ScriptAnalysis an = analyze_with_witness(*in.witness_script, in.witness);
          for (const PathResult& p : an.paths) {
            if (!p.accepting()) continue;
            for (const SigGate& gate : p.guards.sig_reqs)
              for (const Bytes& k : gate.keys) keys.push_back(k);
          }
        }
        for (const Bytes& k : keys) {
          if (!seen.insert(k).second || kb.key(k) != nullptr) continue;
          if (!reported.insert(k).second) continue;
          emit(LintId::kKeyRoleReuse, t.label() + "#in" + std::to_string(i),
               "gate pubkey " + hex8(k) + " has no knowledge-base registration", {});
        }
      }
    }
  }

  // DA024 / DA028 — per-edge cross-checks against the intended annotation.
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const SpendGraph::Edge& e = g.edges[i];
    if (!e.satisfiable) continue;
    const TxTemplate& tm = g.tmpl(e.spender);
    const TemplateInput& in = tm.inputs[e.input];
    if (in.intended.empty()) continue;
    const AuthEdge& ae = out.edges[i];

    if (tm.tag == TemplateTag::kPunish && !ae.authorized.subset_of(in.intended)) {
      const PrincipalSet extra = ae.authorized.minus(in.intended);
      emit(LintId::kOverAuthorizedPunish, edge_label(g, e),
           "punish path intended for " + in.intended.render() +
               " is also satisfiable by " + extra.render(),
           extra);
    }
    if (!ae.authorized.intersects(in.intended)) {
      std::string msg = "no intended principal " + in.intended.render() +
                        " can satisfy this input at t=" + std::to_string(out.now);
      if (!ae.blocked.empty()) msg += " (" + ae.blocked + ")";
      emit(LintId::kSecretBeforeReveal, edge_label(g, e), std::move(msg), in.intended);
    }
  }

  // DA026 — premature punish: a single principal able to post a punish
  // template against commit state s *before* its revocation event at s+1.
  for (std::size_t ti = 0; ti < g.templates.size(); ++ti) {
    const TxTemplate& pt = g.templates[ti];
    if (pt.tag != TemplateTag::kPunish) continue;
    const auto& pedges = g.template_edges[ti];

    std::set<int> commits;
    for (const int ei : pedges) {
      const int prod = g.outputs[static_cast<std::size_t>(
                                     g.edges[static_cast<std::size_t>(ei)].source)]
                           .producer;
      if (prod >= 0 && g.tmpl(prod).tag == TemplateTag::kCommit) commits.insert(prod);
    }
    for (const int c : commits) {
      const std::int32_t t_eval = g.tmpl(c).state;
      for (Principal p : kKnowers) {
        bool all_inputs = true;
        for (std::size_t i = 0; i < pt.inputs.size() && all_inputs; ++i) {
          std::vector<int> bound, neutral;
          for (const int ei : pedges) {
            const SpendGraph::Edge& e = g.edges[static_cast<std::size_t>(ei)];
            if (e.input != i) continue;
            const int prod =
                g.outputs[static_cast<std::size_t>(e.source)].producer;
            if (prod == c)
              bound.push_back(ei);
            else if (prod < 0 || g.tmpl(prod).tag != TemplateTag::kCommit)
              neutral.push_back(ei);
          }
          const std::vector<int>& pool = bound.empty() ? neutral : bound;
          if (pool.empty()) {
            all_inputs = false;  // input binds only to other commits
            break;
          }
          bool any = false;
          for (const int ei : pool) {
            const AuthEdge ae =
                authorize_edge(g, g.edges[static_cast<std::size_t>(ei)], kb, t_eval);
            if (ae.authorized.has(p)) {
              any = true;
              break;
            }
          }
          all_inputs = any;
        }
        if (all_inputs && !pt.inputs.empty()) {
          emit(LintId::kPrematurePunish, pt.label(),
               std::string(principal_name(p)) + " can post this punish against " +
                   g.tmpl(c).label() + " at t=" + std::to_string(t_eval) +
                   " before its revocation event at t=" + std::to_string(t_eval + 1),
               PrincipalSet{p});
        }
      }
    }
  }

  // DA025 — under-constrained witness: an accepting script path whose only
  // gates are hash comparisons binds no principal (anyone with the preimage
  // spends; DA005 already covers the no-gate-at-all case).
  {
    std::set<std::string> seen;
    for (const TxTemplate& t : g.templates) {
      for (std::size_t i = 0; i < t.inputs.size(); ++i) {
        const TemplateInput& in = t.inputs[i];
        if (!in.witness_script) continue;
        if (!seen.insert(to_hex(in.witness_script->serialize())).second) continue;
        const ScriptAnalysis an = analyze_script(*in.witness_script);
        for (const PathResult& p : an.paths) {
          if (!p.accepting()) continue;
          if (p.guards.sig_reqs.empty() && !p.guards.hash_images.empty()) {
            emit(LintId::kUnderConstrainedWitness,
                 "script " + t.label() + "#in" + std::to_string(i),
                 "accepting path is gated only by hash preimages; no signature "
                 "binds a principal",
                 {}, p.trace());
            break;  // one finding per script is enough
          }
        }
      }
    }
  }

  // DA023 — latest-state audit: every script-mode accepting path of a
  // latest-commit P2WSH output must either be covered by a satisfiable
  // protocol edge or be unsatisfiable by any single principal.
  if (latest >= 0) {
    // Witness scripts by program, so outputs can be analyzed even when their
    // only spender's template witness cannot satisfy the script.
    std::map<Bytes, const script::Script*, BytesLess> by_program;
    for (const TxTemplate& t : g.templates) {
      for (const TemplateInput& in : t.inputs) {
        if (!in.witness_script) continue;
        const Hash256 prog = in.witness_script->wsh_program();
        by_program.emplace(Bytes(prog.view().begin(), prog.view().end()),
                           &*in.witness_script);
      }
    }
    for (std::size_t ti = 0; ti < g.templates.size(); ++ti) {
      const TxTemplate& ct = g.templates[ti];
      if (ct.tag != TemplateTag::kCommit || ct.state != latest) continue;
      for (const int oi : g.produced_by[ti]) {
        const SpendGraph::OutputNode& node = g.outputs[static_cast<std::size_t>(oi)];
        if (node.out.cond.type != tx::Condition::Type::kP2WSH) continue;
        auto sit = by_program.find(node.out.cond.program);
        if (sit == by_program.end()) continue;

        std::set<std::vector<std::pair<std::size_t, bool>>> covered;
        for (const int ei : node.spenders) {
          const SpendGraph::Edge& e = g.edges[static_cast<std::size_t>(ei)];
          if (!e.satisfiable) continue;
          const TemplateInput& sin = g.tmpl(e.spender).inputs[e.input];
          if (!sin.witness_script) continue;
          const ScriptAnalysis an = analyze_with_witness(*sin.witness_script, sin.witness);
          for (const PathResult& p : an.paths) {
            if (p.accepting() && cltv_feasible(p, g.tmpl(e.spender).body))
              covered.insert(p.branches);
          }
        }

        const std::string where =
            ct.label() + ".out" + std::to_string(node.vout);
        const ScriptAnalysis an = analyze_script(*sit->second);
        for (const PathResult& p : an.paths) {
          if (!p.accepting()) continue;
          const bool is_covered = covered.count(p.branches) > 0;
          const PrincipalSet sat =
              path_satisfiers(p.guards, {}, kb, out.now, nullptr);
          out.latest_paths.push_back(
              LatestPath{where, p.trace(), sat, is_covered});
          if (!is_covered && !sat.empty()) {
            emit(LintId::kUnauthorizedSpend, where,
                 "latest-state path not taken by any protocol edge is "
                 "satisfiable by " + sat.render(),
                 sat, p.trace());
          }
        }
      }
    }
  }

  return out;
}

}  // namespace daric::analyze
