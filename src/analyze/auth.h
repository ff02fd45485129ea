// Knowledge-based witness satisfiability: who can spend every path.
//
// The structural lints (DA001–DA017) prove that a template's witness shape
// can satisfy its script; the reachability pass (DA018–DA022) proves the
// punish edges exist and win their races. This pass answers the remaining
// question Theorem 1 is really about: *which principal* can construct a
// satisfying witness, and when.
//
// The model is a time-indexed knowledge base. Time is measured in channel
// state indexes: state j is created at time j, and the revocation-class
// secrets of state j (revocation keys/preimages, publishing y-keys,
// presigned revocation transactions) move to the counterparty at time j+1
// — the revocation event of the update that replaces state j. The analysis
// time defaults to n, the newest commit state the engine enumerates, i.e.
// "all older states are revoked, the latest is not".
//
// A principal R can spend an edge at time t iff
//   - a presigned transaction covering the whole witness exists, R holds
//     it, and t has reached its exchange time; or
//   - R can satisfy every gate on some accepting path from knowledge: for
//     each k-of-n signature gate, R can sign under at least k of the
//     gate's constant pubkeys; for each hash gate, R knows the preimage of
//     the required image; and R knows every secret constant the template
//     witness carries (branch selectors are public, registered preimages
//     are not).
//
// Documented simplification: secrets an adversary extracts from a
// *publication* (the y-keys of generalized/FPPW adaptor signatures) are
// folded into the revocation event of the same state — they become
// counterparty-knowable at time j+1 like revocation secrets, rather than
// at an unmodeled publication instant.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analyze/graph.h"
#include "src/analyze/report.h"

namespace daric::analyze {

/// Orders byte strings as std::less<Bytes> does (unsigned bytes, a proper
/// prefix first) with one memcmp: libstdc++ 12's three-way vector compare
/// behind std::less makes -O3 warn (-Wstringop-overread) wherever a map or
/// set is keyed by Bytes.
struct BytesLess {
  bool operator()(const Bytes& x, const Bytes& y) const {
    const std::size_t n = std::min(x.size(), y.size());
    const int c = n == 0 ? 0 : std::memcmp(x.data(), y.data(), n);
    return c != 0 ? c < 0 : x.size() < y.size();
  }
};

/// A signing key: who holds the secret key from the start, and who learns
/// it later (revocation-class keys). `role` names the protocol function
/// ("funding", "revocation", ...); one pubkey must serve exactly one role.
struct KeyFact {
  Bytes pub;
  std::string role;
  PrincipalSet holders;             // can sign from the start
  PrincipalSet reveal_to;           // additionally learn the key ...
  std::int32_t reveal_time = -1;    // ... at this time (-1 = never)
};

/// A hash preimage: the image scripts compare against, the preimage bytes
/// templates may carry as witness constants, and who knows it when.
struct PreimageFact {
  Bytes image;
  Bytes preimage;
  std::string role;
  PrincipalSet holders;
  PrincipalSet reveal_to;
  std::int32_t reveal_time = -1;
};

/// Registry of every secret the engines' templates depend on. Engines fill
/// it during `enumerate_templates`; registration is idempotent per pubkey —
/// re-registering a pubkey under a *different* role records a role conflict
/// (DA027) instead of overwriting.
class KnowledgeBase {
 public:
  void add_key(Bytes pub, std::string role, PrincipalSet holders,
               PrincipalSet reveal_to = {}, std::int32_t reveal_time = -1);
  void add_preimage(Bytes image, Bytes preimage, std::string role,
                    PrincipalSet holders, PrincipalSet reveal_to = {},
                    std::int32_t reveal_time = -1);

  const KeyFact* key(const Bytes& pub) const;
  const PreimageFact* by_image(const Bytes& image) const;
  const PreimageFact* by_preimage(const Bytes& preimage) const;

  const std::vector<KeyFact>& keys() const { return keys_; }

  /// Pubkeys registered under two distinct roles, with both role names.
  const std::vector<std::pair<Bytes, std::vector<std::string>>>& role_conflicts()
      const {
    return conflicts_;
  }

  /// Principals able to sign under `pub` at time `t`; empty for unknown keys.
  PrincipalSet signers(const Bytes& pub, std::int32_t t) const;
  /// Principals knowing the preimage of `image` at time `t`.
  PrincipalSet preimage_holders(const Bytes& image, std::int32_t t) const;

 private:
  std::vector<KeyFact> keys_;
  std::vector<PreimageFact> preimages_;
  std::map<Bytes, std::size_t, BytesLess> key_index_;
  std::map<Bytes, std::size_t, BytesLess> image_index_;
  std::map<Bytes, std::size_t, BytesLess> preimage_index_;
  std::vector<std::pair<Bytes, std::vector<std::string>>> conflicts_;
};

struct AuthParams {
  Round delta = 1;
  Round t_punish = 3;
  /// Analysis time; -1 derives "latest state" = max kCommit state in the set.
  std::int32_t now = -1;
};

/// Per-edge authorization verdict, parallel to SpendGraph::edges.
struct AuthEdge {
  PrincipalSet authorized;  // principals able to build a witness at `now`
  std::string blocked;      // why the intended set falls short ("" if it doesn't)
};

/// Audit row for one script-mode accepting path of a latest-state commit
/// output (the DA023 universe): which principals could take it, and whether
/// a protocol edge already covers it.
struct LatestPath {
  std::string where;       // "engine/commit[A,n].out0"
  std::string trace;       // branch-decision vector of the path
  PrincipalSet principals; // knowledge-only satisfiers at `now`
  bool covered = false;    // a satisfiable protocol edge takes the same path
};

struct AuthReport {
  std::string engine;
  std::int32_t now = 0;
  std::vector<AuthEdge> edges;           // parallel to SpendGraph::edges
  std::vector<PrincipalSet> publishers;  // parallel to SpendGraph::templates
  std::vector<LatestPath> latest_paths;
};

/// Runs the authorization analysis over a (single-engine) spend graph and
/// emits DA023–DA028 into `rep`. The returned report also feeds the race
/// model (reach.h): races are resolved only among principals who can
/// actually sign the rival edge.
AuthReport analyze_authorization(const SpendGraph& g, const KnowledgeBase& kb,
                                 const AuthParams& prm, Report& rep);

}  // namespace daric::analyze
