// Abstract value domain of the symbolic stack machine.
//
// The analyzer tracks just enough structure to decide the properties the
// lints need: constants stay concrete (so hash-locks and branch selectors
// evaluate exactly), witness elements stay opaque, and the results of
// signature checks / hash-preimage comparisons are distinguished values so
// a path's acceptance condition can be classified as "gated" or
// anyone-can-spend.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/script/standard.h"
#include "src/util/bytes.h"

namespace daric::analyze {

enum class Truth : std::uint8_t { kTrue, kFalse, kUnknown };

/// Protocol principals for the authorization analysis (auth.h). kPartyP and
/// kPartyQ are the channel parties ("A" and "B" in the engine enumerators),
/// kTower the watchtower. kAnyone is the empty-knowledge spender — it can
/// only take paths with no gate at all. kAdversary is a *classification*,
/// not a knowledge holder: a finding is adversarial when a principal can
/// satisfy a path the protocol never intended for it.
enum class Principal : std::uint8_t { kPartyP, kPartyQ, kTower, kAdversary, kAnyone };

const char* principal_name(Principal p);

/// Small fixed bitset over Principal.
class PrincipalSet {
 public:
  constexpr PrincipalSet() = default;
  constexpr PrincipalSet(std::initializer_list<Principal> ps) {
    for (Principal p : ps) bits_ |= bit(p);
  }

  void add(Principal p) { bits_ |= bit(p); }
  void remove(Principal p) { bits_ &= static_cast<std::uint8_t>(~bit(p)); }
  bool has(Principal p) const { return (bits_ & bit(p)) != 0; }
  bool empty() const { return bits_ == 0; }
  std::size_t size() const;

  bool subset_of(const PrincipalSet& o) const { return (bits_ & ~o.bits_) == 0; }
  bool intersects(const PrincipalSet& o) const { return (bits_ & o.bits_) != 0; }
  PrincipalSet minus(const PrincipalSet& o) const {
    PrincipalSet r;
    r.bits_ = bits_ & static_cast<std::uint8_t>(~o.bits_);
    return r;
  }

  PrincipalSet& operator|=(const PrincipalSet& o) {
    bits_ |= o.bits_;
    return *this;
  }

  bool operator==(const PrincipalSet& o) const { return bits_ == o.bits_; }
  bool operator!=(const PrincipalSet& o) const { return bits_ != o.bits_; }

  /// "{P,Q,Tower}" — stable order, "{}" when empty.
  std::string render() const;

 private:
  static constexpr std::uint8_t bit(Principal p) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(p));
  }
  std::uint8_t bits_ = 0;
};

/// A fully-signed transaction exchanged off-chain: whoever holds it can post
/// the input's complete witness without producing any signature themselves.
/// `from_time` is the state index at which the exchange happens (state j is
/// created at time j; its revocation material moves at time j+1).
struct Presign {
  PrincipalSet holders;
  std::int32_t from_time = 0;
};

struct AbsVal {
  enum class Kind : std::uint8_t {
    kConst,      // concrete byte string; truthiness and hashes computable
    kWitness,    // opaque witness element (attacker-chosen)
    kSig,        // witness element declared to be a signature (flag known)
    kHash,       // hash of a witness-derived value
    kSigResult,  // boolean produced by CHECKSIG/CHECKMULTISIG on witness sigs
    kHashEq,     // boolean produced by EQUAL over a kHash and other data
    kOpaque,     // any other symbolic value
  };

  Kind kind = Kind::kOpaque;
  Bytes bytes;                 // kConst payload; kHashEq: the constant hash image compared
  int witness_index = -1;      // kWitness / kSig: origin slot in the witness stack
  script::SighashFlag flag = script::SighashFlag::kAll;  // kSig only
  // kSigResult only: the constant pubkeys the check was made against and the
  // signature threshold (1 for CHECKSIG, k for k-of-n CHECKMULTISIG). When a
  // key operand was not a constant, `opaque_keys` is set and `keys` may be
  // incomplete — the authorization analysis then treats the gate as
  // unsatisfiable-by-knowledge.
  std::vector<Bytes> keys;
  int threshold = 0;
  bool opaque_keys = false;

  Truth truth() const;
  bool is_const() const { return kind == Kind::kConst; }

  static AbsVal constant(Bytes b);
  static AbsVal witness(int index);
  static AbsVal sig(int index, script::SighashFlag f);
  static AbsVal of_kind(Kind k);
};

/// One signature check that must pass on a path: `threshold` signatures under
/// keys drawn from `keys`. `opaque` marks a gate whose key material was not a
/// script constant — no principal can be proven able to satisfy it.
struct SigGate {
  std::vector<Bytes> keys;
  int threshold = 1;
  bool opaque = false;
};

/// Conditions a single execution path imposes on the spender and the
/// spending transaction.
struct PathGuards {
  int sig_gates = 0;     // signature checks that must pass on this path
  int hash_gates = 0;    // hash-preimage equalities that must hold
  std::vector<std::uint32_t> cltv;  // CLTV demands on the spending tx's nLockTime
  std::vector<std::uint32_t> csv;   // CSV demands on the spent output's age
  bool symbolic_timelock = false;   // a CLTV/CSV operand was not a constant
  bool symbolic_multisig = false;   // a CHECKMULTISIG arity was not a constant
  std::vector<SigGate> sig_reqs;    // key material behind each sig gate
  std::vector<Bytes> hash_images;   // constant image behind each hash gate
};

/// Abstract shape of one witness-stack element in a transaction template.
struct WitnessElem {
  enum class Kind : std::uint8_t {
    kConst,   // fixed bytes (branch selectors, pubkeys, preimages)
    kSig,     // a signature carrying `flag`
    kOpaque,  // attacker- or runtime-chosen bytes
  };

  Kind kind = Kind::kConst;
  Bytes bytes;  // kConst payload
  script::SighashFlag flag = script::SighashFlag::kAll;  // kSig only

  static WitnessElem empty() { return {Kind::kConst, {}, script::SighashFlag::kAll}; }
  static WitnessElem constant(BytesView b) {
    return {Kind::kConst, Bytes(b.begin(), b.end()), script::SighashFlag::kAll};
  }
  static WitnessElem sig(script::SighashFlag f) { return {Kind::kSig, {}, f}; }
  static WitnessElem opaque() { return {Kind::kOpaque, {}, script::SighashFlag::kAll}; }
};

}  // namespace daric::analyze
