// Sighash digests (SIGHASH_ALL / SINGLE / ANYPREVOUT) and witness-program
// verification against a spent output.
//
// ANYPREVOUT digests cover f̃([TX]‾) = (nLT, Output) only, which is what
// makes split and revocation transactions "floating": the same signature
// validates no matter which commit output the transaction is later bound to.
#pragma once

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/crypto/sig_scheme.h"
#include "src/script/interpreter.h"
#include "src/script/standard.h"
#include "src/tx/transaction.h"

namespace daric::tx {

/// Digest signed for `tx`'s input `input_index` under `flag`.
Hash256 sighash_digest(const Transaction& tx, std::size_t input_index,
                       script::SighashFlag flag);

/// Caches the per-flag serialization work shared by every input of one
/// transaction. SIGHASH_ALL-family digests do not depend on the input index,
/// so the complete digest is cached after the first input; SIGHASH_SINGLE
/// digests share their serialized prefix (flag byte, inputs, nLockTime), so
/// a SHA-256 midstate is cached and only the matching output is hashed per
/// input. Not thread-safe — use one cache per validation pass.
///
/// The cache holds a reference to the transaction and does NOT observe
/// mutations: callers that patch the transaction (the per-channel template
/// skeletons do, every update) must call invalidate() before the next
/// digest. Debug builds cross-check every cached digest against a fresh
/// serialization and assert on staleness; release builds trust the caller.
class SighashCache {
 public:
  explicit SighashCache(const Transaction& tx) : tx_(tx) {}

  /// Same contract as sighash_digest, including the std::out_of_range throw
  /// for SIGHASH_SINGLE with no matching output.
  Hash256 digest(std::size_t input_index, script::SighashFlag flag) const;

  /// Drops every cached digest/midstate. Required after any mutation of the
  /// underlying transaction; bumps the generation so mixed-version reuse is
  /// observable.
  void invalidate() {
    entries_.clear();
    ++generation_;
  }

  /// Monotone counter of invalidations — lets a caller that caches derived
  /// state (witnesses, signatures) notice it is out of date.
  std::uint64_t generation() const { return generation_; }

 private:
  struct Entry {
    bool whole = false;       // true: `full` is the digest for every input
    Hash256 full{};
    crypto::Sha256 midstate;  // prefix midstate, used when !whole
  };
  const Transaction& tx_;
  std::uint64_t generation_ = 0;
  mutable std::map<script::SighashFlag, Entry> entries_;
};

/// Signature checks proved valid before the scripts that ask for them run,
/// keyed by the 33-byte key, the digest and the raw signature (without the
/// sighash flag byte). Insert only what a verification accepted.
class ProvenSigs {
 public:
  void insert(const crypto::SigBatchItem& claim);
  bool contains(BytesView pubkey, const Hash256& digest, BytesView sig) const;

 private:
  std::unordered_set<std::string> keys_;
};

/// What TxSigChecker does with a signature check instead of verifying it.
struct SigClaims {
  /// A check in this set answers true without verification.
  const ProvenSigs* proven = nullptr;
  /// When set, nothing is verified: every check with a well-formed key and
  /// signature is appended here as a claim and answers true, so a caller
  /// can prove a whole ledger round's claims in one batch.
  std::vector<crypto::SigBatchItem>* record = nullptr;
};

/// SigChecker bound to one input of a transaction plus chain context.
class TxSigChecker final : public script::SigChecker {
 public:
  TxSigChecker(const Transaction& tx, std::size_t input_index,
               const crypto::SignatureScheme& scheme, Round utxo_age,
               const SighashCache* cache = nullptr, SigClaims claims = {})
      : tx_(tx), input_index_(input_index), scheme_(scheme), utxo_age_(utxo_age),
        cache_(cache), claims_(claims) {}

  bool check_sig(BytesView wire_sig, BytesView pubkey) const override;
  bool check_locktime(std::uint32_t lock) const override;
  bool check_sequence(std::uint32_t age) const override;

 private:
  const Transaction& tx_;
  std::size_t input_index_;
  const crypto::SignatureScheme& scheme_;
  Round utxo_age_;
  const SighashCache* cache_;
  SigClaims claims_;
};

/// Full SegWit-v0 verification of one input against the output it spends.
/// `utxo_age` is the number of rounds since the spent output confirmed.
/// `cache`, when given, must have been built over `tx`. `claims` is passed
/// to the input's TxSigChecker.
script::ScriptError verify_input(const Transaction& tx, std::size_t input_index,
                                 const Output& spent, const crypto::SignatureScheme& scheme,
                                 Round utxo_age, const SighashCache* cache = nullptr,
                                 SigClaims claims = {});

/// Convenience: sign `tx`'s digest under `flag` and wrap as a wire signature.
Bytes sign_input(const Transaction& tx, std::size_t input_index, const crypto::Scalar& sk,
                 const crypto::SignatureScheme& scheme, script::SighashFlag flag);

/// Keypair variant: lets the scheme reuse the cached public key (Schnorr
/// needs P for both nonce and challenge), and reuses `cache`'s digest when
/// one is supplied (it must have been built over `tx` and invalidated after
/// any mutation).
Bytes sign_input(const Transaction& tx, std::size_t input_index, const crypto::KeyPair& kp,
                 const crypto::SignatureScheme& scheme, script::SighashFlag flag,
                 const SighashCache* cache = nullptr);

}  // namespace daric::tx
