// Signature-scheme abstraction.
//
// Daric's protocol (Sec. 8: "Compatibility with any digital signature
// scheme") only needs (Gen, Sign, Vrfy). Building the engines against this
// interface — and instantiating tests with both Schnorr and ECDSA — turns
// that compatibility claim into an executable property. The Generalized
// baseline additionally requires adaptor support and therefore refuses
// schemes without it.
#pragma once

#include <atomic>
#include <span>
#include <string>

#include "src/crypto/keys.h"

namespace daric::crypto {

/// One (public key, message, raw signature) item of a batch verification.
struct SigBatchItem {
  Point pk;
  Hash256 msg;
  Bytes sig;
};

class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  virtual std::string name() const = 0;
  virtual std::size_t signature_size() const = 0;
  virtual Bytes sign(const Scalar& sk, const Hash256& msg) const = 0;
  virtual bool verify(const Point& pk, const Hash256& msg, BytesView sig) const = 0;
  /// Signing with the whole keypair: schemes whose Sign needs the public key
  /// (Schnorr hashes P into both nonce and challenge) override this to avoid
  /// recomputing P = sk·G per signature. Semantically identical to
  /// sign(kp.sk, msg) — any valid signature for the key — though the exact
  /// bytes may differ. The default forwards to sign().
  virtual Bytes sign_with(const KeyPair& kp, const Hash256& msg) const;
  /// Verification against a per-key precomputed table; the default ignores
  /// the table and forwards to verify(pre.point(), ...).
  virtual bool verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                             BytesView sig) const;
  /// Whether Schnorr-style adaptor signatures exist for this scheme.
  virtual bool supports_adaptor() const = 0;

  /// Whether verify_batch is cheaper than one verify per item.
  virtual bool supports_batch_verify() const { return false; }
  /// Verifies every item; the default checks them one by one. A true result
  /// means all signatures are valid; schemes with real batching (Schnorr's
  /// random-linear-combination check) amortize the ladder across items.
  virtual bool verify_batch(std::span<const SigBatchItem> items) const;
};

/// Process-wide singletons.
const SignatureScheme& schnorr_scheme();
const SignatureScheme& ecdsa_scheme();

/// Counts Sign/Vrfy invocations; used to reproduce Table 3's op counts.
struct OpCounters {
  std::atomic<std::uint64_t> signs{0};
  std::atomic<std::uint64_t> verifies{0};
  std::atomic<std::uint64_t> exps{0};  // standalone group exponentiations

  void reset() {
    signs = 0;
    verifies = 0;
    exps = 0;
  }
};

/// Global counter hook; a scheme wrapper increments it on every operation.
OpCounters& op_counters();

/// Wraps another scheme and counts operations through the global counters.
class CountingScheme : public SignatureScheme {
 public:
  explicit CountingScheme(const SignatureScheme& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override;
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override;
  Bytes sign_with(const KeyPair& kp, const Hash256& msg) const override;
  bool verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                     BytesView sig) const override;
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return inner_.supports_batch_verify(); }
  /// Counts one Vrfy per item (batching is an implementation detail; the
  /// paper's Table-3 op counts are per-signature).
  bool verify_batch(std::span<const SigBatchItem> items) const override;

 private:
  const SignatureScheme& inner_;
};

}  // namespace daric::crypto
