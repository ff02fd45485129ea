// Schnorr signatures over secp256k1 (full-point nonce encoding).
//
// A signature is (R, s) with R = k*G, e = H(R || P || m), s = k + e*x.
// Raw encoding: 33-byte compressed R followed by 32-byte big-endian s.
#pragma once

#include "src/crypto/keys.h"
#include "src/crypto/sig_scheme.h"
#include "src/util/bytes.h"

namespace daric::crypto {

inline constexpr std::size_t kSchnorrSigSize = 65;

Bytes schnorr_sign(const Scalar& sk, const Hash256& msg);

/// Keypair variant: reuses the cached public key (schnorr_sign(sk, ...) must
/// recompute P = sk·G just to hash it into the challenge) and derives the
/// nonce with one tagged hash over sk‖P‖m instead of the HMAC-DRBG chain of
/// RFC 6979 — deterministic like the scalar variant but ~10 SHA-256
/// compressions and one generator multiplication cheaper. The two variants
/// produce different (equally valid) signatures for the same message.
Bytes schnorr_sign(const KeyPair& kp, const Hash256& msg);

bool schnorr_verify(const Point& pk, const Hash256& msg, BytesView sig);

/// Verifies against a key with precomputed segment tables (a channel
/// counterparty's fixed key): no per-verify table build, and a 33-doubling
/// chain instead of a 129-doubling one.
bool schnorr_verify(const PrecomputedPoint& pk, const Hash256& msg, BytesView sig);

/// Batch verification via a random linear combination: with per-item
/// randomizers aᵢ (a₀ = 1), all signatures are valid iff
///   (Σ aᵢ·sᵢ)·G − Σ aᵢ·Rᵢ − Σ (aᵢ·eᵢ)·Pᵢ = ∞
/// except with negligible probability. Randomizers are synthetic (derived
/// by hashing the whole batch), so the check is deterministic. One shared
/// multi-scalar ladder makes the per-signature cost well below a single
/// verification's.
bool schnorr_verify_batch(std::span<const SigBatchItem> items);

/// Challenge scalar e = H(R || P || m); exposed for the adaptor variant.
Scalar schnorr_challenge(const Point& r, const Point& pk, const Hash256& msg);

}  // namespace daric::crypto
