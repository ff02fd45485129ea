#include "src/crypto/schnorr.h"

#include <vector>

#include "src/crypto/rfc6979.h"
#include "src/crypto/sha256.h"

namespace daric::crypto {

// The tagged hashes below start from a midstate that already absorbed the
// 64-byte SHA256(tag)||SHA256(tag) prefix; each call copies it.

namespace {

// e = H(R || P || m), over the 33-byte compressed encodings of R and P.
Scalar challenge(BytesView r33, BytesView pk33, const Hash256& msg) {
  static const Sha256 kTagged = Sha256::tagged_init("daric/schnorr");
  Sha256 h = kTagged;
  h.update(r33).update(pk33).update(msg.view());
  return Scalar::from_be_bytes_reduce(h.finalize().view());
}

}  // namespace

Scalar schnorr_challenge(const Point& r, const Point& pk, const Hash256& msg) {
  return challenge(r.compressed(), pk.compressed(), msg);
}

namespace {

Bytes sign_with_nonce(const Scalar& k, const Scalar& sk, const Point& pk, const Hash256& msg) {
  const Point r = Point::mul_gen(k);
  const Scalar e = schnorr_challenge(r, pk, msg);
  const Scalar s = k + e * sk;
  return concat({r.compressed(), s.to_be_bytes()});
}

// The s half of the (R, s) wire form; false on a wrong size or s ≥ n. R
// stays encoded: the checks below hash its 33 bytes and compare them with
// the computed point, and never lift R itself.
bool parse_s(BytesView sig, Scalar& s) {
  if (sig.size() != kSchnorrSigSize) return false;
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (sv >= Scalar::order()) return false;
  s = Scalar::from_u256(sv);
  return true;
}

}  // namespace

Bytes schnorr_sign(const Scalar& sk, const Hash256& msg) {
  static const Byte kDomain[] = {'s', 'c', 'h', 'n', 'o', 'r', 'r'};
  const Scalar k = rfc6979_nonce(sk, msg, {kDomain, sizeof(kDomain)});
  return sign_with_nonce(k, sk, Point::mul_gen(sk), msg);
}

Bytes schnorr_sign(const KeyPair& kp, const Hash256& msg) {
  // BIP340-style synthetic nonce: one tagged hash binding the secret key,
  // the public key and the message. Deterministic; distinct messages give
  // independent nonces. k = 0 has probability ~2^-256 but the scheme must
  // not emit R = infinity, so fall back to the RFC 6979 path if it happens.
  static const Sha256 kTagged = Sha256::tagged_init("daric/schnorr-nonce");
  Sha256 h = kTagged;
  h.update(kp.sk.to_be_bytes()).update(kp.pk.compressed()).update(msg.view());
  const Scalar k = Scalar::from_be_bytes_reduce(h.finalize().view());
  if (k.is_zero()) return schnorr_sign(kp.sk, msg);
  return sign_with_nonce(k, kp.sk, kp.pk, msg);
}

bool schnorr_verify(const Point& pk, const Hash256& msg, BytesView sig) {
  Scalar s(0);
  if (pk.is_infinity() || !parse_s(sig, s)) return false;
  const BytesView r = sig.subspan(0, 33);
  // s·G == R + e·P  ⟺  (−e)·P + s·G encodes as R: one Strauss–Shamir
  // ladder, then R's x compared in Jacobian coordinates and one inversion
  // for the y parity.
  return Point::mul_add_encodes_vartime(challenge(r, pk.compressed(), msg).neg(), pk, s, r);
}

bool schnorr_verify(const PrecomputedPoint& pk, const Hash256& msg, BytesView sig) {
  Scalar s(0);
  if (!parse_s(sig, s)) return false;
  const BytesView r = sig.subspan(0, 33);
  return Point::mul_add_encodes_vartime(challenge(r, pk.point().compressed(), msg).neg(), pk, s,
                                        r);
}

namespace {

// Per-item randomizer: 128 bits from a hash of the whole batch and the item
// index. Synthetic randomness in the BIP340 style — an adversary would have
// to find signatures satisfying the combined equation for coefficients that
// are themselves a hash of those signatures.
Scalar batch_randomizer(const Hash256& seed, std::uint32_t index) {
  static const Sha256 kTagged = Sha256::tagged_init("daric/batch-randomizer");
  const Byte index_be[] = {static_cast<Byte>(index >> 24), static_cast<Byte>(index >> 16),
                           static_cast<Byte>(index >> 8), static_cast<Byte>(index)};
  Sha256 hasher = kTagged;
  hasher.update(seed.view()).update(index_be);
  const Hash256 h = hasher.finalize();
  Bytes half(32, 0);
  std::copy(h.view().begin(), h.view().begin() + 16, half.begin() + 16);
  return Scalar::from_be_bytes_reduce(half);
}

}  // namespace

bool schnorr_verify_batch(std::span<const SigBatchItem> items) {
  if (items.empty()) return true;
  if (items.size() == 1) return schnorr_verify(items[0].pk, items[0].msg, items[0].sig);

  // Each key is encoded once, for the seed and the challenge; every R is
  // lifted in one call.
  Sha256 seed_hash;
  std::vector<Bytes> keys;
  std::vector<BytesView> rs;
  keys.reserve(items.size());
  rs.reserve(items.size());
  for (const SigBatchItem& it : items) {
    if (it.sig.size() != kSchnorrSigSize || it.pk.is_infinity()) return false;
    keys.push_back(it.pk.compressed());
    rs.push_back(BytesView(it.sig).subspan(0, 33));
    seed_hash.update(it.sig).update(keys.back()).update(it.msg.view());
  }
  const Hash256 seed = seed_hash.finalize();
  const std::vector<std::optional<Point>> r_points = Point::from_compressed_batch(rs);

  std::vector<Scalar> coeffs;
  std::vector<Point> points;
  coeffs.reserve(2 * items.size());
  points.reserve(2 * items.size());
  Scalar g_coeff(0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SigBatchItem& it = items[i];
    const std::optional<Point>& r = r_points[i];
    Scalar s(0);
    if (!r || !parse_s(it.sig, s)) return false;
    const Scalar e = challenge(rs[i], keys[i], it.msg);
    const Scalar a = i == 0 ? Scalar(1) : batch_randomizer(seed, static_cast<std::uint32_t>(i));
    g_coeff = g_coeff + a * s;
    // Negate the points, not the coefficients: aᵢ stays 128 bits wide.
    coeffs.push_back(a);
    points.push_back(r->neg());
    coeffs.push_back(a * e);
    points.push_back(it.pk.neg());
  }
  return Point::multi_mul_is_infinity_vartime(coeffs, points, g_coeff);
}

}  // namespace daric::crypto
