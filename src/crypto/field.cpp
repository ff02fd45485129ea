#include "src/crypto/field.h"

#include <stdexcept>

namespace daric::crypto {

Fe Fe::from_u256(const U256& v) {
  if (v >= modulus()) throw std::invalid_argument("Fe out of range");
  return from_raw(v);
}

namespace {

Fe sqr_n(Fe x, int n) {
  for (int i = 0; i < n; ++i) x = x.sqr();
  return x;
}

// Shared 2^k - 1 power ladder for the inversion and square-root addition
// chains. Both exponents ((p-2) and (p+1)/4) are runs of ones separated by
// short zero gaps, so they reuse the same block values x_k = a^(2^k - 1)
// (k in 1,2,3,6,9,11,22,44,88,176,220,223).
struct PowLadder {
  Fe x2, x3, x22, x223;
};

PowLadder build_ladder(const Fe& x) {
  PowLadder l;
  l.x2 = x.sqr() * x;
  l.x3 = l.x2.sqr() * x;
  const Fe x6 = sqr_n(l.x3, 3) * l.x3;
  const Fe x9 = sqr_n(x6, 3) * l.x3;
  const Fe x11 = sqr_n(x9, 2) * l.x2;
  l.x22 = sqr_n(x11, 11) * x11;
  const Fe x44 = sqr_n(l.x22, 22) * l.x22;
  const Fe x88 = sqr_n(x44, 44) * x44;
  const Fe x176 = sqr_n(x88, 88) * x88;
  const Fe x220 = sqr_n(x176, 44) * x44;
  l.x223 = sqr_n(x220, 3) * l.x3;
  return l;
}

}  // namespace

Fe Fe::inv() const {
  // Fermat: a^(p-2). The exponent is 223 ones, a zero, 22 ones, then the low
  // ten bits 0000101101, so the block ladder plus four tail segments
  // evaluates it in 255 squarings + 15 multiplications — roughly half the
  // cost of the generic square-and-multiply in modarith::inv_mod. The
  // operation sequence is fixed (independent of the value), so this stays
  // safe for secret-derived inputs such as nonce-point Z coordinates.
  if (is_zero()) throw std::domain_error("Fe inverse of zero");
  const Fe& x = *this;
  const PowLadder l = build_ladder(x);
  Fe t = sqr_n(l.x223, 23) * l.x22;
  t = sqr_n(t, 5) * x;
  t = sqr_n(t, 3) * l.x2;
  return sqr_n(t, 2) * x;
}

bool Fe::sqrt(Fe& out) const {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4). The exponent's binary expansion
  // is three blocks of ones with lengths {2, 22, 223} separated by zeros, so
  // an addition chain over block values 2^k - 1 evaluates it in 253
  // squarings + 13 multiplications instead of the ~500 operations of a
  // generic square-and-multiply. Hot on the verification path: every
  // compressed-point parse takes a square root.
  const PowLadder l = build_ladder(*this);
  Fe t = sqr_n(l.x223, 23) * l.x22;
  t = sqr_n(t, 6) * l.x2;
  const Fe cand = sqr_n(t, 2);
  if (cand.sqr() == *this) {
    out = cand;
    return true;
  }
  return false;
}

}  // namespace daric::crypto
