#include "src/crypto/field.h"

#include <cstdint>
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

// --- Bernstein–Yang divsteps inversion ----------------------------------------
//
// "Fast constant-time gcd computation and modular inversion" (2019), in the
// form libsecp256k1 adopted: values are five signed 62-bit limbs
// (Σ v[i]·2^(62·i), limbs 0..3 in [0, 2^62), the top limb signed). Starting
// from f = p, g = x, d = 0, e = 1, each batch of 59 divsteps is computed on
// the low 64 bits of f and g alone, as a 2×2 transition matrix scaled by
// 2^62, which then updates the full-width f, g (exactly divisible by 2^62)
// and d, e (made divisible by adding a multiple of p). Ten batches (590
// divsteps) bring g to 0 for every 256-bit input, leaving f = ±1 and
// d = ±x⁻¹ (mod p). The batch count and every step inside a batch are fixed,
// and each conditional is a mask, so the running time does not depend on x:
// the same inverse serves public Z coordinates and secret-derived ones.

struct Signed62 {
  std::int64_t v[5];
};

struct Trans2x2 {
  std::int64_t u, v, q, r;
};

constexpr std::uint64_t kM62 = ~std::uint64_t{0} >> 2;
// p = 2^256 - 0x1000003d1 in signed-62 limbs, and p⁻¹ mod 2^62.
constexpr Signed62 kModulus62{{-0x1000003d1LL, 0, 0, 0, 256}};
constexpr std::uint64_t kModulusInv62 = 0x27c7f6e22ddacacfULL;

using i128 = __int128;

// 59 divsteps on the low bits of f (odd) and g. zeta = -(delta + 1/2) of the
// paper's divstep; the matrix starts at 8·I so that it ends scaled by 2^62.
// u, v, q, r stay within [-2^62, 2^62] and are carried as unsigned words so
// that the left shifts are defined.
std::int64_t divsteps_59(std::int64_t zeta, std::uint64_t f0, std::uint64_t g0, Trans2x2& t) {
  std::uint64_t u = 8, v = 0, q = 0, r = 8;
  std::uint64_t f = f0, g = g0;
  for (int i = 3; i < 62; ++i) {
    // c1: zeta < 0 (all ones or zero); c2: g is odd.
    const std::uint64_t c1 = static_cast<std::uint64_t>(zeta >> 63);
    const std::uint64_t c2 = -(g & 1);
    // x, y, z = f, u, v, negated when zeta < 0; added to g, q, r when g is odd.
    const std::uint64_t x = (f ^ c1) - c1;
    const std::uint64_t y = (u ^ c1) - c1;
    const std::uint64_t z = (v ^ c1) - c1;
    g += x & c2;
    q += y & c2;
    r += z & c2;
    // Both conditions: swap roles (f += the new g, zeta = -zeta - 2);
    // otherwise zeta = zeta - 1.
    const std::uint64_t c = c1 & c2;
    zeta = (zeta ^ static_cast<std::int64_t>(c)) - 1;
    f += g & c;
    u += q & c;
    v += r & c;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v), static_cast<std::int64_t>(q),
       static_cast<std::int64_t>(r)};
  return zeta;
}

// [d, e] = t·[d, e] / 2^62 (mod p), with inputs and outputs in (-2p, p):
// before the division, md·p and me·p are added so that the low 62 bits
// vanish; the sign corrections (u or v when d < 0, q or r when e < 0) keep
// the result in range.
void update_de(Signed62& d, Signed62& e, const Trans2x2& t) {
  const std::int64_t d0 = d.v[0], d1 = d.v[1], d2 = d.v[2], d3 = d.v[3], d4 = d.v[4];
  const std::int64_t e0 = e.v[0], e1 = e.v[1], e2 = e.v[2], e3 = e.v[3], e4 = e.v[4];
  const std::int64_t sd = d4 >> 63, se = e4 >> 63;
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d0 + static_cast<i128>(t.v) * e0;
  i128 ce = static_cast<i128>(t.q) * d0 + static_cast<i128>(t.r) * e0;
  md -= static_cast<std::int64_t>((kModulusInv62 * static_cast<std::uint64_t>(cd) +
                                   static_cast<std::uint64_t>(md)) & kM62);
  me -= static_cast<std::int64_t>((kModulusInv62 * static_cast<std::uint64_t>(ce) +
                                   static_cast<std::uint64_t>(me)) & kM62);
  cd += static_cast<i128>(kModulus62.v[0]) * md;
  ce += static_cast<i128>(kModulus62.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  // Limbs 1 to 3 of p are zero, so only limb 4 adds md, me again.
  cd += static_cast<i128>(t.u) * d1 + static_cast<i128>(t.v) * e1;
  ce += static_cast<i128>(t.q) * d1 + static_cast<i128>(t.r) * e1;
  d.v[0] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
  e.v[0] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<i128>(t.u) * d2 + static_cast<i128>(t.v) * e2;
  ce += static_cast<i128>(t.q) * d2 + static_cast<i128>(t.r) * e2;
  d.v[1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
  e.v[1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<i128>(t.u) * d3 + static_cast<i128>(t.v) * e3;
  ce += static_cast<i128>(t.q) * d3 + static_cast<i128>(t.r) * e3;
  d.v[2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
  e.v[2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
  cd >>= 62;
  ce >>= 62;
  cd += static_cast<i128>(t.u) * d4 + static_cast<i128>(t.v) * e4 +
        static_cast<i128>(kModulus62.v[4]) * md;
  ce += static_cast<i128>(t.q) * d4 + static_cast<i128>(t.r) * e4 +
        static_cast<i128>(kModulus62.v[4]) * me;
  d.v[3] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
  e.v[3] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
  cd >>= 62;
  ce >>= 62;
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// [f, g] = t·[f, g] / 2^62; the division is exact by construction of t.
void update_fg(Signed62& f, Signed62& g, const Trans2x2& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kM62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<std::int64_t>(cf);
  g.v[4] = static_cast<std::int64_t>(cg);
}

// Limb carries bringing every limb but the top back into [0, 2^62).
void propagate62(std::int64_t (&r)[5]) {
  for (int i = 0; i < 4; ++i) {
    r[i + 1] += r[i] >> 62;
    r[i] &= static_cast<std::int64_t>(kM62);
  }
}

// d in (-2p, p), negated when `sign` (f's top limb) is negative, brought to
// [0, p) with two masked additions of p.
void normalize62(Signed62& d, std::int64_t sign) {
  std::int64_t(&r)[5] = d.v;
  std::int64_t add = r[4] >> 63;
  for (int i = 0; i < 5; ++i) r[i] += kModulus62.v[i] & add;
  const std::int64_t neg = sign >> 63;
  for (int i = 0; i < 5; ++i) r[i] = (r[i] ^ neg) - neg;
  propagate62(r);
  add = r[4] >> 63;
  for (int i = 0; i < 5; ++i) r[i] += kModulus62.v[i] & add;
  propagate62(r);
}

}  // namespace

Fe Fe::inv() const {
  if (is_zero()) throw std::domain_error("Fe inverse of zero");
  const Limbs a = normalized().n_;
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = kModulus62;
  Signed62 g{{static_cast<std::int64_t>((a[0] | a[1] << 52) & kM62),
              static_cast<std::int64_t>((a[1] >> 10 | a[2] << 42) & kM62),
              static_cast<std::int64_t>((a[2] >> 20 | a[3] << 32) & kM62),
              static_cast<std::int64_t>((a[3] >> 30 | a[4] << 22) & kM62),
              static_cast<std::int64_t>(a[4] >> 40)}};
  std::int64_t zeta = -1;  // delta = 1/2
  for (int i = 0; i < 10; ++i) {
    Trans2x2 t;
    zeta = divsteps_59(zeta, static_cast<std::uint64_t>(f.v[0]),
                       static_cast<std::uint64_t>(g.v[0]), t);
    update_de(d, e, t);
    update_fg(f, g, t);
  }
  normalize62(d, f.v[4]);
  std::uint64_t r[5];
  for (int i = 0; i < 5; ++i) r[i] = static_cast<std::uint64_t>(d.v[i]);
  Fe out;
  out.n_ = {r[0] & kM52, (r[0] >> 52 | r[1] << 10) & kM52, (r[1] >> 42 | r[2] << 20) & kM52,
            (r[2] >> 32 | r[3] << 30) & kM52, r[3] >> 22 | r[4] << 40};
  return out;
}

Fe Fe::sqrt_candidate() const {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4). The exponent's binary expansion
  // is three blocks of ones with lengths {2, 22, 223} separated by zeros, so
  // an addition chain over block values x_k = a^(2^k - 1)
  // (k in 1,2,3,6,9,11,22,44,88,176,220,223) evaluates it in 253 squarings
  // + 13 multiplications instead of the ~500 operations of a generic
  // square-and-multiply. Every compressed-point parse takes a square root;
  // the IFMA lanes (field_lanes.cpp) run the same chain.
  const Fe& x = *this;
  const Fe x2 = x.sqr() * x;
  const Fe x3 = x2.sqr() * x;
  const Fe x6 = sqr_n(x3, 3) * x3;
  const Fe x9 = sqr_n(x6, 3) * x3;
  const Fe x11 = sqr_n(x9, 2) * x2;
  const Fe x22 = sqr_n(x11, 11) * x11;
  const Fe x44 = sqr_n(x22, 22) * x22;
  const Fe x88 = sqr_n(x44, 44) * x44;
  const Fe x176 = sqr_n(x88, 88) * x88;
  const Fe x220 = sqr_n(x176, 44) * x44;
  const Fe x223 = sqr_n(x220, 3) * x3;
  Fe t = sqr_n(x223, 23) * x22;
  t = sqr_n(t, 6) * x2;
  return sqr_n(t, 2);
}

bool Fe::sqrt(Fe& out) const {
  const Fe cand = sqrt_candidate();
  if (cand.sqr() == *this) {
    out = cand;
    return true;
  }
  return false;
}

}  // namespace daric::crypto
