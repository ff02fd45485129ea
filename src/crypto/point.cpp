#include "src/crypto/point.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace daric::crypto {

namespace {

// Internal Jacobian representation: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jac {
  Fe x{}, y{}, z{};
  bool infinity = true;
};

// Affine point, possibly expressed in an isomorphic frame (see the
// effective-affine table builder below).
struct AffGe {
  Fe x{}, y{};
};

// Entry of a long-lived table (mul_gen's windows, the generator wNAF tables,
// PrecomputedPoint): a true-affine point in canonical 4x64 limbs, unpacked on
// lookup. 64 B instead of AffGe's 80 B keeps the per-peer-key tables at the
// size they had before the field moved to 5x52 limbs.
struct PackedGe {
  U256 x{}, y{};
};

PackedGe pack(const AffGe& a) { return {a.x.raw(), a.y.raw()}; }
AffGe unpack(const PackedGe& e) { return {Fe::from_raw(e.x), Fe::from_raw(e.y)}; }
const AffGe& unpack(const AffGe& e) { return e; }

Jac to_jac(const Point& p) {
  if (p.is_infinity()) return {};
  return {p.x(), p.y(), Fe(1), false};
}

Jac jac_dbl(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  // 3M + 4S; the small-constant scalings (3·, 4·, 8·) are additions, not
  // full field multiplications.
  const Fe y2 = p.y.sqr();
  const Fe xy2 = p.x * y2;
  const Fe t = xy2 + xy2;
  const Fe s = t + t;  // 4·x·y²
  const Fe x2 = p.x.sqr();
  const Fe m = x2 + x2 + x2;  // 3·x² (a = 0 term)
  const Fe xr = m.sqr() - (s + s);
  const Fe y4 = y2.sqr();
  Fe y8 = y4 + y4;
  y8 = y8 + y8;
  y8 = y8 + y8;  // 8·y⁴
  const Fe yr = m * (s - xr) - y8;
  const Fe zr = (p.y + p.y) * p.z;
  return {xr, yr, zr, false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Fe z1z1 = p.z.sqr();
  const Fe z2z2 = q.z.sqr();
  const Fe u1 = p.x * z2z2;
  const Fe u2 = q.x * z1z1;
  const Fe s1 = p.y * z2z2 * q.z;
  const Fe s2 = q.y * z1z1 * p.z;
  if (u1 == u2) {
    if (s1 == s2) return jac_dbl(p);
    return {};  // p == -q
  }
  const Fe h = u2 - u1;
  const Fe hh = h.sqr();
  const Fe hhh = h * hh;
  const Fe r = s2 - s1;
  const Fe v = u1 * hh;
  const Fe xr = r.sqr() - hhh - (v + v);
  const Fe yr = r * (v - xr) - s1 * hhh;
  const Fe zr = p.z * q.z * h;
  return {xr, yr, zr, false};
}

// Mixed addition p + q with q affine (8M + 3S instead of 12M + 4S). When
// `zr` is non-null it receives the ratio new_z / old_z (used by the
// effective-affine table builder); p must not be infinity in that case.
Jac jac_add_aff(const Jac& p, const AffGe& q, Fe* zr = nullptr) {
  if (p.infinity) return {q.x, q.y, Fe(1), false};
  const Fe z1z1 = p.z.sqr();
  const Fe u2 = q.x * z1z1;
  const Fe s2 = q.y * z1z1 * p.z;
  if (p.x == u2) {
    if (p.y == s2) return jac_dbl(p);
    return {};  // p == -q
  }
  const Fe h = u2 - p.x;
  const Fe hh = h.sqr();
  const Fe hhh = h * hh;
  const Fe v = p.x * hh;
  const Fe r = s2 - p.y;
  const Fe xr = r.sqr() - hhh - (v + v);
  const Fe yr = r * (v - xr) - p.y * hhh;
  if (zr) *zr = h;
  return {xr, yr, p.z * h, false};
}

Point from_jac(const Jac& p) {
  if (p.infinity) return Point();
  const Fe zi = p.z.inv();
  const Fe zi2 = zi.sqr();
  return Point::from_affine(p.x * zi2, p.y * zi2 * zi);
}

bool on_curve(const Fe& x, const Fe& y) { return y.sqr() == x.sqr() * x + Fe(7); }

// vartime: begin (verification-side scalar-multiplication machinery; every
// scalar reaching this code is public — signature s values, challenge
// hashes, batch randomizers — so data-dependent timing leaks nothing)

// --- wNAF ------------------------------------------------------------------

// Width-w NAF digit capacity: 256 bits plus one possible carry digit. The
// GLV/generator half-scalars only need ~130 digits, but sizing every buffer
// for the worst case keeps the code uniform (stack space is cheap).
constexpr int kMaxNafLen = 257;

// Window sizes: 5 for variable points (8-entry table built per call), 7 for
// precomputed points (32-entry table built once, amortized over many
// verifies), 11 for the generator halves (512-entry tables built once per
// process). A width-w NAF has odd digits |d| <= 2^(w-1) - 1, so a table
// holds 2^(w-2) entries.
constexpr unsigned kWnafWindowP = 5;
constexpr unsigned kWnafWindowPre = 7;
constexpr unsigned kWnafWindowG = 11;
constexpr int kTableSizeP = 1 << (kWnafWindowP - 2);    // odd multiples 1..15
constexpr int kTableSizePre = 1 << (kWnafWindowPre - 2);  // odd multiples 1..63
constexpr int kTableSizeG = 1 << (kWnafWindowG - 2);    // odd multiples 1..1023

// Computes the width-w NAF of k: k = Σ naf[i]·2^i with every nonzero digit
// odd and |digit| < 2^(w-1), at most one nonzero in any w consecutive
// positions. Returns the digit count.
int wnaf(std::int16_t* naf, U256 k, unsigned w) {
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  int len = 0;
  while (!k.is_zero()) {
    std::int64_t d = 0;
    if (k.is_odd()) {
      d = static_cast<std::int64_t>(k.limb[0] & mask);
      if (d > std::int64_t{1} << (w - 1)) d -= std::int64_t{1} << w;
      if (d >= 0)
        sub_with_borrow(k, U256(static_cast<std::uint64_t>(d)), k);
      else
        add_with_carry(k, U256(static_cast<std::uint64_t>(-d)), k);
    }
    naf[len++] = static_cast<std::int16_t>(d);
    k = shr(k, 1);
  }
  return len;
}

// Table lookup for wNAF digit d (odd, nonzero): entry (|d|-1)/2, negated
// for negative digits. Tables hold AffGe (built per call) or PackedGe.
template <typename Entry>
AffGe wnaf_lookup(const Entry* table, int digit) {
  AffGe g = unpack(table[(digit > 0 ? digit : -digit) >> 1]);
  if (digit < 0) g.y = g.y.neg();
  return g;
}

// --- GLV endomorphism -------------------------------------------------------

// secp256k1 has an efficient endomorphism phi(x, y) = (beta·x, y) acting as
// multiplication by lambda (lambda³ = 1 mod n, beta³ = 1 mod p). Splitting a
// 256-bit scalar k into k = k1 + k2·lambda with |k1|, |k2| ~ 2^128 halves
// the shared doubling chain: k·P = k1·P + k2·phi(P), and phi(P)'s table is a
// one-multiplication-per-entry transform of P's table.

const Fe& glv_beta() {
  static const Fe beta = Fe::from_u256(U256::from_hex(
      "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
  return beta;
}

struct GlvSplit {
  U256 k1{}, k2{};       // magnitudes, < ~2^128
  bool neg1 = false, neg2 = false;  // signs of the k1·P / k2·phi(P) terms
};

// round((k·g) / 2^shift) for 256 < shift < 512: the product's bits from
// `shift` up, plus the rounding bit just below the cut.
U256 mul_shift_var(const U256& k, const U256& g, unsigned shift) {
  const U512 prod = mul_full(k, g);
  const unsigned l = shift / 64;
  const unsigned s = shift % 64;
  U256 r;
  for (unsigned i = 0; i < 4 && i + l < 8; ++i) {
    std::uint64_t v = prod.limb[i + l] >> s;
    if (s != 0 && i + l + 1 < 8) v |= prod.limb[i + l + 1] << (64 - s);
    r.limb[i] = v;
  }
  if (prod.limb[(shift - 1) / 64] >> ((shift - 1) % 64) & 1) {
    U256 t;
    add_with_carry(r, U256(1), t);
    r = t;
  }
  return r;
}

// Lattice-basis scalar decomposition (the constants are the standard secp256k1
// values: (a1, b1), (a2, b2) span the lattice of pairs with a + b·lambda = 0
// mod n, and g1, g2 are the precomputed rounded quotients 2^272·b2/n and
// 2^272·(-b1)/n for Babai rounding at shift 272).
GlvSplit glv_split(const Scalar& k) {
  static const U256 g1 = U256::from_hex("3086d221a7d46bcde86c90e49284eb153dab");
  static const U256 g2 = U256::from_hex("e4437ed6010e88286f547fa90abfe4c42212");
  static const Scalar minus_b1 =
      Scalar::from_u256(U256::from_hex("e4437ed6010e88286f547fa90abfe4c3"));
  static const Scalar minus_b2 = Scalar::from_u256(U256::from_hex(
      "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"));
  static const Scalar lambda = Scalar::from_u256(U256::from_hex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"));
  const Scalar c1 = Scalar::from_u256(mul_shift_var(k.raw(), g1, 272)) * minus_b1;
  const Scalar c2 = Scalar::from_u256(mul_shift_var(k.raw(), g2, 272)) * minus_b2;
  const Scalar r2 = c1 + c2;
  const Scalar r1 = k - r2 * lambda;  // k = r1 + r2·lambda (mod n) by construction
  const U256 half_n = shr(Scalar::order(), 1);
  GlvSplit out;
  out.neg1 = r1.raw() > half_n;
  out.k1 = out.neg1 ? r1.neg().raw() : r1.raw();
  out.neg2 = r2.raw() > half_n;
  out.k2 = out.neg2 ? r2.neg().raw() : r2.raw();
  return out;
}

// wNAF of a GLV half-scalar with the term's sign folded into the digits.
int signed_wnaf(std::int16_t* naf, const U256& k, bool negative, unsigned w) {
  const int len = wnaf(naf, k, w);
  if (negative)
    for (int i = 0; i < len; ++i) naf[i] = static_cast<std::int16_t>(-naf[i]);
  return len;
}

// --- Effective-affine odd-multiples table -----------------------------------

// Fills table[0..kTableSizeP) with {1,3,...,15}·P expressed as *affine*
// points of an isomorphic frame sharing a single global Z (returned), using
// one doubling, kTableSizeP-1 mixed additions and a few multiplications per
// entry — and no field inversion (libsecp256k1's "effective affine" trick).
// A Jacobian result accumulated against these entries is mapped back to the
// true curve by multiplying its Z by the returned global Z.
Fe effective_affine_table(AffGe* table, const Point& p) {
  const Jac d = jac_dbl({p.x(), p.y(), Fe(1), false});  // 2P; never infinity
  // Rescale P into the frame where d is affine: x·dz², y·dz³.
  const Fe dz2 = d.z.sqr();
  const Fe dz3 = dz2 * d.z;
  const AffGe d_aff{d.x, d.y};
  Jac entry[kTableSizeP];
  Fe zr[kTableSizeP];
  entry[0] = {p.x() * dz2, p.y() * dz3, Fe(1), false};
  zr[0] = Fe(1);
  for (int i = 1; i < kTableSizeP; ++i)
    entry[i] = jac_add_aff(entry[i - 1], d_aff, &zr[i]);
  // Backward pass: express entry i as affine w.r.t. the last entry's Z by
  // accumulating the stored Z ratios — multiplications only.
  const int last = kTableSizeP - 1;
  table[last] = {entry[last].x, entry[last].y};
  Fe zs = zr[last];
  for (int i = last - 1; i >= 0; --i) {
    const Fe zs2 = zs.sqr();
    table[i] = {entry[i].x * zs2, entry[i].y * zs2 * zs};
    zs = zs * zr[i];
  }
  return d.z * entry[last].z;
}

// --- Batched inversion (Montgomery's trick) ---------------------------------

// Replaces each element with its inverse using a single field inversion.
void batch_inverse(std::vector<Fe>& v) {
  if (v.empty()) return;
  std::vector<Fe> prefix(v.size());
  prefix[0] = v[0];
  for (std::size_t i = 1; i < v.size(); ++i) prefix[i] = prefix[i - 1] * v[i];
  Fe acc = prefix.back().inv();
  for (std::size_t i = v.size(); i-- > 1;) {
    const Fe inv_i = acc * prefix[i - 1];
    acc = acc * v[i];
    v[i] = inv_i;
  }
  v[0] = acc;
}

// Writes the (non-infinity) Jacobian entries to out[0..entries.size()) in
// true affine coordinates, normalized with a single batched inversion.
void pack_affine(std::span<const Jac> entries, PackedGe* out) {
  std::vector<Fe> zs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) zs[i] = entries[i].z;
  batch_inverse(zs);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Fe zi2 = zs[i].sqr();
    out[i] = pack({entries[i].x * zi2, entries[i].y * zi2 * zs[i]});
  }
}

// --- Generator wNAF tables --------------------------------------------------

// Fills table[0..n) with the odd multiples {1,3,...,2n-1}·base.
void build_odd_multiples(const Jac& base, PackedGe* table, int n) {
  const Jac d = jac_dbl(base);
  std::vector<Jac> entry(static_cast<std::size_t>(n));
  entry[0] = base;
  for (std::size_t i = 1; i < entry.size(); ++i) entry[i] = jac_add(entry[i - 1], d);
  pack_affine(entry, table);
}

// Generator scalars split exactly as b = b_lo + 2^128·b_hi, each half walked
// against its own static table (G and 2^128·G), so the generator streams fit
// the same ~130-doubling chain as the GLV-split variable point.
struct GenTables {
  PackedGe lo[kTableSizeG];  // odd multiples of G
  PackedGe hi[kTableSizeG];  // odd multiples of 2^128·G
};

const GenTables& gen_wnaf_tables() {
  static GenTables t;
  static std::once_flag once;
  std::call_once(once, [] {
    const Jac g = to_jac(Point::generator());
    build_odd_multiples(g, t.lo, kTableSizeG);
    Jac h = g;
    for (int i = 0; i < 128; ++i) h = jac_dbl(h);
    build_odd_multiples(h, t.hi, kTableSizeG);
  });
  return t;
}

// --- Strauss–Shamir interleaved ladder --------------------------------------

// a·P + b·G in Jacobian coordinates (true frame). One shared doubling chain
// of ~130 iterations: the GLV split turns a·P into two half-length streams
// over P's width-5 effective-affine table and its phi-image, and b is split
// bitwise into 128-bit halves over the two static generator tables (rescaled
// on the fly into P's isomorphic frame).
Jac strauss_jac(const Scalar& a, const Point& p, const Scalar& b) {
  std::int16_t naf_p1[kMaxNafLen], naf_p2[kMaxNafLen];
  std::int16_t naf_g1[kMaxNafLen], naf_g2[kMaxNafLen];
  int len_p1 = 0, len_p2 = 0, len_g1 = 0, len_g2 = 0;
  AffGe ptable[kTableSizeP], ltable[kTableSizeP];
  Fe global_z(1);
  const bool have_p = !p.is_infinity() && !a.is_zero();
  if (have_p) {
    const GlvSplit sp = glv_split(a);
    len_p1 = signed_wnaf(naf_p1, sp.k1, sp.neg1, kWnafWindowP);
    len_p2 = signed_wnaf(naf_p2, sp.k2, sp.neg2, kWnafWindowP);
    global_z = effective_affine_table(ptable, p);
    // phi(m·P) = (beta·x, y) commutes with the isomorphic frame's scaling,
    // so the phi table is valid in the same frame.
    const Fe& beta = glv_beta();
    for (int i = 0; i < kTableSizeP; ++i) ltable[i] = {beta * ptable[i].x, ptable[i].y};
  }
  if (!b.is_zero()) {
    const U256& bv = b.raw();
    len_g1 = wnaf(naf_g1, U256{bv.limb[0], bv.limb[1], 0, 0}, kWnafWindowG);
    len_g2 = wnaf(naf_g2, U256{bv.limb[2], bv.limb[3], 0, 0}, kWnafWindowG);
  }
  const GenTables* gt = (len_g1 > 0 || len_g2 > 0) ? &gen_wnaf_tables() : nullptr;
  // G-table entries live on the true curve; when P's table set up an
  // isomorphic frame, rescale each used G entry into that frame.
  Fe gz2(1), gz3(1);
  const bool rescale_g = have_p && gt != nullptr;
  if (rescale_g) {
    gz2 = global_z.sqr();
    gz3 = gz2 * global_z;
  }
  const auto add_gen = [&](Jac acc, const PackedGe* table, int digit) {
    AffGe g = wnaf_lookup(table, digit);
    if (rescale_g) {
      g.x = g.x * gz2;
      g.y = g.y * gz3;
    }
    return jac_add_aff(acc, g);
  };
  Jac acc;
  const int top = std::max(std::max(len_p1, len_p2), std::max(len_g1, len_g2));
  for (int i = top - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (i < len_p1 && naf_p1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ptable, naf_p1[i]));
    if (i < len_p2 && naf_p2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ltable, naf_p2[i]));
    if (i < len_g1 && naf_g1[i] != 0) acc = add_gen(acc, gt->lo, naf_g1[i]);
    if (i < len_g2 && naf_g2[i] != 0) acc = add_gen(acc, gt->hi, naf_g2[i]);
  }
  if (have_p && !acc.infinity) acc.z = acc.z * global_z;
  return acc;
}

// Backing store of a PrecomputedPoint: wide odd-multiples tables for P and
// phi(P) in true affine coordinates (so results need no frame correction and
// the entries mix freely with the generator tables and with per-call tables
// normalized by multi_mul's batched inversion).
struct PreTablesData {
  Point p;
  PackedGe tab[kTableSizePre];
  PackedGe ltab[kTableSizePre];
};

// a·(±P) + b·G over a precomputed true-affine table: same interleaved ladder
// as strauss_jac minus the per-call table build and the isomorphic-frame
// bookkeeping. `sign` is +1 when the target equals the table's base point
// and -1 for its negation (a·(−P) = (−a)·P, so both GLV digit streams flip).
Jac strauss_pre_jac(const Scalar& a, const PreTablesData& pt, int sign, const Scalar& b) {
  std::int16_t naf_p1[kMaxNafLen], naf_p2[kMaxNafLen];
  std::int16_t naf_g1[kMaxNafLen], naf_g2[kMaxNafLen];
  int len_p1 = 0, len_p2 = 0, len_g1 = 0, len_g2 = 0;
  if (!a.is_zero()) {
    GlvSplit sp = glv_split(a);
    if (sign < 0) {
      sp.neg1 = !sp.neg1;
      sp.neg2 = !sp.neg2;
    }
    len_p1 = signed_wnaf(naf_p1, sp.k1, sp.neg1, kWnafWindowPre);
    len_p2 = signed_wnaf(naf_p2, sp.k2, sp.neg2, kWnafWindowPre);
  }
  if (!b.is_zero()) {
    const U256& bv = b.raw();
    len_g1 = wnaf(naf_g1, U256{bv.limb[0], bv.limb[1], 0, 0}, kWnafWindowG);
    len_g2 = wnaf(naf_g2, U256{bv.limb[2], bv.limb[3], 0, 0}, kWnafWindowG);
  }
  const GenTables* gt = (len_g1 > 0 || len_g2 > 0) ? &gen_wnaf_tables() : nullptr;
  Jac acc;
  const int top = std::max(std::max(len_p1, len_p2), std::max(len_g1, len_g2));
  for (int i = top - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (i < len_p1 && naf_p1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(pt.tab, naf_p1[i]));
    if (i < len_p2 && naf_p2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(pt.ltab, naf_p2[i]));
    if (i < len_g1 && naf_g1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(gt->lo, naf_g1[i]));
    if (i < len_g2 && naf_g2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(gt->hi, naf_g2[i]));
  }
  return acc;
}

// --- Bucket (Pippenger) multi-scalar multiplication --------------------------

// One input of the bucket sum: an affine point and a coefficient below
// 2^129. Coefficients of 128 bits or fewer (the batch randomizers) are used
// as they are; wider ones are GLV-split into two half-width terms.
struct BucketTerm {
  AffGe p;
  U256 k;
};

void push_bucket_terms(std::vector<BucketTerm>& out, const Point& p, const Scalar& k) {
  const AffGe a{p.x(), p.y()};
  if ((k.raw().limb[2] | k.raw().limb[3]) == 0) {
    out.push_back({a, k.raw()});
    return;
  }
  const GlvSplit sp = glv_split(k);
  if (!sp.k1.is_zero()) out.push_back({{a.x, sp.neg1 ? a.y.neg() : a.y}, sp.k1});
  if (!sp.k2.is_zero())
    out.push_back({{glv_beta() * a.x, sp.neg2 ? a.y.neg() : a.y}, sp.k2});
}

// `len` (< 64) bits of k starting at bit `pos`; bits past 255 read as zero.
std::uint64_t bits_at(const U256& k, unsigned pos, unsigned len) {
  const unsigned limb = pos / 64;
  const unsigned shift = pos % 64;
  if (limb >= 4) return 0;
  std::uint64_t v = k.limb[limb] >> shift;
  if (shift + len > 64 && limb + 1 < 4) v |= k.limb[limb + 1] << (64 - shift);
  return v & ((std::uint64_t{1} << len) - 1);
}

// Σ kᵢ·Pᵢ by buckets: each coefficient is cut into signed c-bit digits;
// per window, every point is added once into the bucket of its digit's
// magnitude, and the 2^(c−1) buckets are combined with two running sums.
// The windows are folded top-down with c doublings each. Unlike the Strauss
// ladder there are no per-point tables, and a point costs one mixed
// addition per window instead of a scan at every bit.
Jac bucket_sum(std::span<const BucketTerm> terms) {
  if (terms.empty()) return {};
  unsigned bits = 0;
  for (const BucketTerm& t : terms) bits = std::max(bits, t.k.bit_length());
  // Window width minimizing windows × (one mixed addition per term + two
  // full additions per bucket, weighted 3:2 against a mixed one). The +1
  // bit leaves room for the last signed digit's carry.
  const std::size_t n = terms.size();
  unsigned c = 1;
  std::size_t best = SIZE_MAX;
  for (unsigned w = 1; w <= 16; ++w) {
    const std::size_t cost = ((bits + w) / w) * (2 * n + (std::size_t{3} << w));
    if (cost < best) {
      best = cost;
      c = w;
    }
  }
  const unsigned windows = (bits + c) / c;
  const std::int64_t half = std::int64_t{1} << (c - 1);

  // Signed digits in [−2^(c−1), 2^(c−1)], window-major.
  std::vector<std::int32_t> digits(windows * n);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t carry = 0;
    for (unsigned w = 0; w < windows; ++w) {
      std::int64_t d = static_cast<std::int64_t>(bits_at(terms[i].k, w * c, c)) + carry;
      carry = d > half ? 1 : 0;
      if (carry) d -= 2 * half;
      digits[w * n + i] = static_cast<std::int32_t>(d);
    }
  }

  std::vector<Jac> buckets(static_cast<std::size_t>(half));
  Jac acc;
  for (unsigned w = windows; w-- > 0;) {
    for (unsigned d = 0; d < c; ++d) acc = jac_dbl(acc);
    std::fill(buckets.begin(), buckets.end(), Jac{});
    const std::int32_t* row = &digits[w * n];
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t d = row[i];
      if (d == 0) continue;
      const AffGe& p = terms[i].p;
      Jac& b = buckets[static_cast<std::size_t>(d > 0 ? d : -d) - 1];
      b = jac_add_aff(b, d > 0 ? p : AffGe{p.x, p.y.neg()});
    }
    // Σ j·B_j = Σ_j (B_j + B_{j+1} + … + B_max).
    Jac running, window_sum;
    for (std::size_t j = buckets.size(); j-- > 0;) {
      running = jac_add(running, buckets[j]);
      window_sum = jac_add(window_sum, running);
    }
    acc = jac_add(acc, window_sum);
  }
  return acc;
}

// vartime: end

Jac jac_scalar_mul_ladder(const Jac& base, const Scalar& k) {
  Jac acc;
  const U256& bits = k.raw();
  const unsigned n = bits.bit_length();
  for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (bits.bit(static_cast<unsigned>(i))) acc = jac_add(acc, base);
  }
  return acc;
}

// Precomputed 8-bit-window table for k*G: win[w][j-1] = j * 256^w * G, in
// true affine coordinates (one batched inversion per window, so only one
// window's Jacobian entries are alive at a time). Signing then needs only 32
// mixed additions (8M+3S each) and zero doublings. Every window is visited in
// order regardless of k, so the window sequence does not depend on the
// scalar; as with the old 4-bit table, the entry index within a window does
// (acceptable here — see keys.h on the simulation's threat model).
struct GenTable {
  std::array<std::array<PackedGe, 255>, 32> win;
};

const GenTable& gen_table() {
  static GenTable table;
  static std::once_flag once;
  std::call_once(once, [] {
    std::vector<Jac> entries(255);
    Jac base = to_jac(Point::generator());
    for (auto& win : table.win) {
      Jac acc;
      for (Jac& e : entries) {
        acc = jac_add(acc, base);
        e = acc;
      }
      pack_affine(entries, win.data());
      // base <<= 8 bits
      for (int d = 0; d < 8; ++d) base = jac_dbl(base);
    }
  });
  return table;
}

}  // namespace

struct PrecomputedPoint::Impl {
  PreTablesData d;
};

PrecomputedPoint::PrecomputedPoint(const Point& p) : impl_(std::make_unique<Impl>()) {
  if (p.is_infinity()) throw std::invalid_argument("PrecomputedPoint of infinity");
  impl_->d.p = p;
  build_odd_multiples(to_jac(p), impl_->d.tab, kTableSizePre);
  const Fe& beta = glv_beta();
  for (int i = 0; i < kTableSizePre; ++i)
    impl_->d.ltab[i] = {(beta * Fe::from_raw(impl_->d.tab[i].x)).raw(), impl_->d.tab[i].y};
}

PrecomputedPoint::~PrecomputedPoint() = default;
PrecomputedPoint::PrecomputedPoint(PrecomputedPoint&&) noexcept = default;
PrecomputedPoint& PrecomputedPoint::operator=(PrecomputedPoint&&) noexcept = default;

const Point& PrecomputedPoint::point() const { return impl_->d.p; }

Point Point::generator() {
  static const Point g = from_affine(
      Fe::from_u256(U256::from_hex(
          "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")),
      Fe::from_u256(U256::from_hex(
          "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")));
  return g;
}

Point Point::from_affine(const Fe& x, const Fe& y) {
  if (!on_curve(x, y)) throw std::invalid_argument("point not on curve");
  Point p;
  p.x_ = x.normalized();
  p.y_ = y.normalized();
  p.infinity_ = false;
  return p;
}

std::optional<Point> Point::from_compressed(BytesView b) {
  if (b.size() != 33 || (b[0] != 0x02 && b[0] != 0x03)) return std::nullopt;
  U256 xv = U256::from_be_bytes(b.subspan(1));
  if (xv >= Fe::modulus()) return std::nullopt;
  const Fe x = Fe::from_u256(xv);
  Fe y;
  if (!(x.sqr() * x + Fe(7)).sqrt(y)) return std::nullopt;
  if (y.is_odd() != (b[0] == 0x03)) y = y.neg();
  return from_affine(x, y);
}

Point Point::operator+(const Point& o) const { return from_jac(jac_add(to_jac(*this), to_jac(o))); }

Point Point::dbl() const { return from_jac(jac_dbl(to_jac(*this))); }

Point Point::neg() const {
  if (infinity_) return {};
  Point p;
  p.x_ = x_;
  p.y_ = y_.neg().normalized();
  p.infinity_ = false;
  return p;
}

Point Point::operator*(const Scalar& k) const {
  if (infinity_ || k.is_zero()) return {};
  return from_jac(strauss_jac(k, *this, Scalar(0)));
}

Point Point::mul_add_vartime(const Scalar& a, const Point& p, const Scalar& b) {
  return from_jac(strauss_jac(a, p, b));
}

namespace {

// Shared tail of the mul_add_equals variants: expect == (X/Z², Y/Z³)
// without computing 1/Z.
bool jac_equals_affine(const Jac& res, const Point& expect) {
  if (res.infinity || expect.is_infinity()) return res.infinity == expect.is_infinity();
  const Fe z2 = res.z.sqr();
  return expect.x() * z2 == res.x && expect.y() * z2 * res.z == res.y;
}

}  // namespace

bool Point::mul_add_equals_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                   const Point& expect) {
  return jac_equals_affine(strauss_jac(a, p, b), expect);
}

bool Point::mul_add_equals_vartime(const Scalar& a, const PrecomputedPoint& p, const Scalar& b,
                                   const Point& expect) {
  return jac_equals_affine(strauss_pre_jac(a, p.impl_->d, 1, b), expect);
}

// vartime: begin (batch verification — signatures and randomizers are public)
bool Point::multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                          std::span<const Point> points,
                                          const Scalar& gen_coeff) {
  return multi_mul_is_infinity_vartime(coeffs, points, {}, gen_coeff);
}

bool Point::multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                          std::span<const Point> points,
                                          std::span<const PrecomputedPoint* const> pres,
                                          const Scalar& gen_coeff) {
  if (coeffs.size() != points.size())
    throw std::invalid_argument("multi_mul: size mismatch");
  if (!pres.empty() && pres.size() != points.size())
    throw std::invalid_argument("multi_mul: pres size mismatch");
  const auto active = [&](std::size_t i) {
    return !points[i].is_infinity() && !coeffs[i].is_zero();
  };
  std::size_t n_active = 0;
  for (std::size_t i = 0; i < points.size(); ++i) n_active += active(i) ? 1 : 0;
  if (n_active >= kBucketMinTerms) {
    std::vector<BucketTerm> terms;
    terms.reserve(2 * points.size() + 2);
    for (std::size_t i = 0; i < points.size(); ++i)
      if (active(i)) push_bucket_terms(terms, points[i], coeffs[i]);
    if (!gen_coeff.is_zero()) push_bucket_terms(terms, generator(), gen_coeff);
    return bucket_sum(terms).infinity;
  }
  // One ladder term per active (nonzero) input. A term walks either a
  // caller-supplied precomputed table (width-7, possibly with flipped digit
  // signs when the input is the table base's negation) or a fresh width-5
  // table built below.
  struct LadderTerm {
    const PackedGe* tab = nullptr;   // odd multiples of the base point
    const PackedGe* ltab = nullptr;  // beta-transformed (GLV lambda stream)
    unsigned w = kWnafWindowP;
    int sign = 1;
    std::size_t input = 0;  // index into coeffs/points
  };
  std::vector<LadderTerm> terms;
  std::vector<std::size_t> fresh;  // active inputs without a usable table
  terms.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!active(i)) continue;
    LadderTerm t;
    t.input = i;
    const PrecomputedPoint* pre = pres.empty() ? nullptr : pres[i];
    if (pre != nullptr && pre->impl_->d.p.x() == points[i].x() &&
        (pre->impl_->d.p.y() == points[i].y() || pre->impl_->d.p.y() == points[i].y().neg())) {
      t.tab = pre->impl_->d.tab;
      t.ltab = pre->impl_->d.ltab;
      t.w = kWnafWindowPre;
      t.sign = pre->impl_->d.p.y() == points[i].y() ? 1 : -1;
    } else {
      fresh.push_back(terms.size());
    }
    terms.push_back(t);
  }

  // Fresh per-point odd-multiples tables, converted to true affine with a
  // single batched inversion across the whole call; each point also gets the
  // beta-transformed table for its GLV lambda-stream.
  std::vector<std::array<AffGe, kTableSizeP>> frames(fresh.size());
  std::vector<std::array<PackedGe, kTableSizeP>> tables(fresh.size());
  std::vector<std::array<PackedGe, kTableSizeP>> ltables(fresh.size());
  std::vector<Fe> zs(fresh.size());
  for (std::size_t j = 0; j < fresh.size(); ++j)
    zs[j] = effective_affine_table(frames[j].data(), points[terms[fresh[j]].input]);
  batch_inverse(zs);
  const Fe& beta = glv_beta();
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    const Fe zi2 = zs[j].sqr();
    const Fe zi3 = zi2 * zs[j];
    for (std::size_t t = 0; t < tables[j].size(); ++t) {
      const AffGe& e = frames[j][t];
      const Fe x = e.x * zi2;
      tables[j][t] = pack({x, e.y * zi3});
      ltables[j][t] = {(beta * x).raw(), tables[j][t].y};
    }
    terms[fresh[j]].tab = tables[j].data();
    terms[fresh[j]].ltab = ltables[j].data();
  }

  // Two half-length wNAF streams per term (GLV split).
  std::vector<std::array<std::int16_t, kMaxNafLen>> nafs1(terms.size());
  std::vector<std::array<std::int16_t, kMaxNafLen>> nafs2(terms.size());
  std::vector<int> lens1(terms.size());
  std::vector<int> lens2(terms.size());
  int max_len = 0;
  for (std::size_t j = 0; j < terms.size(); ++j) {
    GlvSplit sp = glv_split(coeffs[terms[j].input]);
    if (terms[j].sign < 0) {
      sp.neg1 = !sp.neg1;
      sp.neg2 = !sp.neg2;
    }
    lens1[j] = signed_wnaf(nafs1[j].data(), sp.k1, sp.neg1, terms[j].w);
    lens2[j] = signed_wnaf(nafs2[j].data(), sp.k2, sp.neg2, terms[j].w);
    max_len = std::max({max_len, lens1[j], lens2[j]});
  }
  std::int16_t naf_g1[kMaxNafLen];
  std::int16_t naf_g2[kMaxNafLen];
  int len_g1 = 0, len_g2 = 0;
  if (!gen_coeff.is_zero()) {
    const U256& gv = gen_coeff.raw();
    len_g1 = wnaf(naf_g1, U256{gv.limb[0], gv.limb[1], 0, 0}, kWnafWindowG);
    len_g2 = wnaf(naf_g2, U256{gv.limb[2], gv.limb[3], 0, 0}, kWnafWindowG);
    max_len = std::max({max_len, len_g1, len_g2});
  }
  const GenTables* gt = (len_g1 > 0 || len_g2 > 0) ? &gen_wnaf_tables() : nullptr;

  Jac acc;
  for (int i = max_len - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    for (std::size_t j = 0; j < terms.size(); ++j) {
      if (i < lens1[j] && nafs1[j][static_cast<std::size_t>(i)] != 0)
        acc = jac_add_aff(acc, wnaf_lookup(terms[j].tab, nafs1[j][static_cast<std::size_t>(i)]));
      if (i < lens2[j] && nafs2[j][static_cast<std::size_t>(i)] != 0)
        acc = jac_add_aff(acc, wnaf_lookup(terms[j].ltab, nafs2[j][static_cast<std::size_t>(i)]));
    }
    if (i < len_g1 && naf_g1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(gt->lo, naf_g1[i]));
    if (i < len_g2 && naf_g2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(gt->hi, naf_g2[i]));
  }
  return acc.infinity;
}
// vartime: end

Point Point::mul_ladder_vartime(const Point& p, const Scalar& k) {
  if (p.is_infinity() || k.is_zero()) return {};
  return from_jac(jac_scalar_mul_ladder(to_jac(p), k));
}

Point Point::mul_gen(const Scalar& k) {
  if (k.is_zero()) return {};
  const GenTable& t = gen_table();
  Jac acc;
  const U256& v = k.raw();
  for (int w = 0; w < 32; ++w) {
    const unsigned byte =
        static_cast<unsigned>(v.limb[static_cast<std::size_t>(w / 8)] >> (w % 8 * 8) & 0xff);
    if (byte != 0)
      acc = jac_add_aff(acc, unpack(t.win[static_cast<std::size_t>(w)][static_cast<std::size_t>(byte - 1)]));
  }
  return from_jac(acc);
}

bool Point::operator==(const Point& o) const {
  if (infinity_ || o.infinity_) return infinity_ == o.infinity_;
  return x_ == o.x_ && y_ == o.y_;
}

Bytes Point::compressed() const {
  if (infinity_) throw std::domain_error("cannot encode infinity");
  Bytes out;
  out.reserve(33);
  out.push_back(y_.is_odd() ? 0x03 : 0x02);
  const Bytes xb = x_.to_be_bytes();
  append(out, xb);
  return out;
}

}  // namespace daric::crypto
