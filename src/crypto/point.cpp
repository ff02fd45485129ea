#include "src/crypto/point.h"

#include <algorithm>
#include <array>
#include <cstdlib>
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

// 64 bits of k starting at bit `pos`; bits past 255 read as zero.
std::uint64_t window64(const U256& k, unsigned pos) {
  const unsigned limb = pos / 64;
  const unsigned shift = pos % 64;
  if (limb >= 4) return 0;
  std::uint64_t v = k.limb[limb] >> shift;
  if (shift != 0 && limb + 1 < 4) v |= k.limb[limb + 1] << (64 - shift);
  return v;
}

// `len` (< 64) bits of k starting at bit `pos`; bits past 255 read as zero.
std::uint64_t bits_at(const U256& k, unsigned pos, unsigned len) {
  return window64(k, pos) & ((std::uint64_t{1} << len) - 1);
}

}  // namespace

// Word-level recoding, as libsecp256k1's ecmult_wnaf: a position whose bit
// equals the pending carry holds a zero digit, so whole runs of them are
// skipped with one count-trailing-zeros; anywhere else the w-bit window
// starting there, plus the carry, is the digit, recentred into
// (-2^(w-1), 2^(w-1)) by borrowing 2^w from the next window. This gives the
// digits of the textbook loop (subtract the digit, halve, repeat) without
// touching the 256-bit value again.
int detail::wnaf(std::int16_t* naf, const U256& k, unsigned w) {
  const unsigned bits = k.bit_length();
  std::fill_n(naf, bits + 1, std::int16_t{0});
  int len = 0;
  std::uint64_t carry = 0;
  unsigned bit = 0;
  while (bit <= bits) {
    // Bits equal to the carry, from `bit` up, are zero digits. Above the top
    // bit a pending carry sees ones here, so the scan stops at `bits`.
    const std::uint64_t run = window64(k, bit) ^ (std::uint64_t{0} - carry);
    if (run == 0) {
      bit += 64;
      continue;
    }
    bit += static_cast<unsigned>(__builtin_ctzll(run));
    if (bit > bits) break;
    std::int64_t d = static_cast<std::int64_t>(bits_at(k, bit, w) + carry);
    carry = static_cast<std::uint64_t>(d >> (w - 1)) & 1;
    d -= static_cast<std::int64_t>(carry << w);
    naf[bit] = static_cast<std::int16_t>(d);
    len = static_cast<int>(bit) + 1;
    bit += w;
  }
  return len;
}

namespace {

using detail::kMaxNafLen;
using detail::wnaf;

// Window sizes: 5 for variable points, whether their table is built per call
// or once per key (a PrecomputedPoint's 8 entries per segment), 11 for the
// generator (512 entries per segment, built once per process). A width-w NAF
// has odd digits |d| <= 2^(w-1) - 1, so a table holds 2^(w-2) entries.
constexpr unsigned kWnafWindowP = 5;
constexpr unsigned kWnafWindowG = 11;
constexpr int kTableSizeP = 1 << (kWnafWindowP - 2);  // odd multiples 1..15
constexpr int kTableSizeG = 1 << (kWnafWindowG - 2);  // odd multiples 1..1023

using detail::kSegmentDigits;
using detail::kSegments;

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

}  // namespace

// Lattice-basis scalar decomposition (the constants are the standard secp256k1
// values: (a1, b1), (a2, b2) span the lattice of pairs with a + b·lambda = 0
// mod n, and g1, g2 are the precomputed rounded quotients 2^272·b2/n and
// 2^272·(-b1)/n for Babai rounding at shift 272).
detail::GlvSplit detail::glv_split(const Scalar& k) {
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
  detail::GlvSplit out;
  out.neg1 = r1.raw() > half_n;
  out.k1 = out.neg1 ? r1.neg().raw() : r1.raw();
  out.neg2 = r2.raw() > half_n;
  out.k2 = out.neg2 ? r2.neg().raw() : r2.raw();
  return out;
}

namespace {

using detail::glv_split;
using detail::GlvSplit;

// wNAF of a GLV half-scalar with the term's sign folded into the digits.
int signed_wnaf(std::int16_t* naf, const U256& k, bool negative, unsigned w) {
  const int len = wnaf(naf, k, w);
  if (negative)
    for (int i = 0; i < len; ++i) naf[i] = static_cast<std::int16_t>(-naf[i]);
  return len;
}

// The GLV halves of k as signed wNAF streams: k·P = k1·P + k2·φ(P), with
// naf1 the k1 stream and naf2 the k2 stream. Empty for k = 0.
struct GlvNafs {
  std::int16_t naf1[kMaxNafLen], naf2[kMaxNafLen];
  int len1 = 0, len2 = 0;

  GlvNafs(const Scalar& k, unsigned w) {
    if (k.is_zero()) return;
    const GlvSplit sp = glv_split(k);
    len1 = signed_wnaf(naf1, sp.k1, sp.neg1, w);
    len2 = signed_wnaf(naf2, sp.k2, sp.neg2, w);
  }
  bool empty() const { return len1 == 0 && len2 == 0; }
  // Doublings a walk over the segment tables needs: every chunk but the
  // last ends at offset kSegmentDigits, the last runs to the top digit.
  int segmented_top() const {
    const int len = std::max(len1, len2);
    return std::max(std::min(len, kSegmentDigits), len - kSegmentDigits * (kSegments - 1));
  }
};

// The digit that segment j's chunk of a stream puts at ladder position i of
// a segmented walk (0 for none): digit kSegmentDigits·j + i, where only the
// last chunk reaches past offset kSegmentDigits - 1.
int segment_digit(const std::int16_t* naf, int len, int j, int i) {
  if (j + 1 < kSegments && i >= kSegmentDigits) return 0;
  const int pos = kSegmentDigits * j + i;
  return pos < len ? naf[pos] : 0;
}

// acc + digit·E, with E the table's base point, or φ(E) = (β·x, y) when
// `beta` is set.
void add_digit(Jac& acc, const PackedGe* table, int digit, const Fe* beta) {
  if (digit == 0) return;
  AffGe g = wnaf_lookup(table, digit);
  if (beta != nullptr) g.x = g.x * *beta;
  acc = jac_add_aff(acc, g);
}

// --- Effective-affine odd-multiples table -----------------------------------

// Fills table[0..N) with the odd multiples {1,3,...,2N-1}·b expressed as
// *affine* points of an isomorphic frame sharing a single global Z
// (returned), using one doubling, N-1 mixed additions and a few
// multiplications per entry — and no field inversion (libsecp256k1's
// "effective affine" trick). A Jacobian result accumulated against these
// entries is mapped back to the true curve by multiplying its Z by the
// returned global Z.
template <std::size_t N>
Fe effective_affine_table(AffGe* table, const Jac& b) {
  const Jac d = jac_dbl(b);  // 2b; never infinity
  // Rescale b into the frame where d is affine: x·dz², y·dz³.
  const Fe dz2 = d.z.sqr();
  const Fe dz3 = dz2 * d.z;
  const AffGe d_aff{d.x, d.y};
  std::array<Fe, N> zr;  // zr[i]: entry i's Z over entry i−1's
  zr[0] = Fe(1);
  Jac acc{b.x * dz2, b.y * dz3, b.z, false};
  table[0] = {acc.x, acc.y};
  for (std::size_t i = 1; i < N; ++i) {
    acc = jac_add_aff(acc, d_aff, &zr[i]);
    table[i] = {acc.x, acc.y};
  }
  // Backward pass: express entry i as affine w.r.t. the last entry's Z by
  // accumulating the stored Z ratios — multiplications only.
  Fe zs = zr[N - 1];
  for (std::size_t i = N - 1; i-- > 0;) {
    const Fe zs2 = zs.sqr();
    table[i] = {table[i].x * zs2, table[i].y * zs2 * zs};
    zs = zs * zr[i];
  }
  return d.z * acc.z;
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

// --- Segment tables ----------------------------------------------------------

// Fills out[j·N + m] with (2m + 1)·2^(kSegmentDigits·j)·base for every
// segment j < kSegments and m < N, in true affine coordinates. Each segment
// is built in its own effective-affine frame and parked in `out`; one
// batched inversion of the kSegments frame Zs then maps them all to the
// curve.
template <std::size_t N>
void build_segments(const Jac& base, PackedGe* out) {
  std::vector<AffGe> frame(N);
  std::vector<Fe> zs(kSegments);
  Jac b = base;
  for (std::size_t j = 0; j < zs.size(); ++j) {
    if (j > 0)
      for (int d = 0; d < kSegmentDigits; ++d) b = jac_dbl(b);
    zs[j] = effective_affine_table<N>(frame.data(), b);
    for (std::size_t m = 0; m < N; ++m) out[j * N + m] = pack(frame[m]);
  }
  batch_inverse(zs);
  for (std::size_t j = 0; j < zs.size(); ++j) {
    const Fe zi2 = zs[j].sqr();
    const Fe zi3 = zi2 * zs[j];
    for (PackedGe* e = out + j * N; e != out + (j + 1) * N; ++e) {
      const AffGe f = unpack(*e);
      *e = pack({f.x * zi2, f.y * zi3});
    }
  }
}

// The generator's segment tables, one set read by every ladder's generator
// streams (kSegments × kTableSizeG entries, built once per process).
const PackedGe* gen_segments() {
  static PackedGe t[kSegments * kTableSizeG];
  static std::once_flag once;
  std::call_once(once, [] { build_segments<kTableSizeG>(to_jac(Point::generator()), t); });
  return t;
}

// Adds the digits that k's GLV streams put at ladder position i of a
// segmented walk over `segments` (kSegments tables of `size` entries); the
// k2 stream reads each entry as its φ-image.
void add_segment_digits(Jac& acc, const GlvNafs& k, const PackedGe* segments, int size, int i) {
  const Fe& beta = glv_beta();
  for (int j = 0; j < kSegments; ++j) {
    const PackedGe* table = segments + j * size;
    add_digit(acc, table, segment_digit(k.naf1, k.len1, j, i), nullptr);
    add_digit(acc, table, segment_digit(k.naf2, k.len2, j, i), &beta);
  }
}

// --- Strauss–Shamir interleaved ladder --------------------------------------

// a·P + b·G in Jacobian coordinates (true frame). One shared doubling chain
// of ~130 iterations: the GLV split turns a·P into two half-length streams
// over P's width-5 effective-affine table and its phi-image. b's GLV halves
// walk the generator's segment tables in the chain's last
// kSegmentDigits + 1 steps, each entry rescaled on the fly into P's
// isomorphic frame.
Jac strauss_jac(const Scalar& a, const Point& p, const Scalar& b) {
  const bool have_p = !p.is_infinity() && !a.is_zero();
  const GlvNafs an(have_p ? a : Scalar(0), kWnafWindowP), bn(b, kWnafWindowG);
  AffGe ptable[kTableSizeP], ltable[kTableSizeP];
  Fe global_z(1);
  const Fe& beta = glv_beta();
  if (have_p) {
    global_z = effective_affine_table<kTableSizeP>(ptable, to_jac(p));
    // phi(m·P) = (beta·x, y) commutes with the isomorphic frame's scaling,
    // so the phi table is valid in the same frame.
    for (int i = 0; i < kTableSizeP; ++i) ltable[i] = {beta * ptable[i].x, ptable[i].y};
  }
  const PackedGe* gen = bn.empty() ? nullptr : gen_segments();
  // G-table entries live on the true curve; when P's table set up an
  // isomorphic frame, rescale each used G entry into that frame.
  Fe gz2(1), gz3(1);
  const bool rescale_g = have_p && gen != nullptr;
  if (rescale_g) {
    gz2 = global_z.sqr();
    gz3 = gz2 * global_z;
  }
  const Fe gz2_beta = gz2 * beta;
  const auto add_gen = [&](Jac& acc, const PackedGe* table, int digit, const Fe& x_scale) {
    if (digit == 0) return;
    AffGe g = wnaf_lookup(table, digit);
    g.x = g.x * x_scale;
    if (rescale_g) g.y = g.y * gz3;
    acc = jac_add_aff(acc, g);
  };
  Jac acc;
  const int gen_top = bn.segmented_top();
  for (int i = std::max({an.len1, an.len2, gen_top}) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (i < an.len1 && an.naf1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ptable, an.naf1[i]));
    if (i < an.len2 && an.naf2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ltable, an.naf2[i]));
    if (i >= gen_top) continue;
    for (int j = 0; j < kSegments; ++j) {
      const PackedGe* table = gen + j * kTableSizeG;
      add_gen(acc, table, segment_digit(bn.naf1, bn.len1, j, i), gz2);
      add_gen(acc, table, segment_digit(bn.naf2, bn.len2, j, i), gz2_beta);
    }
  }
  if (have_p && !acc.infinity) acc.z = acc.z * global_z;
  return acc;
}

// Backing store of a PrecomputedPoint: P's segment tables in true affine
// coordinates, so results need no frame correction and the entries mix
// freely with the generator's. φ(P)'s stream reads them with x·β.
struct PreTablesData {
  Point p;
  PackedGe seg[kSegments * kTableSizeP];
};

// a·P + b·G over P's and G's segment tables: the GLV halves of a and b each
// cut into kSegments chunks that share one chain of at most
// kSegmentDigits + 1 doublings.
Jac strauss_pre_jac(const Scalar& a, const PreTablesData& pt, const Scalar& b) {
  const GlvNafs an(a, kWnafWindowP), bn(b, kWnafWindowG);
  const PackedGe* gen = gen_segments();
  Jac acc;
  for (int i = std::max(an.segmented_top(), bn.segmented_top()) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    add_segment_digits(acc, an, pt.seg, kTableSizeP, i);
    add_segment_digits(acc, bn, gen, kTableSizeG, i);
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

// The buckets of a run of windows as affine point lists: window slot s's
// bucket j is list b = s·half + j, at pts[start[b], start[b] + len[b]).
// They are summed in place by rounds of pairwise affine additions until
// every list holds at most one point, so all windows of a fill share each
// round's one inversion.
struct AffineBuckets {
  std::size_t half = 0;  // buckets per window
  std::vector<AffGe> pts;
  std::vector<std::uint32_t> start, len;
  std::vector<Fe> den;  // one round's denominators, then their inverses
  std::vector<std::uint32_t> equal_x;  // one round's pairs with x₁ = x₂, by index

  // Sorts the nonzero digits of `count` windows (rows of terms.size()
  // digits each) by bucket (|d| − 1), each term's point negated for a
  // negative digit.
  void fill(std::span<const BucketTerm> terms, const std::int32_t* rows, std::size_t count) {
    const std::size_t n = terms.size();
    len.assign(count * half, 0);
    start.resize(len.size() + 1);
    for (std::size_t s = 0; s < count; ++s)
      for (std::size_t i = 0; i < n; ++i)
        if (const std::int32_t d = rows[s * n + i]; d != 0)
          ++len[s * half + static_cast<std::size_t>(std::abs(d)) - 1];
    for (std::size_t b = 0; b < len.size(); ++b) {
      start[b + 1] = start[b] + len[b];
      len[b] = 0;
    }
    pts.resize(start.back());
    for (std::size_t s = 0; s < count; ++s)
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t d = rows[s * n + i];
        if (d == 0) continue;
        const std::size_t b = s * half + static_cast<std::size_t>(std::abs(d)) - 1;
        const AffGe& p = terms[i].p;
        pts[start[b] + len[b]++] = d > 0 ? p : AffGe{p.x, p.y.neg()};
      }
  }

  // One round: every list's points (0, 1), (2, 3), … become one point
  // each, λ = (y₂ − y₁)/(x₂ − x₁), x₃ = λ² − x₁ − x₂, y₃ = λ(x₁ − x₃) − y₁
  // (2M + 1S), with every denominator inverted by one batch_inverse (3M
  // each). A pair with x₁ = x₂ is settled before the batch: equal points
  // double (λ = 3x₁²/2y₁, the same formulas), opposite points cancel and
  // leave the list. An odd last point moves up unchanged. False once no
  // list holds two points.
  bool reduce_round() {
    den.clear();
    equal_x.clear();
    std::uint32_t pairs = 0;
    for (std::size_t b = 0; b < len.size(); ++b)
      for (std::uint32_t k = 0; k + 1 < len[b]; k += 2, ++pairs) {
        const AffGe& p = pts[start[b] + k];
        const AffGe& q = pts[start[b] + k + 1];
        const Fe dx = q.x - p.x;
        if (!dx.is_zero()) {
          den.push_back(dx);
        } else {
          equal_x.push_back(pairs);
          if (p.y == q.y) den.push_back(p.y + p.y);
        }
      }
    if (pairs == 0) return false;
    equal_x.push_back(pairs);  // sentinel: no pair has this index
    batch_inverse(den);
    const Fe* inv = den.data();
    const std::uint32_t* next_equal = equal_x.data();
    std::uint32_t pair = 0;
    for (std::size_t b = 0; b < len.size(); ++b) {
      AffGe* list = &pts[start[b]];
      std::uint32_t out = 0;
      for (std::uint32_t k = 0; k + 1 < len[b]; k += 2, ++pair) {
        const AffGe p = list[k];
        const AffGe q = list[k + 1];
        Fe lambda;
        if (pair != *next_equal) {
          lambda = (q.y - p.y) * *inv++;
        } else {
          ++next_equal;
          if (!(p.y == q.y)) continue;  // P + (−P)
          const Fe x2 = p.x.sqr();
          lambda = (x2 + x2 + x2) * *inv++;
        }
        const Fe x3 = lambda.sqr() - p.x - q.x;
        list[out++] = {x3, lambda * (p.x - x3) - p.y};
      }
      if (len[b] % 2 != 0) list[out++] = list[len[b] - 1];
      len[b] = out;
    }
    return true;
  }
};

// Points one AffineBuckets fill holds at most (unless a single window has
// more terms): enough windows that a round's inversion is shared by many
// additions, and few enough that the lists stay in cache. BM_MultiMul/24
// to /752 (Release, pinned) read 2,048 fastest or tied with 1,024 and
// 4,096; one window per fill took 1.6× as long at /32.
constexpr std::size_t kFillPoints = 2048;

// Σ kᵢ·Pᵢ by buckets: each coefficient is cut into signed c-bit digits;
// per window, every point joins the bucket of its digit's magnitude, each
// bucket is summed in affine coordinates (AffineBuckets, several windows
// at a time), and the 2^(c−1) bucket sums are combined with two running
// sums. The windows are folded top-down with c doublings each. Unlike the
// Strauss ladder there are no per-point tables, and a point costs one
// affine addition per window instead of a scan at every bit.
Jac bucket_sum(std::span<const BucketTerm> terms) {
  if (terms.empty()) return {};
  unsigned bits = 0;
  for (const BucketTerm& t : terms) bits = std::max(bits, t.k.bit_length());
  // Window width minimizing windows × (one affine addition per term + one
  // mixed and one full addition per bucket, weighted 3:1 against an affine
  // one): with the width forced, BM_MultiMul/32 to /1130 (Release, pinned)
  // ran fastest at this width, or within the host's noise of it. The +1
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

  const unsigned per_fill = static_cast<unsigned>(std::max<std::size_t>(1, kFillPoints / n));
  AffineBuckets buckets;
  buckets.half = static_cast<std::size_t>(half);
  Jac acc;
  for (unsigned hi = windows; hi > 0;) {
    const unsigned lo = hi > per_fill ? hi - per_fill : 0;
    buckets.fill(terms, &digits[lo * n], hi - lo);
    while (buckets.reduce_round()) {
    }
    for (unsigned w = hi; w-- > lo;) {
      for (unsigned d = 0; d < c; ++d) acc = jac_dbl(acc);
      // Σ j·B_j = Σ_j (B_j + B_{j+1} + … + B_max).
      Jac running, window_sum;
      for (std::size_t j = buckets.half; j-- > 0;) {
        const std::size_t b = (w - lo) * buckets.half + j;
        if (buckets.len[b] != 0) running = jac_add_aff(running, buckets.pts[buckets.start[b]]);
        window_sum = jac_add(window_sum, running);
      }
      acc = jac_add(acc, window_sum);
    }
    hi = lo;
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
  build_segments<kTableSizeP>(to_jac(p), impl_->d.seg);
}

int detail::segment_size(const PrecomputedPoint* pre) {
  return pre != nullptr ? kTableSizeP : kTableSizeG;
}

Point detail::segment_entry(const PrecomputedPoint* pre, int j, int m) {
  const int size = segment_size(pre);
  if (j < 0 || j >= kSegments || m < 0 || m >= size)
    throw std::out_of_range("segment_entry: no such entry");
  const PackedGe& e = (pre != nullptr ? pre->impl_->d.seg : gen_segments())[j * size + m];
  return Point::from_affine(Fe::from_raw(e.x), Fe::from_raw(e.y));
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

// A compressed encoding's x (below p) and y parity; false for any other
// size, prefix or x.
bool parse_encoding(BytesView enc, Fe& x, bool& odd) {
  if (enc.size() != 33 || (enc[0] != 0x02 && enc[0] != 0x03)) return false;
  const U256 xv = U256::from_be_bytes(enc.subspan(1));
  if (xv >= Fe::modulus()) return false;
  x = Fe::from_raw(xv);
  odd = enc[0] == 0x03;
  return true;
}

// Whether res = (X, Y, Z) is the affine point (x, ±y) with y's parity
// `odd`, without lifting x to a point: x·Z² == X holds only for the
// x-coordinate of a curve point, and then one inversion gives the affine y
// whose parity is compared.
bool jac_has_x_and_parity(const Jac& res, const Fe& x, bool odd) {
  if (res.infinity || !(x * res.z.sqr() == res.x)) return false;
  const Fe zi = res.z.inv();
  return (res.y * zi.sqr() * zi).is_odd() == odd;
}

}  // namespace

bool Point::mul_add_encodes_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                    BytesView enc) {
  Fe x;
  bool odd = false;
  return parse_encoding(enc, x, odd) && jac_has_x_and_parity(strauss_jac(a, p, b), x, odd);
}

bool Point::mul_add_encodes_vartime(const Scalar& a, const PrecomputedPoint& p, const Scalar& b,
                                    BytesView enc) {
  Fe x;
  bool odd = false;
  return parse_encoding(enc, x, odd) &&
         jac_has_x_and_parity(strauss_pre_jac(a, p.impl_->d, b), x, odd);
}

// vartime: begin (batch verification — signatures and randomizers are public)
bool Point::multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                          std::span<const Point> points,
                                          const Scalar& gen_coeff) {
  if (coeffs.size() != points.size())
    throw std::invalid_argument("multi_mul: size mismatch");
  std::vector<std::size_t> inputs;  // the active (nonzero) terms
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!points[i].is_infinity() && !coeffs[i].is_zero()) inputs.push_back(i);
  if (inputs.size() >= kBucketMinTerms) {
    std::vector<BucketTerm> terms;
    terms.reserve(2 * inputs.size() + 2);
    for (const std::size_t i : inputs) push_bucket_terms(terms, points[i], coeffs[i]);
    if (!gen_coeff.is_zero()) push_bucket_terms(terms, generator(), gen_coeff);
    return bucket_sum(terms).infinity;
  }

  // One width-5 odd-multiples table per term, converted to true affine with
  // a single batched inversion across the whole call; each term also gets
  // the beta-transformed table for its GLV lambda-stream.
  const std::size_t n = inputs.size();
  std::vector<std::array<AffGe, kTableSizeP>> frames(n);
  std::vector<std::array<PackedGe, kTableSizeP>> tables(n);
  std::vector<std::array<PackedGe, kTableSizeP>> ltables(n);
  std::vector<Fe> zs(n);
  for (std::size_t j = 0; j < n; ++j)
    zs[j] = effective_affine_table<kTableSizeP>(frames[j].data(), to_jac(points[inputs[j]]));
  batch_inverse(zs);
  const Fe& beta = glv_beta();
  for (std::size_t j = 0; j < n; ++j) {
    const Fe zi2 = zs[j].sqr();
    const Fe zi3 = zi2 * zs[j];
    for (std::size_t t = 0; t < tables[j].size(); ++t) {
      const AffGe& e = frames[j][t];
      const Fe x = e.x * zi2;
      tables[j][t] = pack({x, e.y * zi3});
      ltables[j][t] = {(beta * x).raw(), tables[j][t].y};
    }
  }

  // Two half-length wNAF streams per term (GLV split); the generator's walk
  // its segment tables.
  std::vector<GlvNafs> nafs;
  nafs.reserve(n);
  int top = 0;
  for (const std::size_t i : inputs) {
    nafs.emplace_back(coeffs[i], kWnafWindowP);
    top = std::max({top, nafs.back().len1, nafs.back().len2});
  }
  const GlvNafs gn(gen_coeff, kWnafWindowG);
  const PackedGe* gen = gn.empty() ? nullptr : gen_segments();
  const int gen_top = gn.segmented_top();
  top = std::max(top, gen_top);

  Jac acc;
  for (int i = top - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    for (std::size_t j = 0; j < n; ++j) {
      const GlvNafs& k = nafs[j];
      add_digit(acc, tables[j].data(), i < k.len1 ? k.naf1[i] : 0, nullptr);
      add_digit(acc, ltables[j].data(), i < k.len2 ? k.naf2[i] : 0, nullptr);
    }
    if (i < gen_top) add_segment_digits(acc, gn, gen, kTableSizeG, i);
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
