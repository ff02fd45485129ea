#include "src/crypto/field_lanes.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace daric::crypto {

// Fe's limbs in and out of the lane kernels.
struct fe_lanes::Io {
  // The first four limbs below 2^52, the top one at most 2^48 + 1.
  static Fe::Limbs limbs(const Fe& f) { return f.carried(); }
  static Fe from_limbs(const Fe::Limbs& l) {
    Fe f;
    f.n_ = l;
    return f;
  }
  static bool reduced(const Fe& f) {
    const Fe::Limbs& l = f.n_;
    return (l[0] | l[1] | l[2] | l[3]) <= Fe::kM52 && l[4] <= Fe::kM48 + 1;
  }
};

namespace fe_lanes {

bool lane_reduced(const Fe& f) { return Io::reduced(f); }

void mul_scalar(const Fe* a, const Fe* b, Fe* out) {
  for (std::size_t i = 0; i < kWidth; ++i) out[i] = a[i] * b[i];
}

void sqr_scalar(const Fe* a, Fe* out) {
  for (std::size_t i = 0; i < kWidth; ++i) out[i] = a[i].sqr();
}

void sqrt_candidate_scalar(const Fe* a, Fe* out) {
  for (std::size_t i = 0; i < kWidth; ++i) out[i] = a[i].sqrt_candidate();
}

void affine_steps_scalar(const Fe* x1, const Fe* y1, Fe* x2, Fe* num, const Fe* inv,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Fe lambda = num[i] * inv[i];
    const Fe x3 = lambda.sqr() - x1[i] - x2[i];
    num[i] = lambda * (x1[i] - x3) - y1[i];
    x2[i] = x3;
  }
}

void inverse_all_scalar(Fe* v, std::size_t n) {
  if (n == 0) return;
  std::vector<Fe> prefix(n);
  prefix[0] = v[0];
  for (std::size_t i = 1; i < n; ++i) prefix[i] = prefix[i - 1] * v[i];
  Fe acc = prefix.back().inv();
  for (std::size_t i = n; i-- > 1;) {
    const Fe inv_i = acc * prefix[i - 1];
    acc = acc * v[i];
    v[i] = inv_i;
  }
  v[0] = acc;
}

#if defined(__x86_64__)

bool ifma_available() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_OSXSAVE)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  if (!(b & bit_AVX512F) || !(b & bit_AVX512IFMA)) return false;
  // XCR0 bits 1, 2 and 5 to 7: the OS saves the SSE, AVX, opmask and all
  // 32 zmm registers across context switches.
  unsigned lo = 0, hi = 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (lo & 0xe6) == 0xe6;
}

namespace {

// Every function below is compiled for AVX-512F + IFMA by its own target
// attribute (the rest of the build stays baseline x86-64); the helpers are
// forced inline into the kernels, which is allowed between functions of the
// same target.
#define DARIC_IFMA __attribute__((target("avx512f,avx512ifma")))
#define DARIC_IFMA_INLINE __attribute__((target("avx512f,avx512ifma"), always_inline)) inline

// Eight 64-bit lanes. GCC's vector operators give the shifts, masks and
// additions; only the multiply-adds are intrinsics.
typedef std::uint64_t V __attribute__((vector_size(64)));

constexpr std::uint64_t kM52 = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kM48 = (std::uint64_t{1} << 48) - 1;
constexpr std::uint64_t kC = 0x1000003d1;  // 2^256 mod p
constexpr std::uint64_t kR = kC << 4;      // 2^260 mod p, below 2^37
constexpr std::uint64_t kP0 = 0xffffefffffc2f;  // p's bottom limb; the rest are all ones

DARIC_IFMA_INLINE V splat(std::uint64_t x) { return V{} + x; }

// acc plus the low (madd_lo) or high (madd_hi) 52 bits of the 104-bit
// product x·y, lane by lane. vpmadd52 reads only bits 0 to 51 of x and y.
DARIC_IFMA_INLINE V madd_lo(V acc, V x, V y) {
  return reinterpret_cast<V>(_mm512_madd52lo_epu64(
      reinterpret_cast<__m512i>(acc), reinterpret_cast<__m512i>(x), reinterpret_cast<__m512i>(y)));
}
DARIC_IFMA_INLINE V madd_hi(V acc, V x, V y) {
  return reinterpret_cast<V>(_mm512_madd52hi_epu64(
      reinterpret_cast<__m512i>(acc), reinterpret_cast<__m512i>(x), reinterpret_cast<__m512i>(y)));
}

// Eight field elements, l[i] holding limb i of each: the first four limbs
// below 2^52 and the top one below 2^52 as well (at most 2^48 + 1 as
// loaded, at most 2^48 as carry() leaves it), so every limb is a whole
// vpmadd52 multiplicand.
struct Lane {
  V l[5];
};

// Limbs below 2^57 back within Lane's bounds, value kept mod p. One carry
// pass leaves limbs 0 to 3 below 2^52; limb 4's bits from 2^48 up (2^256
// and above, below 2^10) fold into limb 0 with kC, which can push limb 0
// past 2^52 by one carry, so a second pass runs to the top, where limb 4
// ends at most 2^48.
DARIC_IFMA_INLINE Lane carry(V r0, V r1, V r2, V r3, V r4) {
  const V m52 = splat(kM52);
  r1 += r0 >> 52;
  r0 &= m52;
  r2 += r1 >> 52;
  r1 &= m52;
  r3 += r2 >> 52;
  r2 &= m52;
  r4 += r3 >> 52;
  r3 &= m52;
  r0 = madd_lo(r0, r4 >> 48, splat(kC));
  r4 &= splat(kM48);
  r1 += r0 >> 52;
  r0 &= m52;
  r2 += r1 >> 52;
  r1 &= m52;
  r3 += r2 >> 52;
  r2 &= m52;
  r4 += r3 >> 52;
  r3 &= m52;
  return {{r0, r1, r2, r3, r4}};
}

// A product's ten columns (column k at 2^(52·k), each below 2^56) reduced
// to a Lane: value kept mod p, limbs back within Lane's bounds.
DARIC_IFMA_INLINE Lane reduce(const V (&z)[10]) {
  // Columns 5 to 9 fold onto 0 to 4 with 2^260 ≡ kR. vpmadd52 reads the
  // low 52 bits of x = z[k + 5]: x·kR's low half lands in column k and its
  // high half in column k + 1. x's bits from 2^52 up (below 2^4) times kR
  // (below 2^41) land in column k + 1 too. Column 9's share of column 5
  // (below 2^42) folds once more, which leaves every column below 2^57.
  const V r = splat(kR);
  V r0 = madd_lo(z[0], z[5], r);
  V r1 = madd_lo(z[1], z[6], r);
  V r2 = madd_lo(z[2], z[7], r);
  V r3 = madd_lo(z[3], z[8], r);
  V r4 = madd_lo(z[4], z[9], r);
  r1 = madd_lo(madd_hi(r1, z[5], r), z[5] >> 52, r);
  r2 = madd_lo(madd_hi(r2, z[6], r), z[6] >> 52, r);
  r3 = madd_lo(madd_hi(r3, z[7], r), z[7] >> 52, r);
  r4 = madd_lo(madd_hi(r4, z[8], r), z[8] >> 52, r);
  const V r5 = madd_lo(madd_hi(V{}, z[9], r), z[9] >> 52, r);
  r0 = madd_lo(r0, r5, r);
  r1 = madd_hi(r1, r5, r);
  return carry(r0, r1, r2, r3, r4);
}

// Column k sums the low halves of a_i·b_j with i + j = k and the high
// halves of those with i + j = k − 1: at most ten terms below 2^52 each.
DARIC_IFMA_INLINE Lane mul(const Lane& a, const Lane& b) {
  V z[10] = {};
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i)
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
      z[i + j] = madd_lo(z[i + j], a.l[i], b.l[j]);
      z[i + j + 1] = madd_hi(z[i + j + 1], a.l[i], b.l[j]);
    }
  return reduce(z);
}

// The cross products a_i·a_j (i < j) once, doubled by an addition (a
// doubled limb could reach 2^53, past what vpmadd52 reads), then the
// squares: at most nine terms per column.
DARIC_IFMA_INLINE Lane sqr(const Lane& a) {
  V z[10] = {};
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i)
#pragma GCC unroll 5
    for (int j = i + 1; j < 5; ++j) {
      z[i + j] = madd_lo(z[i + j], a.l[i], a.l[j]);
      z[i + j + 1] = madd_hi(z[i + j + 1], a.l[i], a.l[j]);
    }
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) z[k] += z[k];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    z[2 * i] = madd_lo(z[2 * i], a.l[i], a.l[i]);
    z[2 * i + 1] = madd_hi(z[2 * i + 1], a.l[i], a.l[i]);
  }
  return reduce(z);
}

// a − b as a + 2p − b: each limb of 2p is at least the matching bound of
// b's limbs (2^52 − 1, and 2^48 + 1 for the top), so no limb goes
// negative, and each sum stays below 2^54.
DARIC_IFMA_INLINE Lane sub(const Lane& a, const Lane& b) {
  return carry(a.l[0] + splat(2 * kP0) - b.l[0], a.l[1] + splat(2 * kM52) - b.l[1],
               a.l[2] + splat(2 * kM52) - b.l[2], a.l[3] + splat(2 * kM52) - b.l[3],
               a.l[4] + splat(2 * kM48) - b.l[4]);
}

// kWidth elements as two Lanes, stepped in turn: the two vectors' chains
// are independent, so each one's carry passes overlap the other's
// multiply-adds.
struct Lanes {
  Lane g[2];
};

DARIC_IFMA_INLINE Lanes load(const Fe* a) {
  alignas(64) std::uint64_t t[2][5][8];
  for (std::size_t e = 0; e < kWidth; ++e) {
    const auto l = Io::limbs(a[e]);
    for (std::size_t i = 0; i < 5; ++i) t[e / 8][i][e % 8] = l[i];
  }
  Lanes x;
  std::memcpy(&x, t, sizeof t);
  return x;
}

DARIC_IFMA_INLINE void store(const Lanes& x, Fe* out) {
  alignas(64) std::uint64_t t[2][5][8];
  std::memcpy(t, &x, sizeof t);
  for (std::size_t e = 0; e < kWidth; ++e) {
    const std::size_t g = e / 8, k = e % 8;
    out[e] = Io::from_limbs({t[g][0][k], t[g][1][k], t[g][2][k], t[g][3][k], t[g][4][k]});
  }
}

DARIC_IFMA Lanes mul(const Lanes& a, const Lanes& b) {
  return {{mul(a.g[0], b.g[0]), mul(a.g[1], b.g[1])}};
}

DARIC_IFMA Lanes sub(const Lanes& a, const Lanes& b) {
  return {{sub(a.g[0], b.g[0]), sub(a.g[1], b.g[1])}};
}

DARIC_IFMA Lanes sqr_n(Lanes x, int n) {
  for (int i = 0; i < n; ++i) x = {{sqr(x.g[0]), sqr(x.g[1])}};
  return x;
}

// Group g of v[0, n) (kWidth values from g·kWidth on), padded with ones.
DARIC_IFMA_INLINE Lanes load_group(const Fe* v, std::size_t n, std::size_t g) {
  const std::size_t at = g * kWidth;
  if (at + kWidth <= n) return load(v + at);
  Fe t[kWidth];
  for (std::size_t i = 0; i < kWidth; ++i) t[i] = at + i < n ? v[at + i] : Fe(1);
  return load(t);
}

DARIC_IFMA_INLINE void store_group(const Lanes& x, Fe* v, std::size_t n, std::size_t g) {
  const std::size_t at = g * kWidth;
  if (at + kWidth <= n) return store(x, v + at);
  Fe t[kWidth];
  store(x, t);
  for (std::size_t i = 0; at + i < n; ++i) v[at + i] = t[i];
}

}  // namespace

DARIC_IFMA void mul_ifma(const Fe* a, const Fe* b, Fe* out) { store(mul(load(a), load(b)), out); }

DARIC_IFMA void sqr_ifma(const Fe* a, Fe* out) { store(sqr_n(load(a), 1), out); }

// Fe::sqrt_candidate's addition chain, step for step.
DARIC_IFMA void sqrt_candidate_ifma(const Fe* a, Fe* out) {
  const Lanes x = load(a);
  const Lanes x2 = mul(sqr_n(x, 1), x);
  const Lanes x3 = mul(sqr_n(x2, 1), x);
  const Lanes x6 = mul(sqr_n(x3, 3), x3);
  const Lanes x9 = mul(sqr_n(x6, 3), x3);
  const Lanes x11 = mul(sqr_n(x9, 2), x2);
  const Lanes x22 = mul(sqr_n(x11, 11), x11);
  const Lanes x44 = mul(sqr_n(x22, 22), x22);
  const Lanes x88 = mul(sqr_n(x44, 44), x44);
  const Lanes x176 = mul(sqr_n(x88, 88), x88);
  const Lanes x220 = mul(sqr_n(x176, 44), x44);
  const Lanes x223 = mul(sqr_n(x220, 3), x3);
  Lanes t = mul(sqr_n(x223, 23), x22);
  t = mul(sqr_n(t, 6), x2);
  store(sqr_n(t, 2), out);
}

// Montgomery's trick as kWidth interleaved chains: lane j of group g holds
// v[g·kWidth + j], the forward pass keeps every lane's running product
// (prefix[g] is the product of groups 0 to g), the kWidth chain totals are
// inverted together by the scalar trick (one Fe::inv), and the backward
// pass peels one group off each lane's total at a time.
DARIC_IFMA void inverse_all_ifma(Fe* v, std::size_t n) {
  if (n == 0) return;
  const std::size_t groups = (n + kWidth - 1) / kWidth;
  constexpr std::size_t kWords = sizeof(Lanes) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> prefix(groups * kWords);
  Lanes acc = load_group(v, n, 0);
  std::memcpy(prefix.data(), &acc, sizeof acc);
  for (std::size_t g = 1; g < groups; ++g) {
    acc = mul(acc, load_group(v, n, g));
    std::memcpy(&prefix[g * kWords], &acc, sizeof acc);
  }
  Fe totals[kWidth];
  store(acc, totals);
  inverse_all_scalar(totals, kWidth);
  Lanes inv = load(totals);
  for (std::size_t g = groups - 1; g > 0; --g) {
    Lanes before;
    std::memcpy(&before, &prefix[(g - 1) * kWords], sizeof before);
    const Lanes vg = load_group(v, n, g);
    store_group(mul(inv, before), v, n, g);
    inv = mul(inv, vg);
  }
  store_group(inv, v, n, 0);
}

DARIC_IFMA void affine_steps_ifma(const Fe* x1, const Fe* y1, Fe* x2, Fe* num, const Fe* inv,
                                  std::size_t n) {
  for (std::size_t g = 0; g * kWidth < n; ++g) {
    const Lanes a = load_group(x1, n, g);
    const Lanes lambda = mul(load_group(num, n, g), load_group(inv, n, g));
    const Lanes x3 = sub(sub(sqr_n(lambda, 1), a), load_group(x2, n, g));
    store_group(sub(mul(lambda, sub(a, x3)), load_group(y1, n, g)), num, n, g);
    store_group(x3, x2, n, g);
  }
}

#undef DARIC_IFMA
#undef DARIC_IFMA_INLINE

#else

bool ifma_available() { return false; }

#endif

void sqrt_candidates(std::span<const Fe> a, std::span<Fe> out) {
  std::size_t i = 0;
#if defined(__x86_64__)
  static const bool lanes = ifma_available();
  if (lanes && a.size() >= kWidth) {
    for (; i + kWidth <= a.size(); i += kWidth) sqrt_candidate_ifma(&a[i], &out[i]);
    if (i < a.size()) {
      // Zeros pad the last group; their roots are dropped.
      Fe in[kWidth], res[kWidth];
      std::copy(a.begin() + static_cast<std::ptrdiff_t>(i), a.end(), in);
      sqrt_candidate_ifma(in, res);
      std::copy(res, res + (a.size() - i), out.begin() + static_cast<std::ptrdiff_t>(i));
      i = a.size();
    }
  }
#endif
  for (; i < a.size(); ++i) out[i] = a[i].sqrt_candidate();
}

void affine_steps(std::span<const Fe> x1, std::span<const Fe> y1, std::span<Fe> x2,
                  std::span<Fe> num, std::span<const Fe> inv) {
#if defined(__x86_64__)
  static const bool lanes = ifma_available();
  if (lanes && x1.size() >= kMinLaneSteps)
    return affine_steps_ifma(x1.data(), y1.data(), x2.data(), num.data(), inv.data(), x1.size());
#endif
  affine_steps_scalar(x1.data(), y1.data(), x2.data(), num.data(), inv.data(), x1.size());
}

void inverse_all(std::span<Fe> v) {
#if defined(__x86_64__)
  static const bool lanes = ifma_available();
  if (lanes && v.size() >= kMinLaneInverses) return inverse_all_ifma(v.data(), v.size());
#endif
  inverse_all_scalar(v.data(), v.size());
}

}  // namespace fe_lanes

}  // namespace daric::crypto
