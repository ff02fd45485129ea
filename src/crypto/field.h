// secp256k1 base-field element (mod p = 2^256 - 2^32 - 977).
//
// Stored as five 52-bit limbs, value = Σ n[i]·2^(52·i), with deferred
// reduction. Every Fe keeps n[0..3] < 2^53 and n[4] < 2^49: the spare bits
// per word let `*` and sqr() sum limb products in unsigned __int128
// accumulators without intermediate carries, and let `+`, `-` and neg() add
// limbs before one weak carry pass. The value itself may be anywhere in
// [0, 2p); it is fully reduced below p only where it is observed (==,
// is_zero, is_odd, raw, to_be_bytes, normalized). Every kernel is
// branch-free, so the representation leaks nothing through timing.
#pragma once

#include <array>

#include "src/crypto/modarith.h"
#include "src/crypto/u256.h"

namespace daric::crypto {

namespace fe_lanes {
struct Io;
}  // namespace fe_lanes

namespace detail {
// p and 2^256 mod p, kept for Fe::modulus() and as the modarith parameters
// the field's differential tests check the limb kernels against.
inline constexpr modarith::Params kFieldParams{
    .m = U256{0xfffffffefffffc2f, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff},
    .c = U256{0x1000003d1, 0, 0, 0},
};
}  // namespace detail

class Fe {
 public:
  Fe() = default;
  explicit Fe(std::uint64_t v) : n_{v & kM52, v >> 52, 0, 0, 0} {}
  /// Value must already be < p (checked).
  static Fe from_u256(const U256& v);
  /// Any 256-bit value, read mod p (no range check): the inverse of raw().
  static Fe from_raw(const U256& v) {
    const auto& l = v.limb;
    Fe f;
    f.n_ = {l[0] & kM52, (l[0] >> 52 | l[1] << 12) & kM52, (l[1] >> 40 | l[2] << 24) & kM52,
            (l[2] >> 28 | l[3] << 36) & kM52, l[3] >> 16};
    return f;
  }
  /// Interprets 32 big-endian bytes, reducing mod p.
  static Fe from_be_bytes_reduce(BytesView b) { return from_raw(U256::from_be_bytes(b)); }

  static const U256& modulus() { return detail::kFieldParams.m; }

  Fe operator+(const Fe& o) const {
    return weak(n_[0] + o.n_[0], n_[1] + o.n_[1], n_[2] + o.n_[2], n_[3] + o.n_[3],
                n_[4] + o.n_[4]);
  }
  /// a + 4p - b: every limb of 4p exceeds the matching limb bound of b, so
  /// no limb underflows.
  Fe operator-(const Fe& o) const {
    return weak(n_[0] + k4P0 - o.n_[0], n_[1] + k4P - o.n_[1], n_[2] + k4P - o.n_[2],
                n_[3] + k4P - o.n_[3], n_[4] + k4P4 - o.n_[4]);
  }
  Fe neg() const {
    return weak(k4P0 - n_[0], k4P - n_[1], k4P - n_[2], k4P - n_[3], k4P4 - n_[4]);
  }
  // Both kernels are forced inline: at -O2 GCC otherwise keeps them out of
  // line, and every ladder step, square-root chain and table build then
  // passes each 40-byte result through memory.
  __attribute__((always_inline)) Fe operator*(const Fe& o) const;
  /// Dedicated squaring (cheaper than a general multiply).
  __attribute__((always_inline)) Fe sqr() const;
  /// Multiplicative inverse by constant-time divsteps (Bernstein–Yang);
  /// throws std::domain_error for zero.
  Fe inv() const;
  /// Square root (p ≡ 3 mod 4); returns false if *this is not a QR.
  bool sqrt(Fe& out) const;
  /// x^((p+1)/4), sqrt's candidate: the square root of x when x is a QR,
  /// unchecked. The reference the lane kernels (field_lanes.h) are tested
  /// against.
  Fe sqrt_candidate() const;

  /// The same value with its limbs fully reduced below p.
  Fe normalized() const;
  bool is_zero() const;
  bool is_odd() const { return normalized().n_[0] & 1; }
  bool operator==(const Fe& o) const { return (*this - o).is_zero(); }

  /// Canonical value (< p) in 4×64 limbs.
  U256 raw() const {
    const Limbs t = normalized().n_;
    return {t[0] | t[1] << 52, t[1] >> 12 | t[2] << 40, t[2] >> 24 | t[3] << 28,
            t[3] >> 36 | t[4] << 16};
  }
  Bytes to_be_bytes() const { return raw().to_be_bytes(); }

 private:
  friend struct fe_lanes::Io;  // loads and stores the lane kernels' limbs
  using Limbs = std::array<std::uint64_t, 5>;
  using u128 = unsigned __int128;

  static constexpr std::uint64_t kM52 = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t kM48 = (std::uint64_t{1} << 48) - 1;
  // 2^256 ≡ kC and 2^260 ≡ kR (mod p): bits at or above 2^256 fold back in
  // with one small multiplication.
  static constexpr std::uint64_t kC = 0x1000003d1;
  static constexpr std::uint64_t kR = kC << 4;
  static constexpr std::uint64_t kP0 = 0xffffefffffc2f;  // p's bottom limb; the rest are all ones
  // The limbs of 4p.
  static constexpr std::uint64_t k4P0 = kP0 * 4;
  static constexpr std::uint64_t k4P = kM52 * 4;
  static constexpr std::uint64_t k4P4 = kM48 * 4;

  // One carry pass after `+`, `-` or neg(), whose limbs stay below 2^56
  // (top limb 2^52): every limb keeps its low 52 bits (48 for the top) plus
  // the bits that overflowed the limb below, and the top limb's overflow
  // folds into the bottom with kC. The carries are taken from the inputs,
  // not chained through each other, so the pass is a few instructions deep;
  // the carries stay below 2^4 (2^36 for the folded one), which keeps the
  // results below 2^53 and 2^49.
  static Fe weak(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2, std::uint64_t t3,
                 std::uint64_t t4) {
    Fe r;
    r.n_ = {(t0 & kM52) + (t4 >> 48) * kC, (t1 & kM52) + (t0 >> 52), (t2 & kM52) + (t1 >> 52),
            (t3 & kM52) + (t2 >> 52), (t4 & kM48) + (t3 >> 52)};
    return r;
  }

  // Fully carried limbs: n[0..3] < 2^52 and n[4] <= 2^48 + 1, which puts the
  // value below 2^256 + 2^209 < 2p.
  Limbs carried() const {
    const std::uint64_t t0 = n_[0] + (n_[4] >> 48) * kC;
    const std::uint64_t t1 = n_[1] + (t0 >> 52);
    const std::uint64_t t2 = n_[2] + (t1 >> 52);
    const std::uint64_t t3 = n_[3] + (t2 >> 52);
    const std::uint64_t t4 = (n_[4] & kM48) + (t3 >> 52);
    return {t0 & kM52, t1 & kM52, t2 & kM52, t3 & kM52, t4};
  }

  Limbs n_{};
};

// The schoolbook product has nine columns, column k at 2^(52·k), and column
// k + 5 folds onto column k with 2^260 ≡ kR. Two interleaved accumulators
// keep every sum within 128 bits: column 8 first folds onto columns 3 and 4,
// then d sums columns 3 to 7 in turn and hands the low 52 bits of each of 5
// to 7 to c, which sums columns 0 to 3. Column 4 straddles 2^256: its bits
// from 2^48 up (tx) fold with kC.
inline Fe Fe::operator*(const Fe& o) const {
  const Limbs& a = n_;
  const Limbs& b = o.n_;
  u128 d = static_cast<u128>(a[0]) * b[3] + static_cast<u128>(a[1]) * b[2] +
           static_cast<u128>(a[2]) * b[1] + static_cast<u128>(a[3]) * b[0];
  u128 c = static_cast<u128>(a[4]) * b[4];
  d += static_cast<u128>(static_cast<std::uint64_t>(c) & kM52) * kR;
  c >>= 52;
  const std::uint64_t t3 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  d += static_cast<u128>(a[0]) * b[4] + static_cast<u128>(a[1]) * b[3] +
       static_cast<u128>(a[2]) * b[2] + static_cast<u128>(a[3]) * b[1] +
       static_cast<u128>(a[4]) * b[0];
  d += static_cast<u128>(static_cast<std::uint64_t>(c)) * kR;
  std::uint64_t t4 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  const std::uint64_t tx = t4 >> 48;
  t4 &= kM48;

  c = static_cast<u128>(a[0]) * b[0];
  d += static_cast<u128>(a[1]) * b[4] + static_cast<u128>(a[2]) * b[3] +
       static_cast<u128>(a[3]) * b[2] + static_cast<u128>(a[4]) * b[1];
  // Column 5's low limb (at 2^260) and tx (at 2^256) as one multiple of 2^256.
  const std::uint64_t u0 = (static_cast<std::uint64_t>(d) & kM52) << 4 | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kC;
  Fe r;
  r.n_[0] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a[0]) * b[1] + static_cast<u128>(a[1]) * b[0];
  d += static_cast<u128>(a[2]) * b[4] + static_cast<u128>(a[3]) * b[3] +
       static_cast<u128>(a[4]) * b[2];
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r.n_[1] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a[0]) * b[2] + static_cast<u128>(a[1]) * b[1] +
       static_cast<u128>(a[2]) * b[0];
  d += static_cast<u128>(a[3]) * b[4] + static_cast<u128>(a[4]) * b[3];
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r.n_[2] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(static_cast<std::uint64_t>(d)) * kR + t3;
  r.n_[3] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  r.n_[4] = static_cast<std::uint64_t>(c) + t4;
  return r;
}

// Same column schedule as operator*, with each cross product a_i·a_j (i ≠ j)
// taken once against a doubled operand.
inline Fe Fe::sqr() const {
  std::uint64_t a0 = n_[0], a4 = n_[4];
  const std::uint64_t a1 = n_[1], a2 = n_[2], a3 = n_[3];
  u128 d = static_cast<u128>(a0 * 2) * a3 + static_cast<u128>(a1 * 2) * a2;
  u128 c = static_cast<u128>(a4) * a4;
  d += static_cast<u128>(static_cast<std::uint64_t>(c) & kM52) * kR;
  c >>= 52;
  const std::uint64_t t3 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  a4 *= 2;
  d += static_cast<u128>(a0) * a4 + static_cast<u128>(a1 * 2) * a3 + static_cast<u128>(a2) * a2;
  d += static_cast<u128>(static_cast<std::uint64_t>(c)) * kR;
  std::uint64_t t4 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  const std::uint64_t tx = t4 >> 48;
  t4 &= kM48;

  c = static_cast<u128>(a0) * a0;
  d += static_cast<u128>(a1) * a4 + static_cast<u128>(a2 * 2) * a3;
  const std::uint64_t u0 = (static_cast<std::uint64_t>(d) & kM52) << 4 | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kC;
  Fe r;
  r.n_[0] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  a0 *= 2;
  c += static_cast<u128>(a0) * a1;
  d += static_cast<u128>(a2) * a4 + static_cast<u128>(a3) * a3;
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r.n_[1] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a0) * a2 + static_cast<u128>(a1) * a1;
  d += static_cast<u128>(a3) * a4;
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r.n_[2] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(static_cast<std::uint64_t>(d)) * kR + t3;
  r.n_[3] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  r.n_[4] = static_cast<std::uint64_t>(c) + t4;
  return r;
}

// A carried value is below 2p, so it is zero mod p exactly when its limbs
// spell 0 (z0 == 0) or p (z1 is all ones only for p's limbs).
inline bool Fe::is_zero() const {
  const Limbs t = carried();
  const std::uint64_t z0 = t[0] | t[1] | t[2] | t[3] | t[4];
  const std::uint64_t z1 =
      (t[0] ^ kP0 ^ kM52) & t[1] & t[2] & t[3] & (t[4] ^ kM48 ^ kM52);
  return (z0 == 0) | (z1 == kM52);
}

// A carried value is below 2p: at most one subtraction of p (done as + kC
// and dropping 2^256) remains, applied unconditionally with a 0/1
// multiplier.
inline Fe Fe::normalized() const {
  const Limbs t = carried();
  const std::uint64_t top = t[1] & t[2] & t[3];
  const std::uint64_t ge_p =
      (t[4] >> 48) | ((t[4] == kM48) & (top == kM52) & (t[0] >= kP0));
  const std::uint64_t t0 = t[0] + ge_p * kC;
  const std::uint64_t t1 = t[1] + (t0 >> 52);
  const std::uint64_t t2 = t[2] + (t1 >> 52);
  const std::uint64_t t3 = t[3] + (t2 >> 52);
  const std::uint64_t t4 = t[4] + (t3 >> 52);
  Fe r;
  r.n_ = {t0 & kM52, t1 & kM52, t2 & kM52, t3 & kM52, t4 & kM48};
  return r;
}

}  // namespace daric::crypto
