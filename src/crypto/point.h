// secp256k1 curve points (y^2 = x^3 + 7) with Jacobian-coordinate internals.
//
// Scalar multiplication strategy (see DESIGN.md → "Crypto hot path"):
//   * variable-point k·P uses width-5 wNAF over effective-affine precomputed
//     odd multiples (no field inversion anywhere on the path);
//   * k·G uses a fixed 8-bit-window precomputed generator table (signing
//     side — the window sequence is independent of the scalar);
//   * verification uses Strauss–Shamir interleaving (`mul_add_*_vartime`)
//     and, for many signatures, one multi-scalar sum
//     (`multi_mul_is_infinity_vartime`): a shared Strauss ladder for a few
//     terms, buckets (Pippenger) for many. Every ladder reads the generator
//     from one set of segment tables (odd multiples of G, 2^32·G, 2^64·G and
//     2^96·G); a PrecomputedPoint has the same layout.
// The `_vartime` suffix marks functions whose running time depends on their
// scalar inputs; they must only ever see public data (signatures, challenge
// scalars, public keys).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "src/crypto/field.h"
#include "src/crypto/scalar.h"

namespace daric::crypto {

class Point;
class PrecomputedPoint;

namespace detail {

/// Digit capacity of a width-w NAF: 256 bits plus one possible carry digit.
inline constexpr int kMaxNafLen = 257;

/// Width-w NAF of k (2 <= w <= 15): k = Σ naf[i]·2^i with every nonzero
/// digit odd and |digit| < 2^(w-1), and at most one nonzero digit in any w
/// consecutive positions. Writes naf[0, k.bit_length() + 1) and returns the
/// digit count (one past the top nonzero digit, 0 for k = 0). The recoding
/// behind every variable-time ladder; exposed for its tests and benchmark.
/// Variable time.
int wnaf(std::int16_t* naf, const U256& k, unsigned w);

/// The GLV split of k: k ≡ ±k1 ± k2·λ (mod n), with λ the cube root of
/// unity acting on points as φ(x, y) = (β·x, y). The magnitudes stay below
/// about 2^128, so every variable-time ladder walks two half-length wNAF
/// streams. Exposed for its tests.
struct GlvSplit {
  U256 k1{}, k2{};                  // magnitudes
  bool neg1 = false, neg2 = false;  // signs of the k1·P / k2·φ(P) terms
};
GlvSplit glv_split(const Scalar& k);

/// Segment layout of a PrecomputedPoint's tables and of the generator's:
/// kSegments tables of odd multiples of 2^(kSegmentDigits·j) times the base
/// point, j < kSegments. A ladder cuts each GLV half's wNAF (at most 129
/// digits) into kSegments chunks, adds chunk j from table j, and so doubles
/// only kSegmentDigits + 1 times: the last chunk also takes the carry digit
/// at position 128.
inline constexpr int kSegments = 4;
inline constexpr int kSegmentDigits = 32;

/// Entries per segment: of `pre`'s tables, or of the generator's when `pre`
/// is null.
int segment_size(const PrecomputedPoint* pre);
/// Entry m of segment j of those tables, (2m + 1)·2^(kSegmentDigits·j)
/// times the base point. Exposed for its tests.
Point segment_entry(const PrecomputedPoint* pre, int j, int m);

}  // namespace detail

class Point {
 public:
  /// Point at infinity.
  Point() = default;

  static Point generator();
  /// Constructs from affine coordinates; throws if not on the curve.
  static Point from_affine(const Fe& x, const Fe& y);
  /// Parses a 33-byte compressed encoding; nullopt on failure.
  static std::optional<Point> from_compressed(BytesView b);

  bool is_infinity() const { return infinity_; }
  const Fe& x() const { return x_; }
  const Fe& y() const { return y_; }

  Point operator+(const Point& o) const;
  Point dbl() const;
  Point neg() const;
  /// Scalar multiplication (width-5 wNAF; variable time in k).
  Point operator*(const Scalar& k) const;

  /// k*G using a precomputed table of generator multiples.
  static Point mul_gen(const Scalar& k);

  /// a·P + b·G in one Strauss–Shamir interleaved ladder. Variable time.
  static Point mul_add_vartime(const Scalar& a, const Point& p, const Scalar& b);

  /// Whether a·P + b·G is the point whose 33-byte compressed encoding is
  /// `enc` — a Schnorr signature's R, checked without lifting it to a point
  /// (no square root): its x must match in Jacobian coordinates, and one
  /// inversion then gives the y parity. False for a malformed encoding or
  /// an x ≥ p. Variable time.
  static bool mul_add_encodes_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                      BytesView enc);

  /// Same check against a key whose segment tables were precomputed once
  /// (a channel counterparty's fixed key): no per-call table build, and a
  /// chain of 33 doublings instead of 129. Variable time.
  static bool mul_add_encodes_vartime(const Scalar& a, const PrecomputedPoint& p,
                                      const Scalar& b, BytesView enc);

  /// Whether Σ coeffs[i]·points[i] + gen_coeff·G is the point at infinity —
  /// the core of batch signature verification. Variable time; requires
  /// coeffs.size() == points.size().
  static bool multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                            std::span<const Point> points,
                                            const Scalar& gen_coeff);

  /// multi_mul_is_infinity_vartime interleaves wNAF streams (Strauss) below
  /// this many nonzero terms (two per signature in a batch) and sums the
  /// affine inputs in buckets (Pippenger) from there on. BM_MultiMul
  /// (bench/bench_crypto.cpp, Release, one pinned CPU of a 4-CPU VM, two
  /// runs of six randomly interleaved repetitions) with the threshold
  /// set to SIZE_MAX and to 1 to force each method: Strauss wins at 16 terms
  /// (buckets 1.10–1.12× its median time), the two tie at 20 (1.02×), and
  /// buckets win from 24 (0.92–0.95×; 0.89–0.96× at 28). The engines'
  /// 2–5-signature update batches (4–10 terms) stay on Strauss.
  static constexpr std::size_t kBucketMinTerms = 24;

  /// Naive left-to-right double-and-add ladder. Kept as the benchmark
  /// baseline and as an independent cross-check oracle for the wNAF paths.
  static Point mul_ladder_vartime(const Point& p, const Scalar& k);

  bool operator==(const Point& o) const;

  /// 33-byte compressed SEC encoding; throws for infinity.
  Bytes compressed() const;

 private:
  Fe x_{}, y_{};
  bool infinity_ = true;
};

/// A point with its odd-multiples tables built once up front: width-5 odd
/// multiples of P, 2^32·P, 2^64·P and 2^96·P (8 entries each, 2 KB in all;
/// see detail::kSegments). A check against it cuts each 128-bit GLV half of
/// the scalar into four 32-digit chunks that share one 33-doubling chain,
/// and reads φ(P)'s stream from the same entries with x·β. Worth building for keys that verify many
/// signatures over their lifetime, such as a channel counterparty's fixed
/// keys. Movable, not copyable.
class PrecomputedPoint {
 public:
  explicit PrecomputedPoint(const Point& p);
  ~PrecomputedPoint();
  PrecomputedPoint(PrecomputedPoint&&) noexcept;
  PrecomputedPoint& operator=(PrecomputedPoint&&) noexcept;
  PrecomputedPoint(const PrecomputedPoint&) = delete;
  PrecomputedPoint& operator=(const PrecomputedPoint&) = delete;

  const Point& point() const;

 private:
  friend class Point;
  friend Point detail::segment_entry(const PrecomputedPoint*, int, int);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace daric::crypto
