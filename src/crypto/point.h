// secp256k1 curve points (y^2 = x^3 + 7) with Jacobian-coordinate internals.
//
// Scalar multiplication strategy (see DESIGN.md → "Crypto hot path"):
//   * variable-point k·P uses width-5 wNAF over effective-affine precomputed
//     odd multiples (no field inversion anywhere on the path);
//   * k·G uses a fixed 4-bit-window precomputed generator table (signing
//     side — access pattern independent of which window entries are hit);
//   * verification uses Strauss–Shamir interleaving (`mul_add_*_vartime`)
//     and, for many signatures, one multi-scalar sum
//     (`multi_mul_is_infinity_vartime`): a shared Strauss ladder for a few
//     terms, buckets (Pippenger) for many.
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

class PrecomputedPoint;

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

  /// Whether a·P + b·G == expect, compared in Jacobian coordinates so the
  /// verification hot path performs no field inversion. Variable time.
  static bool mul_add_equals_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                     const Point& expect);

  /// Same check against a key whose odd-multiples table was precomputed
  /// once (e.g. a channel counterparty's fixed key). Skips the per-call
  /// table build entirely. Variable time.
  static bool mul_add_equals_vartime(const Scalar& a, const PrecomputedPoint& p,
                                     const Scalar& b, const Point& expect);

  /// Whether Σ coeffs[i]·points[i] + gen_coeff·G is the point at infinity —
  /// the core of batch signature verification. Variable time; requires
  /// coeffs.size() == points.size().
  static bool multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                            std::span<const Point> points,
                                            const Scalar& gen_coeff);

  /// multi_mul_is_infinity_vartime interleaves wNAF streams (Strauss) below
  /// this many nonzero terms (two per signature in a batch) and adds the
  /// affine inputs into buckets (Pippenger) from there on. BM_MultiMul
  /// (bench/bench_crypto.cpp, Release, one pinned CPU of a 4-CPU VM, six
  /// alternating runs) with this constant set to SIZE_MAX and to 0 to force
  /// each method: Strauss wins at 24 terms (buckets 1.12× its median time),
  /// the two tie from 32 to 48 (1.01–1.06×, each ahead in about half the
  /// runs), and buckets win from 64 (0.76×). The engines' 2–5-signature
  /// update batches (4–10 terms) stay on Strauss.
  static constexpr std::size_t kBucketMinTerms = 32;

  /// Batch MSM variant taking an optional precomputed table per point
  /// (`pres` empty, or one entry per point, nullptr where none exists; a
  /// table also serves the point's negation). On the Strauss path, points
  /// with a table skip both the per-call table build and the shared
  /// normalization inversion; the bucket path needs no tables.
  static bool multi_mul_is_infinity_vartime(std::span<const Scalar> coeffs,
                                            std::span<const Point> points,
                                            std::span<const PrecomputedPoint* const> pres,
                                            const Scalar& gen_coeff);

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

/// A point with a wide (width-7) true-affine odd-multiples wNAF table built
/// once up front. Worth building for keys that verify many signatures over
/// their lifetime — a channel counterparty's fixed keys — where it removes
/// the per-verify effective-affine table construction from the ladder.
/// Movable, not copyable (the table is large and sharing is intentional).
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
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace daric::crypto
