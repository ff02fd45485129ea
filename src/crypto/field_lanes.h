// Field arithmetic on many elements at once: the square roots of a batch of
// compressed points (Point::from_compressed_batch) run here.
//
// The kernels step kWidth independent elements through the same operation.
// On x86-64 CPUs whose cpuid reports AVX-512F and AVX-512 IFMA, and whose
// XCR0 shows the zmm state enabled, they run as two vectors of eight 52-bit
// limb lanes (vpmadd52luq/vpmadd52huq); elsewhere the portable kernels loop
// over Fe. Both give the same values, and nothing but the CPU selects
// between them. DESIGN.md ("Field lanes") has the limb bounds.
#pragma once

#include <cstddef>
#include <span>

#include "src/crypto/field.h"

namespace daric::crypto::fe_lanes {

/// Elements one kernel call steps together.
inline constexpr std::size_t kWidth = 16;

/// The portable kernels, one Fe at a time: the fallback, and the reference
/// the IFMA kernels are tested against. For i < kWidth: out[i] = a[i]·b[i],
/// a[i]², and a[i].sqrt_candidate().
void mul_scalar(const Fe* a, const Fe* b, Fe* out);
void sqr_scalar(const Fe* a, Fe* out);
void sqrt_candidate_scalar(const Fe* a, Fe* out);
/// Replaces v[0, n), all nonzero, with their inverses: Montgomery's trick,
/// one Fe::inv in all. Throws std::domain_error if any value is zero.
void inverse_all_scalar(Fe* v, std::size_t n);
/// For i < n, with λ = num[i]·inv[i]: x3 = λ² − x1[i] − x2[i] replaces
/// x2[i] and λ·(x1[i] − x3) − y1[i] replaces num[i]. That is the affine sum
/// of (x1, y1) and (x2, y2) when num/inv⁻¹ is their chord's slope, or
/// (x1, y1) doubled when x2 = x1 and it is the tangent's.
void affine_steps_scalar(const Fe* x1, const Fe* y1, Fe* x2, Fe* num, const Fe* inv,
                         std::size_t n);

/// Whether this CPU runs the *_ifma kernels (always false off x86-64).
bool ifma_available();

/// Whether f's limbs are within what every IFMA kernel output keeps, so
/// that a chain can feed it to the next vpmadd52 as it is: limbs 0 to 3
/// below 2^52 and limb 4 at most 2^48. Exposed for the kernels' tests.
bool lane_reduced(const Fe& f);

/// The same kernels on AVX-512 IFMA. Call only when ifma_available(); off
/// x86-64 they do not exist to call.
void mul_ifma(const Fe* a, const Fe* b, Fe* out);
void sqr_ifma(const Fe* a, Fe* out);
void sqrt_candidate_ifma(const Fe* a, Fe* out);
/// inverse_all_scalar with the prefix products as kWidth interleaved
/// chains on the lanes (any n).
void inverse_all_ifma(Fe* v, std::size_t n);
void affine_steps_ifma(const Fe* x1, const Fe* y1, Fe* x2, Fe* num, const Fe* inv,
                       std::size_t n);

/// out[i] = a[i].sqrt_candidate() for every i (the spans have equal
/// sizes). A batch of kWidth or more runs in groups of kWidth on the IFMA
/// kernel where the CPU has it, the last group padded; a smaller batch, or
/// any batch elsewhere, runs one Fe at a time.
void sqrt_candidates(std::span<const Fe> a, std::span<Fe> out);

/// Fewest values inverse_all hands to the IFMA chains. Against the scalar
/// trick (-O2, one pinned CPU, best of 200): 0.93× its time at 16 values,
/// 1.20× faster at 32, 1.42× at 64, 3.0× at 565 and 1,130.
inline constexpr std::size_t kMinLaneInverses = 32;

/// inverse_all_scalar over v, or inverse_all_ifma from kMinLaneInverses
/// values on where the CPU has the lanes.
void inverse_all(std::span<Fe> v);

/// Fewest steps affine_steps hands to the IFMA lanes.
inline constexpr std::size_t kMinLaneSteps = 16;

/// affine_steps_scalar over the spans (all of one size), or
/// affine_steps_ifma from kMinLaneSteps steps on where the CPU has the
/// lanes.
void affine_steps(std::span<const Fe> x1, std::span<const Fe> y1, std::span<Fe> x2,
                  std::span<Fe> num, std::span<const Fe> inv);

}  // namespace daric::crypto::fe_lanes
