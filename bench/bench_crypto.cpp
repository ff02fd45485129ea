// Crypto hot-path benchmarks (google-benchmark): field arithmetic, scalar
// multiplication, signing, signature verification, batch verification, the
// ledger round that consumes it and the punish round built on that. BM_*NaiveLadder variants
// re-run the full pre-optimization implementation (naive double-and-add
// ladder AND generic field arithmetic) so `tools/check.sh --bench` can record
// the speedup ratio in BENCH_crypto.json; the acceptance bar is
// schnorr_verify ≥ 3× over the naive ladder, with batch verification cheaper
// still per signature.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/crypto/ecdsa.h"
#include "src/crypto/field_lanes.h"
#include "src/crypto/keys.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/ledger/ledger.h"
#include "src/script/standard.h"
#include "src/store/backend.h"
#include "src/store/tower.h"
#include "src/tx/sighash.h"

namespace {

using namespace daric;  // NOLINT
using crypto::Point;
using crypto::Scalar;

// --- seed-faithful baseline ------------------------------------------------
// Reproduction of the verifier as it existed before the hot-path overhaul,
// so the recorded ratio covers the whole change, not just the ladder: the
// current library's field layer (one-limb folding, dedicated squaring, the
// sqrt addition chain, header inlining) would otherwise leak into the
// baseline and understate the speedup. Everything below mirrors the seed:
// generic 512-bit fold after every multiply, squaring via a full multiply,
// square-and-multiply inversion/square roots, Jacobian double-and-add over
// the raw scalar bits, a 4-bit Jacobian window for k*G, and an affine
// normalization (field inversion) after every point-level operation.
namespace seedref {

using crypto::U256;
using crypto::U512;

// Runtime-initialized like the seed's function-local static: keeps the
// modulus opaque to the optimizer, which would otherwise constant-fold the
// known-zero high limbs of c and collapse the generic fold into the fast one.
const crypto::modarith::Params& fp() {
  static const crypto::modarith::Params p{
      .m = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"),
      .c = U256::from_hex("1000003d1"),
  };
  return p;
}

U256 fmul(const U256& a, const U256& b) {
  return crypto::modarith::reduce512_generic(crypto::mul_full(a, b), fp());
}
U256 fsqr(const U256& a) { return fmul(a, a); }  // the seed had no dedicated squaring
U256 fadd(const U256& a, const U256& b) { return crypto::modarith::add_mod(a, b, fp()); }
U256 fsub(const U256& a, const U256& b) { return crypto::modarith::sub_mod(a, b, fp()); }

U256 fpow(const U256& base, const U256& exp) {
  U256 result(1);
  U256 acc = base;
  const unsigned bits = exp.bit_length();
  for (unsigned i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = fmul(result, acc);
    acc = fsqr(acc);
  }
  return result;
}

U256 finv(const U256& a) {
  U256 m_minus_2;
  crypto::sub_with_borrow(fp().m, U256(2), m_minus_2);
  return fpow(a, m_minus_2);
}

bool fsqrt(const U256& a, U256& out) {
  U256 exp;
  crypto::add_with_carry(fp().m, U256(1), exp);
  exp = crypto::shr(exp, 2);
  const U256 cand = fpow(a, exp);
  if (!(fsqr(cand) == a)) return false;
  out = cand;
  return true;
}

struct Jac {
  U256 x{}, y{}, z{};
  bool infinity = true;
};

Jac jac_dbl(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const U256 y2 = fsqr(p.y);
  const U256 s = fmul(fmul(U256(4), p.x), y2);
  const U256 m = fmul(U256(3), fsqr(p.x));
  const U256 xr = fsub(fsqr(m), fadd(s, s));
  const U256 yr = fsub(fmul(m, fsub(s, xr)), fmul(U256(8), fsqr(y2)));
  const U256 zr = fmul(fadd(p.y, p.y), p.z);
  return {xr, yr, zr, false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const U256 z1z1 = fsqr(p.z);
  const U256 z2z2 = fsqr(q.z);
  const U256 u1 = fmul(p.x, z2z2);
  const U256 u2 = fmul(q.x, z1z1);
  const U256 s1 = fmul(fmul(p.y, z2z2), q.z);
  const U256 s2 = fmul(fmul(q.y, z1z1), p.z);
  if (u1 == u2) {
    if (s1 == s2) return jac_dbl(p);
    return {};
  }
  const U256 h = fsub(u2, u1);
  const U256 hh = fsqr(h);
  const U256 hhh = fmul(h, hh);
  const U256 r = fsub(s2, s1);
  const U256 v = fmul(u1, hh);
  const U256 xr = fsub(fsub(fsqr(r), hhh), fadd(v, v));
  const U256 yr = fsub(fmul(r, fsub(v, xr)), fmul(s1, hhh));
  const U256 zr = fmul(fmul(p.z, q.z), h);
  return {xr, yr, zr, false};
}

struct Aff {
  U256 x{}, y{};
  bool infinity = true;
};

Aff from_jac(const Jac& p) {
  if (p.infinity) return {};
  const U256 zi = finv(p.z);
  const U256 zi2 = fsqr(zi);
  return {fmul(p.x, zi2), fmul(fmul(p.y, zi2), zi), false};
}

Jac jac_scalar_mul(const Jac& base, const U256& bits) {
  Jac acc;
  const unsigned n = bits.bit_length();
  for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (bits.bit(static_cast<unsigned>(i))) acc = jac_add(acc, base);
  }
  return acc;
}

// 4-bit-window table for k*G, entries kept in Jacobian form like the seed.
struct GenTable {
  std::array<std::array<Jac, 15>, 64> win;
};

const GenTable& gen_table() {
  static GenTable table;
  static std::once_flag once;
  std::call_once(once, [] {
    const Point g = Point::generator();
    Jac base{g.x().raw(), g.y().raw(), U256(1), false};
    for (int w = 0; w < 64; ++w) {
      Jac acc;
      for (int j = 0; j < 15; ++j) {
        acc = jac_add(acc, base);
        table.win[static_cast<std::size_t>(w)][static_cast<std::size_t>(j)] = acc;
      }
      for (int d = 0; d < 4; ++d) base = jac_dbl(base);
    }
  });
  return table;
}

Aff mul_gen(const U256& v) {
  if (v.is_zero()) return {};
  const GenTable& t = gen_table();
  Jac acc;
  for (int w = 0; w < 64; ++w) {
    const unsigned nib =
        static_cast<unsigned>(v.limb[static_cast<std::size_t>(w / 16)] >> (w % 16 * 4) & 0xf);
    if (nib != 0)
      acc = jac_add(acc, t.win[static_cast<std::size_t>(w)][static_cast<std::size_t>(nib - 1)]);
  }
  return from_jac(acc);
}

bool parse_compressed(BytesView b, Aff& out) {
  if (b.size() != 33 || (b[0] != 0x02 && b[0] != 0x03)) return false;
  const U256 xv = U256::from_be_bytes(b.subspan(1));
  if (xv >= fp().m) return false;
  U256 y;
  if (!fsqrt(fadd(fmul(fsqr(xv), xv), U256(7)), y)) return false;
  if (y.is_odd() != (b[0] == 0x03)) y = fsub(U256(0), y);
  out = {xv, y, false};
  return true;
}

// End-to-end seed verifier: parse R and s, hash the challenge, then one
// windowed generator multiplication, one double-and-add variable-point
// multiplication and one point addition — each normalizing back to affine
// with a full (square-and-multiply) field inversion, exactly as the seed's
// Point API forced.
bool verify(const Point& pk, const Hash256& msg, BytesView sig) {
  if (sig.size() != crypto::kSchnorrSigSize || pk.is_infinity()) return false;
  Aff r;
  if (!parse_compressed(sig.subspan(0, 33), r)) return false;
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (sv >= Scalar::order()) return false;
  // R's compressed encoding is sig[0:33] verbatim, so the challenge hash can
  // take it from the signature (same bytes the seed re-serialized).
  const Bytes data =
      concat({Bytes(sig.begin(), sig.begin() + 33), pk.compressed(), msg.view()});
  const U256 e = Scalar::from_be_bytes_reduce(crypto::Sha256::tagged("daric/schnorr", data).view()).raw();
  // s*G == R + e*P
  const Aff ep = from_jac(jac_scalar_mul({pk.x().raw(), pk.y().raw(), U256(1), false}, e));
  const Aff rhs = from_jac(jac_add({r.x, r.y, U256(1), r.infinity}, {ep.x, ep.y, U256(1), ep.infinity}));
  const Aff lhs = mul_gen(sv);
  if (lhs.infinity || rhs.infinity) return lhs.infinity == rhs.infinity;
  return lhs.x == rhs.x && lhs.y == rhs.y;
}

}  // namespace seedref

Scalar bench_scalar(const std::string& label) {
  return Scalar::from_be_bytes_reduce(
      crypto::Sha256::hash({reinterpret_cast<const Byte*>(label.data()), label.size()})
          .view());
}

// --- field arithmetic ------------------------------------------------------
// Dependent chains: each iteration consumes the previous result, so these
// time latency, the cost a point formula's critical path pays.

crypto::Fe bench_fe(const std::string& label) {
  return crypto::Fe::from_be_bytes_reduce(
      crypto::Sha256::hash({reinterpret_cast<const Byte*>(label.data()), label.size()}).view());
}

void BM_FeMul(benchmark::State& state) {
  crypto::Fe x = bench_fe("fe/x");
  const crypto::Fe y = bench_fe("fe/y");
  for (auto _ : state) {
    x = x * y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeMul);

void BM_FeSqr(benchmark::State& state) {
  crypto::Fe x = bench_fe("fe/x");
  for (auto _ : state) {
    x = x.sqr();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeSqr);

void BM_FeAdd(benchmark::State& state) {
  crypto::Fe x = bench_fe("fe/x");
  const crypto::Fe y = bench_fe("fe/y");
  for (auto _ : state) {
    x = x + y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeAdd);

void BM_FeInv(benchmark::State& state) {
  crypto::Fe x = bench_fe("fe/x");
  for (auto _ : state) {
    x = x.inv();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeInv);

// The addition chain is fixed, so the timing does not depend on whether the
// chained input happens to be a square.
void BM_FeSqrt(benchmark::State& state) {
  crypto::Fe x = bench_fe("fe/x");
  crypto::Fe root = bench_fe("fe/y");
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.sqrt(root));
    x = x + root;
  }
}
BENCHMARK(BM_FeSqrt);

// Square-root chains of one lane group (fe_lanes::kWidth values) through
// the dispatched batch: the IFMA lanes where the CPU has them (the label
// says which ran). Per root: 1 / items_per_second.
void BM_FeSqrtLanes(benchmark::State& state) {
  std::vector<crypto::Fe> x(crypto::fe_lanes::kWidth), root(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = bench_fe("fe/lanes/" + std::to_string(i));
  for (auto _ : state) {
    crypto::fe_lanes::sqrt_candidates(x, root);
    benchmark::DoNotOptimize(root.data());
    x[0] = x[0] + root[0];
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
  state.SetLabel(crypto::fe_lanes::ifma_available() ? "ifma" : "scalar");
}
BENCHMARK(BM_FeSqrtLanes);

// --- hashing ---------------------------------------------------------------
// SHA-256 through the process's compression kernel (SHA-NI where cpuid
// reports it): one padded block, and a 1 KiB message (17 blocks).

void BM_Sha256_55B(benchmark::State& state) {
  const Bytes data(55, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
}
BENCHMARK(BM_Sha256_55B);

void BM_Sha256_1k(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
}
BENCHMARK(BM_Sha256_1k);

// --- scalar multiplication -------------------------------------------------

// Width-5 wNAF recoding of a 128-bit GLV half-scalar, cycling through 64
// seeded values so the digit pattern varies.
void BM_Wnaf128(benchmark::State& state) {
  std::vector<crypto::U256> ks;
  for (int i = 0; i < 64; ++i) {
    const crypto::U256 v = bench_scalar("wnaf/" + std::to_string(i)).raw();
    ks.push_back({v.limb[0], v.limb[1], 0, 0});
  }
  std::int16_t naf[crypto::detail::kMaxNafLen];
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::detail::wnaf(naf, ks[i++ & 63], 5));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Wnaf128);

void BM_MulVarPointWnaf(benchmark::State& state) {
  const Point p = Point::mul_gen(bench_scalar("mul/p"));
  const Scalar k = bench_scalar("mul/k");
  for (auto _ : state) benchmark::DoNotOptimize(p * k);
}
BENCHMARK(BM_MulVarPointWnaf);

void BM_MulVarPointNaiveLadder(benchmark::State& state) {
  const Point p = Point::mul_gen(bench_scalar("mul/p"));
  const Scalar k = bench_scalar("mul/k");
  const seedref::Jac base{p.x().raw(), p.y().raw(), seedref::U256(1), false};
  for (auto _ : state)
    benchmark::DoNotOptimize(seedref::from_jac(seedref::jac_scalar_mul(base, k.raw())));
}
BENCHMARK(BM_MulVarPointNaiveLadder);

void BM_MulGen(benchmark::State& state) {
  const Scalar k = bench_scalar("mulgen/k");
  for (auto _ : state) benchmark::DoNotOptimize(Point::mul_gen(k));
}
BENCHMARK(BM_MulGen);

void BM_MulAddStrauss(benchmark::State& state) {
  const Point p = Point::mul_gen(bench_scalar("strauss/p"));
  const Scalar a = bench_scalar("strauss/a");
  const Scalar b = bench_scalar("strauss/b");
  for (auto _ : state) benchmark::DoNotOptimize(Point::mul_add_vartime(a, p, b));
}
BENCHMARK(BM_MulAddStrauss);

// Lifting N compressed keys at once (Point::from_compressed_batch), as a
// busy ledger round lifts its claims' keys and schnorr_verify_batch its R
// values: below 16 roots one at a time, from 16 on in IFMA lane groups
// where the CPU has them. Per point: 1 / items_per_second.
void BM_LiftCompressed(benchmark::State& state) {
  std::vector<Bytes> encs;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    encs.push_back(Point::mul_gen(bench_scalar("lift/" + std::to_string(i))).compressed());
  const std::vector<BytesView> views(encs.begin(), encs.end());
  for (auto _ : state) benchmark::DoNotOptimize(Point::from_compressed_batch(views));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LiftCompressed)->Arg(1)->Arg(16)->Arg(376);

// --- signature verification ------------------------------------------------

struct SigFixture {
  crypto::KeyPair kp = crypto::derive_keypair("bench-crypto");
  Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  Bytes schnorr_sig = crypto::schnorr_sign(kp.sk, msg);
  Bytes ecdsa_sig = crypto::ecdsa_sign(kp.sk, msg);
};

// The RFC 6979 path: HMAC-DRBG nonce plus a second mul_gen for the public key.
void BM_SchnorrSign(benchmark::State& state) {
  const SigFixture f;
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_sign(f.kp.sk, f.msg));
}
BENCHMARK(BM_SchnorrSign);

// The path every engine signs through (SignatureScheme::sign_with).
void BM_SchnorrSignWith(benchmark::State& state) {
  const SigFixture f;
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_sign(f.kp, f.msg));
}
BENCHMARK(BM_SchnorrSignWith);

void BM_SchnorrVerify(benchmark::State& state) {
  const SigFixture f;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::schnorr_verify(f.kp.pk, f.msg, f.schnorr_sig));
}
BENCHMARK(BM_SchnorrVerify);

// Verification against a counterparty key's precomputed table, as the
// engines do (SignatureScheme::verify_cached).
void BM_SchnorrVerifyCached(benchmark::State& state) {
  const SigFixture f;
  const crypto::PrecomputedPoint pre(f.kp.pk);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::schnorr_verify(pre, f.msg, f.schnorr_sig));
}
BENCHMARK(BM_SchnorrVerifyCached);

// Building one counterparty key's tables: a Daric party builds three per
// channel, once, before its first check.
void BM_PrecomputedPointBuild(benchmark::State& state) {
  const SigFixture f;
  for (auto _ : state) benchmark::DoNotOptimize(crypto::PrecomputedPoint(f.kp.pk));
}
BENCHMARK(BM_PrecomputedPointBuild);

void BM_SchnorrVerifyNaiveLadder(benchmark::State& state) {
  const SigFixture f;
  // Sanity-check once so the benchmark cannot silently time a failing path.
  if (!seedref::verify(f.kp.pk, f.msg, f.schnorr_sig)) {
    state.SkipWithError("seed-reference verify rejected a valid signature");
    return;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(seedref::verify(f.kp.pk, f.msg, f.schnorr_sig));
}
BENCHMARK(BM_SchnorrVerifyNaiveLadder);

void BM_EcdsaVerify(benchmark::State& state) {
  const SigFixture f;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ecdsa_verify(f.kp.pk, f.msg, f.ecdsa_sig));
}
BENCHMARK(BM_EcdsaVerify);

// --- batch verification ----------------------------------------------------

std::vector<crypto::SigBatchItem> make_batch(std::size_t n) {
  std::vector<crypto::SigBatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    const auto kp = crypto::derive_keypair("bench-batch" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(Bytes{static_cast<Byte>(i), 7});
    items.push_back({kp.pk, msg, crypto::schnorr_sign(kp.sk, msg)});
  }
  return items;
}

// items_per_second is the per-signature throughput; compare against
// 1/BM_SchnorrVerify to see the batching gain.
void BM_SchnorrVerifyBatch(benchmark::State& state) {
  const auto items = make_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_verify_batch(items));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrVerifyBatch)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// One batch-shaped sum (per signature a 128-bit randomizer times R and a
// full-width scalar times P, plus a generator term) on both sides of
// Point::kBucketMinTerms. Arg = number of nonzero terms. Setting that
// constant to 0 or to SIZE_MAX runs every size by one method, which is how
// the crossover was measured.
void BM_MultiMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Scalar> coeffs;
  std::vector<Point> points;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tag = "msm/" + std::to_string(i);
    Scalar k = bench_scalar(tag + "/k");
    if (i % 2 == 0) k = Scalar::from_u256(crypto::U256{k.raw().limb[0], k.raw().limb[1], 0, 0});
    coeffs.push_back(k);
    points.push_back(Point::mul_gen(bench_scalar(tag + "/p")));
  }
  const Scalar g = bench_scalar("msm/g");
  for (auto _ : state)
    benchmark::DoNotOptimize(Point::multi_mul_is_infinity_vartime(coeffs, points, g));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultiMul)
    ->Arg(16)->Arg(24)->Arg(32)->Arg(40)->Arg(48)->Arg(64)->Arg(128)->Arg(256)->Arg(1130);

// --- ledger round ------------------------------------------------------------

// N two-of-two commit spends due in one Ledger::advance_round(): the
// ledger::validate_transaction rung of the layer ladder, and the measurement
// behind the ledger's claim-pass threshold (src/ledger/ledger.cpp). With
// kOne, the middle commit carries a tampered s, so the round's batch fails
// after its full sum and is bisected (the parts that pass are proven, the
// rest verified inline); with kAll, every commit's first signature is
// tampered, so every part fails and the bisection stops at its bound. A
// fresh ledger per iteration mints the same funding outpoints, so the
// spends signed once stay valid; only the round itself is timed.
enum class BadSigs { kNone, kOne, kAll };

void ledger_round(benchmark::State& state, BadSigs bad_sigs) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& scheme = crypto::schnorr_scheme();
  const auto ka = crypto::derive_keypair("bench-round/a");
  const auto kb = crypto::derive_keypair("bench-round/b");
  const script::Script funding = script::multisig_2of2(ka.pk.compressed(), kb.pk.compressed());
  const auto fund = [&](ledger::Ledger& l) {
    std::vector<tx::OutPoint> ops;
    for (std::size_t i = 0; i < n; ++i)
      ops.push_back(l.mint(100'000, tx::Condition::p2wsh(funding)));
    return ops;
  };
  std::vector<tx::Transaction> commits;
  {
    ledger::Ledger l(1, scheme);
    for (const tx::OutPoint& op : fund(l)) {
      tx::Transaction t;
      t.inputs = {{op}};
      t.outputs = {{60'000, tx::Condition::p2wpkh(ka.pk.compressed())},
                   {40'000, tx::Condition::p2wpkh(kb.pk.compressed())}};
      t.witnesses.resize(1);
      t.witnesses[0].witness_script = funding;
      t.witnesses[0].stack = {
          Bytes{}, tx::sign_input(t, 0, ka, scheme, script::SighashFlag::kAll),
          tx::sign_input(t, 0, kb, scheme, script::SighashFlag::kAll)};
      commits.push_back(std::move(t));
    }
  }
  const auto is_bad = [&](std::size_t i) {
    return bad_sigs == BadSigs::kAll || (bad_sigs == BadSigs::kOne && i == n / 2);
  };
  for (std::size_t i = 0; i < n; ++i)
    if (is_bad(i)) commits[i].witnesses[0].stack[1][50] ^= 0x01;
  for (auto _ : state) {
    state.PauseTiming();
    auto l = std::make_unique<ledger::Ledger>(1, scheme);
    fund(*l);
    for (const tx::Transaction& t : commits) l->post_with_delay(t, 0);
    state.ResumeTiming();
    l->advance_round();
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i)
      if (l->is_confirmed(commits[i].txid()) == is_bad(i)) state.SkipWithError("unexpected verdict");
    l.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_LedgerRound(benchmark::State& state) { ledger_round(state, BadSigs::kNone); }
BENCHMARK(BM_LedgerRound)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(16)->Arg(64)->Arg(188);
void BM_LedgerRoundOneBadSig(benchmark::State& state) { ledger_round(state, BadSigs::kOne); }
BENCHMARK(BM_LedgerRoundOneBadSig)->Arg(188);
void BM_LedgerRoundManyBadSigs(benchmark::State& state) { ledger_round(state, BadSigs::kAll); }
BENCHMARK(BM_LedgerRoundManyBadSigs)->Arg(188);

// --- punish round ------------------------------------------------------------

// The layer ladder's tower round: one Environment::advance_round in which N
// revoked commits confirm. Each cheat's victim is online, so its own monitor
// punishes, and it has handed a TowerService on a MemoryBackend its package,
// so the tower reacts in the same round (the two posts race; the loser is
// rejected in a later, untimed round). Opening, updating and watching the
// fleet is set-up outside the timing, once per iteration: about a
// millisecond per channel, so each size runs a fixed number of iterations
// (left to the library's minimum time, the two sizes spent three minutes
// in set-up over five repetitions).
struct PunishFleet {
  sim::Environment env{2, crypto::schnorr_scheme()};
  store::MemoryBackend disk;
  store::TowerService tower{disk};
  std::vector<std::unique_ptr<daricch::DaricChannel>> channels;
};

std::unique_ptr<PunishFleet> open_punish_fleet(std::size_t n) {
  using sim::PartyId;
  auto f = std::make_unique<PunishFleet>();
  f->tower.begin_bulk_load();
  for (std::size_t i = 0; i < n; ++i) {
    channel::ChannelParams p;
    p.id = "bench-punish/" + std::to_string(i);
    p.cash_a = 500'000;
    p.cash_b = 500'000;
    p.t_punish = 6;
    auto& ch = *f->channels.emplace_back(std::make_unique<daricch::DaricChannel>(f->env, p));
    if (!ch.create() || !ch.update({400'000, 600'000, {}})) return nullptr;
    f->tower.watch(store::make_watch_entry(
        p, PartyId::kB, ch.funding_outpoint(), ch.party(PartyId::kA).pub(),
        ch.party(PartyId::kB).pub(), daricch::make_watchtower_package(ch.party(PartyId::kB))));
  }
  f->tower.end_bulk_load();
  f->tower.on_round(f->env.ledger());  // absorbs the set-up transactions
  PunishFleet* fleet = f.get();
  f->env.add_round_hook([fleet] { fleet->tower.on_round(fleet->env.ledger()); });
  for (auto& ch : f->channels) ch->publish_old_commit(PartyId::kA, 0);
  f->env.advance_round();  // the commits wait Δ = 2 rounds: the next one confirms them
  return f;
}

void BM_PunishRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<PunishFleet> f = open_punish_fleet(n);
    if (!f) {
      state.SkipWithError("a channel of the fleet did not open");
      break;
    }
    const obs::Counter& punished = f->env.metrics().counter("daric.punish.posted");
    state.ResumeTiming();
    f->env.advance_round();
    state.PauseTiming();
    if (punished.value() != n || f->tower.reactions() != n)
      state.SkipWithError("not every victim and the tower reacted");
    f.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PunishRound)->Arg(4)->Iterations(200);
BENCHMARK(BM_PunishRound)->Arg(188)->Iterations(10);

}  // namespace

DARIC_BENCHMARK_MAIN();
