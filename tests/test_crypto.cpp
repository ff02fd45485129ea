// Unit tests for the from-scratch crypto substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/adaptor.h"
#include "src/crypto/ct.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/field_lanes.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/ripemd160.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sig_scheme.h"
#include "src/util/hex.h"

namespace daric {
namespace {

using crypto::Fe;
using crypto::Point;
using crypto::Scalar;
using crypto::U256;

Bytes str_bytes(std::string_view s) {
  return Bytes(reinterpret_cast<const Byte*>(s.data()),
               reinterpret_cast<const Byte*>(s.data()) + s.size());
}

// --- Constant-time comparison helpers ---------------------------------------

TEST(ConstantTime, CtEqualBytes) {
  const Bytes a = str_bytes("0123456789abcdef0123456789abcdef");
  Bytes b = a;
  EXPECT_TRUE(crypto::ct_equal(a, b));
  EXPECT_TRUE(crypto::ct_equal(Bytes{}, Bytes{}));

  b.front() ^= 0x01;  // mismatch in the first byte
  EXPECT_FALSE(crypto::ct_equal(a, b));
  b = a;
  b.back() ^= 0x80;  // mismatch in the last byte
  EXPECT_FALSE(crypto::ct_equal(a, b));

  // Length mismatch is never equal, even on a shared prefix.
  EXPECT_FALSE(crypto::ct_equal(a, BytesView(a).subspan(0, a.size() - 1)));
}

TEST(ConstantTime, CtIsZero) {
  EXPECT_TRUE(crypto::ct_is_zero(Bytes{}));
  EXPECT_TRUE(crypto::ct_is_zero(Bytes(32, 0)));
  Bytes b(32, 0);
  b[31] = 1;
  EXPECT_FALSE(crypto::ct_is_zero(b));
  b[31] = 0;
  b[0] = 0x80;
  EXPECT_FALSE(crypto::ct_is_zero(b));
}

TEST(ConstantTime, CtEqualScalar) {
  const Scalar x = crypto::derive_keypair("ct/x").sk;
  const Scalar y = crypto::derive_keypair("ct/y").sk;
  EXPECT_TRUE(crypto::ct_equal(x, x));
  EXPECT_FALSE(crypto::ct_equal(x, y));
  EXPECT_TRUE(crypto::ct_equal(Scalar(0), Scalar(0)));
  EXPECT_FALSE(crypto::ct_equal(Scalar(0), Scalar(1)));
}

// --- SHA-256 (FIPS 180-4 vectors) ------------------------------------------

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(crypto::Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(crypto::Sha256::hash(str_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(crypto::Sha256::hash(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = str_bytes("the quick brown fox jumps over the lazy dog and more data");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    crypto::Sha256 h;
    h.update({data.data(), split});
    h.update({data.data() + split, data.size() - split});
    EXPECT_EQ(h.finalize(), crypto::Sha256::hash(data));
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const Bytes d = str_bytes("x");
  EXPECT_NE(crypto::Sha256::double_hash(d), crypto::Sha256::hash(d));
  EXPECT_EQ(crypto::Sha256::double_hash(d),
            crypto::Sha256::hash(crypto::Sha256::hash(d).view()));
}

TEST(Sha256, TaggedHashDomainSeparates) {
  const Bytes d = str_bytes("msg");
  EXPECT_NE(crypto::Sha256::tagged("a", d), crypto::Sha256::tagged("b", d));
}

// The compression kernels, called directly: the portable one everywhere and
// the SHA-NI one where cpuid reports it. Each is driven through a padding
// written here, so neither Sha256's buffering nor its dispatch is involved.
using CompressFn = void (*)(std::uint32_t*, const Byte*, std::size_t);

std::vector<std::pair<std::string, CompressFn>> sha_kernels() {
  std::vector<std::pair<std::string, CompressFn>> k = {
      {"scalar", crypto::sha256_detail::compress_scalar}};
#if defined(__x86_64__)
  if (crypto::sha256_detail::shani_available())
    k.emplace_back("sha-ni", crypto::sha256_detail::compress_shani);
#endif
  std::string names;
  for (const auto& [name, fn] : k) names += (names.empty() ? "" : ", ") + name;
  std::printf("[   INFO   ] SHA-256 kernels run: %s\n", names.c_str());
  ::testing::Test::RecordProperty("sha256_kernels", names);
  return k;
}

Hash256 sha256_via(CompressFn compress, BytesView msg) {
  std::uint32_t st[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<Byte>(bits >> (8 * i)));
  compress(st, padded.data(), padded.size() / 64);
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i)
    out.data[i] = static_cast<Byte>(st[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

TEST(Sha256Kernels, NistVectorsOnEveryAvailableKernel) {
  const std::pair<Bytes, const char*> kVectors[] = {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {str_bytes("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {str_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                 "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {Bytes(1'000'000, 'a'), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [name, fn] : sha_kernels())
    for (const auto& [msg, want] : kVectors)
      EXPECT_EQ(sha256_via(fn, msg).hex(), want) << name << ", " << msg.size() << " bytes";
}

TEST(Sha256Kernels, RandomMessagesInRandomSplitsAgree) {
  const auto kernels = sha_kernels();
  std::uint64_t state = 0x5ba256;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 2000; ++i) {
    Bytes msg(next() % 301);
    for (Byte& b : msg) b = static_cast<Byte>(next());
    const Hash256 want = sha256_via(crypto::sha256_detail::compress_scalar, msg);
    for (const auto& [name, fn] : kernels)
      ASSERT_EQ(sha256_via(fn, msg), want) << name << ", message " << i;
    // The streaming hasher (dispatched kernel, one-call padding) over the
    // same bytes cut at random points.
    crypto::Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = std::min<std::size_t>(msg.size() - off, next() % 80);
      h.update({msg.data() + off, take});
      off += take;
    }
    ASSERT_EQ(h.finalize(), want) << "streaming, message " << i;
  }
}

// --- RIPEMD-160 (ISO test vectors) ------------------------------------------

TEST(Ripemd160, StandardVectors) {
  EXPECT_EQ(to_hex(crypto::ripemd160({}).view()),
            "9c1185a5c5e9fc54612808977ee8f548b2258d31");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes("abc")).view()),
            "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes("message digest")).view()),
            "5d0689ef49d2fae572b881b123a85ffa21595f36");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes(
                "abcdefghijklmnopqrstuvwxyz")).view()),
            "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
}

TEST(Ripemd160, Hash160IsRipemdOfSha) {
  const Bytes d = str_bytes("pubkey");
  EXPECT_EQ(crypto::hash160(d), crypto::ripemd160(crypto::Sha256::hash(d).view()));
}

// --- HMAC-SHA256 (RFC 4231) ---------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(crypto::hmac_sha256(key, str_bytes("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(crypto::hmac_sha256(str_bytes("Jefe"),
                                str_bytes("what do ya want for nothing?")).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(crypto::hmac_sha256(key, str_bytes(
                "Test Using Larger Than Block-Size Key - Hash Key First")).hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- U256 ---------------------------------------------------------------

TEST(U256Test, ByteRoundTrip) {
  const U256 v = U256::from_hex("0123456789abcdef0011223344556677fedcba98765432100123456789abcdef");
  EXPECT_EQ(U256::from_be_bytes(v.to_be_bytes()), v);
}

TEST(U256Test, AddCarry) {
  U256 max;
  max.limb = {~0ull, ~0ull, ~0ull, ~0ull};
  U256 out;
  EXPECT_EQ(crypto::add_with_carry(max, U256(1), out), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256Test, SubBorrow) {
  U256 out;
  EXPECT_EQ(crypto::sub_with_borrow(U256(0), U256(1), out), 1u);
  EXPECT_EQ(crypto::sub_with_borrow(U256(5), U256(3), out), 0u);
  EXPECT_EQ(out, U256(2));
}

TEST(U256Test, MulFull) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const U256 v(~0ull);
  const crypto::U512 p = crypto::mul_full(v, v);
  EXPECT_EQ(p.limb[0], 1ull);
  EXPECT_EQ(p.limb[1], ~0ull - 1);
  EXPECT_EQ(p.limb[2], 0ull);
}

TEST(U256Test, Ordering) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_LT(U256(~0ull), U256(0, 1, 0, 0));
  EXPECT_GT(U256(0, 0, 0, 1), U256(~0ull, ~0ull, ~0ull, 0));
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), 0u);
  EXPECT_EQ(U256(1).bit_length(), 1u);
  EXPECT_EQ(U256(0, 0, 0, 1ull << 63).bit_length(), 256u);
}

TEST(U256Test, Shr) {
  const U256 v = U256::from_hex("ff00000000000000000000000000000000");
  EXPECT_EQ(crypto::shr(v, 8), U256::from_hex("ff000000000000000000000000000000"));
}

// --- Field & scalar -------------------------------------------------------

TEST(FieldTest, AddSubInverse) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("a")).view());
  const Fe b = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("b")).view());
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ((a - a), Fe(0));
}

TEST(FieldTest, MulInverse) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("z")).view());
  EXPECT_EQ(a * a.inv(), Fe(1));
}

TEST(FieldTest, SqrtRoundTrip) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("sq")).view());
  const Fe sq = a.sqr();
  Fe root;
  ASSERT_TRUE(sq.sqrt(root));
  EXPECT_TRUE(root == a || root == a.neg());
}

TEST(FieldTest, NonResidueRejected) {
  // -1 is a non-residue mod p (p ≡ 3 mod 4).
  Fe root;
  EXPECT_FALSE(Fe(1).neg().sqrt(root));
}

// Lock-step differential test of the 5x52 limb kernels against modarith's
// 4x64 reference arithmetic, which shares no code with them. Results feed
// back into a register file, so most operands carry the unreduced limbs a
// previous operation left behind; fresh operands are biased toward the
// carry and reduction edges (0, 1, p-1, p-2, small values, and
// representatives at or above p near 2^256). Seeded, so a failure replays.
class FieldOracle {
 public:
  static constexpr const crypto::modarith::Params& kP = crypto::detail::kFieldParams;

  struct Reg {
    Fe fe;
    U256 ref;  // canonical value, < p
  };

  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
    return z ^ (z >> 31);
  }

  // A fresh operand, entered through each of Fe's constructors.
  Reg fresh() {
    U256 v;
    const std::uint64_t small = next() >> 31;  // < 2^33
    switch (next() % 9) {
      case 0: v = U256(next() % 3); break;                      // 0, 1, 2
      case 1: crypto::sub_with_borrow(kP.m, U256(1 + next() % 2), v); break;  // p-1, p-2
      case 2: v = U256(small); break;
      case 3: crypto::sub_with_borrow(U256(~0ull, ~0ull, ~0ull, ~0ull), U256(small), v); break;
      case 4:  // p..2^256-1, often p itself
        crypto::add_with_carry(kP.m, U256(next() % 2 == 0 ? small % 4 : small % 0x1000003d1), v);
        break;
      case 5:  // runs of ones across the limb boundaries at bits 52, 104, 156
        v = U256(next() | 0xfff0000000000000, next() | 0xff000000000, ~0ull, next());
        break;
      default: v = U256(next(), next(), next(), next()); break;
    }
    const U256 ref = crypto::modarith::add_mod(v, U256(0), kP);
    switch (next() % 3) {
      case 0: return {Fe::from_raw(v), ref};
      case 1: return {Fe::from_be_bytes_reduce(v.to_be_bytes()), ref};
      default:
        return {v.limb[1] == 0 && v.limb[2] == 0 && v.limb[3] == 0 ? Fe(v.limb[0])
                                                                   : Fe::from_u256(ref),
                ref};
    }
  }

  Reg& pick() { return regs[next() % regs.size()]; }
  Reg operand() { return next() % 4 == 0 ? fresh() : pick(); }

  std::array<Reg, 8> regs{};

 private:
  std::uint64_t state_ = 0x5eed;
};

::testing::AssertionResult observes_as(const Fe& fe, const U256& ref) {
  if (fe.raw() != ref) return ::testing::AssertionFailure() << "raw() differs";
  if (fe.is_zero() != ref.is_zero()) return ::testing::AssertionFailure() << "is_zero differs";
  if (fe.is_odd() != ref.is_odd()) return ::testing::AssertionFailure() << "is_odd differs";
  if (!(fe == Fe::from_raw(ref))) return ::testing::AssertionFailure() << "== differs";
  return ::testing::AssertionSuccess();
}

TEST(FieldOracleTest, LockStepWithModarithMillionSteps) {
  namespace ma = crypto::modarith;
  FieldOracle o;
  for (auto& r : o.regs) r = o.fresh();
  for (int step = 0; step < 1'000'000; ++step) {
    const FieldOracle::Reg a = o.operand();
    const FieldOracle::Reg b = o.operand();
    FieldOracle::Reg r;
    const int op = static_cast<int>(o.next() % 5);
    switch (op) {
      case 0: r = {a.fe + b.fe, ma::add_mod(a.ref, b.ref, o.kP)}; break;
      case 1: r = {a.fe - b.fe, ma::sub_mod(a.ref, b.ref, o.kP)}; break;
      case 2: r = {a.fe * b.fe, ma::mul_mod(a.ref, b.ref, o.kP)}; break;
      case 3: r = {a.fe.sqr(), ma::sqr_mod(a.ref, o.kP)}; break;
      default: r = {a.fe.neg(), ma::sub_mod(U256(0), a.ref, o.kP)}; break;
    }
    ASSERT_TRUE(observes_as(r.fe, r.ref)) << "step " << step << " op " << op;
    ASSERT_EQ(r.fe == b.fe, r.ref == b.ref) << "step " << step;
    o.pick() = r;
    if (step % 1000 == 0) {
      ASSERT_EQ(r.fe.to_be_bytes(), r.ref.to_be_bytes()) << "step " << step;
      if (!r.ref.is_zero()) {
        ASSERT_EQ(r.fe.inv().raw(), ma::inv_mod(r.ref, o.kP)) << "inv at step " << step;
      }
      U256 exp;  // (p + 1) / 4
      crypto::add_with_carry(o.kP.m, U256(1), exp);
      const U256 cand = ma::pow_mod(r.ref, crypto::shr(exp, 2), o.kP);
      Fe root;
      const bool is_qr = ma::sqr_mod(cand, o.kP) == r.ref;
      ASSERT_EQ(r.fe.sqrt(root), is_qr) << "sqrt at step " << step;
      if (is_qr) {
        ASSERT_EQ(root.raw(), cand) << "sqrt at step " << step;
      }
    }
  }
}

// Fe::inv (divsteps) in lock-step with modarith over 10^6 values from the
// FieldOracle mix, so the inputs carry the unreduced limbs that arithmetic
// leaves behind and the edge representatives up to the 2p bound. Every
// inverse multiplies back to 1 under modarith's independent multiply; every
// 1000th also equals modarith's Fermat inverse exactly. Inverses feed back
// into the registers, and zero must throw.
TEST(FieldInverse, LockStepWithModarithMillionValues) {
  namespace ma = crypto::modarith;
  FieldOracle o;
  for (auto& r : o.regs) r = o.fresh();
  int zeros = 0;
  for (int step = 0; step < 1'000'000; ++step) {
    const FieldOracle::Reg a = o.operand();
    if (a.ref.is_zero()) {
      ASSERT_THROW(a.fe.inv(), std::domain_error) << "step " << step;
      ++zeros;
      o.pick() = o.fresh();
      continue;
    }
    const Fe inv = a.fe.inv();
    const U256 got = inv.raw();
    ASSERT_EQ(ma::mul_mod(a.ref, got, o.kP), U256(1)) << "step " << step;
    if (step % 1000 == 0) {
      ASSERT_EQ(got, ma::inv_mod(a.ref, o.kP)) << "step " << step;
    }
    // Keep the registers moving: the inverse, or a product with it.
    o.pick() = o.next() % 2 == 0
                   ? FieldOracle::Reg{inv, got}
                   : FieldOracle::Reg{inv * a.fe + a.fe, ma::add_mod(U256(1), a.ref, o.kP)};
  }
  EXPECT_GT(zeros, 0);  // the mix reaches zero, so the throw is exercised
}

TEST(FieldInverse, EdgeValues) {
  namespace ma = crypto::modarith;
  const U256& p = Fe::modulus();
  U256 p_minus_1, p_plus_1;
  crypto::sub_with_borrow(p, U256(1), p_minus_1);
  crypto::add_with_carry(p, U256(1), p_plus_1);
  const U256 all_ones(~0ull, ~0ull, ~0ull, ~0ull);
  const Fe p_minus_1_fe = Fe::from_raw(p_minus_1);
  const std::pair<Fe, const char*> kCases[] = {
      {Fe(1), "1"},
      {p_minus_1_fe, "p-1"},
      {Fe::from_raw(U256(0x1000003d1)), "2^256 mod p"},
      {Fe::from_raw(p_plus_1), "p+1 (unreduced 1)"},
      {Fe::from_raw(all_ones), "2^256-1 (unreduced)"},
      {p_minus_1_fe + p_minus_1_fe, "(p-1)+(p-1) (unreduced limbs)"},
      {Fe(0) - p_minus_1_fe, "0-(p-1) (4p-offset limbs)"},
      {Fe::from_raw(all_ones) + Fe::from_raw(all_ones), "sum of two unreduced values"},
  };
  for (const auto& [v, name] : kCases) {
    const U256 ref = v.raw();
    ASSERT_FALSE(ref.is_zero()) << name;
    EXPECT_EQ(v.inv().raw(), ma::inv_mod(ref, crypto::detail::kFieldParams)) << name;
    EXPECT_EQ(v * v.inv(), Fe(1)) << name;
  }
  EXPECT_THROW(Fe(0).inv(), std::domain_error);
  EXPECT_THROW(Fe::from_raw(p).inv(), std::domain_error);  // p itself, unreduced zero
  EXPECT_THROW((Fe(5) - Fe(5)).inv(), std::domain_error);
  EXPECT_THROW((p_minus_1_fe + Fe(1)).inv(), std::domain_error);
}

// --- Field lanes -------------------------------------------------------------

// The lane kernels, called directly: the portable ones everywhere and the
// IFMA ones where cpuid and XCR0 report them. Each case skips on a CPU
// without IFMA, where the only kernels are Fe's own arithmetic.
struct LaneKernel {
  std::string name;
  void (*mul)(const Fe*, const Fe*, Fe*);
  void (*sqr)(const Fe*, Fe*);
  void (*sqrt_candidate)(const Fe*, Fe*);
  bool lane_outputs = false;  // outputs must pass fe_lanes::lane_reduced
};

std::vector<LaneKernel> lane_kernels() {
  namespace fl = crypto::fe_lanes;
  std::vector<LaneKernel> k = {
      {"scalar", fl::mul_scalar, fl::sqr_scalar, fl::sqrt_candidate_scalar}};
#if defined(__x86_64__)
  if (fl::ifma_available())
    k.push_back({"ifma", fl::mul_ifma, fl::sqr_ifma, fl::sqrt_candidate_ifma, true});
#endif
  std::string names;
  for (const LaneKernel& kernel : k) names += (names.empty() ? "" : ", ") + kernel.name;
  std::printf("[   INFO   ] field lane kernels run: %s\n", names.c_str());
  ::testing::Test::RecordProperty("field_lane_kernels", names);
  return k;
}

constexpr const char* kNoIfma =
    "this CPU (or its OS) has no AVX-512 IFMA lanes: the only lane kernels are Fe itself";

constexpr std::size_t kLanes = crypto::fe_lanes::kWidth;
constexpr int kLaneValues = 100'000;

// Values whose limbs sit at the reduction's edges, to aim products at: 0,
// 1, p-1, p-2, limbs of 2^52-1, single bits at the limb boundaries, and
// small multiples of 2^256 mod p. A product landing on one of the last is
// carried below 2^256 as limbs of 2^52-1 before its top bits fold back,
// and the fold's carry then lands exactly on 2^52 and ripples to the top
// limb.
std::vector<Fe> lane_targets() {
  const U256& p = Fe::modulus();
  U256 p1, p2;
  crypto::sub_with_borrow(p, U256(1), p1);
  crypto::sub_with_borrow(p, U256(2), p2);
  const std::uint64_t m52 = (std::uint64_t{1} << 52) - 1;
  std::vector<Fe> t = {Fe(0), Fe(1), Fe::from_raw(p1), Fe::from_raw(p2), Fe(m52), Fe(m52 + 1),
                       Fe::from_raw(U256(~0ull, ~0ull, ~0ull, ~0ull))};
  for (std::uint64_t k : {1u, 2u, 3u, 100u, 1000u}) t.push_back(Fe(0x1000003d1 * k));
  for (unsigned bit : {104u, 156u, 208u, 255u}) {
    U256 b;
    b.limb[bit / 64] = std::uint64_t{1} << (bit % 64);
    U256 below;
    crypto::sub_with_borrow(b, U256(1), below);
    t.push_back(Fe::from_raw(b));
    t.push_back(Fe::from_raw(below));
  }
  return t;
}

// The two chains, lanes and Fe, stay equal step for step: each lane kernel
// multiplies its own outputs by shared operands and squares them, over
// 10^5 values per operation. A quarter of the multiplications aim at a
// lane_targets() value (operand t·x⁻¹), and fresh FieldOracle values (edge
// representatives, unreduced limbs) keep entering. The lanes' outputs
// must also keep their limbs within what the next vpmadd52 reads whole
// (the kernels' API carries every input, which would hide a lapse).
TEST(FieldLanes, SquareAndMultiplyInLockStepWithFe) {
  if (!crypto::fe_lanes::ifma_available()) GTEST_SKIP() << kNoIfma;
  const std::vector<Fe> targets = lane_targets();
  for (const LaneKernel& k : lane_kernels()) {
    FieldOracle o;
    Fe lanes[kLanes], ref[kLanes], y[kLanes], got[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) lanes[i] = ref[i] = o.fresh().fe;
    for (int step = 0; step * static_cast<int>(kLanes) < kLaneValues; ++step) {
      for (std::size_t i = 0; i < kLanes; ++i) {
        const Fe& t = targets[o.next() % targets.size()];
        y[i] = o.next() % 4 == 0 && !ref[i].is_zero() ? t * ref[i].inv() : o.operand().fe;
      }
      k.mul(lanes, y, got);
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref[i] = ref[i] * y[i];
        ASSERT_EQ(got[i], ref[i]) << k.name << " mul, step " << step << " lane " << i;
        ASSERT_TRUE(!k.lane_outputs || crypto::fe_lanes::lane_reduced(got[i]))
            << k.name << " mul, step " << step << " lane " << i;
        lanes[i] = got[i];
      }
      k.sqr(lanes, got);
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref[i] = ref[i].sqr();
        ASSERT_EQ(got[i], ref[i]) << k.name << " sqr, step " << step << " lane " << i;
        ASSERT_TRUE(!k.lane_outputs || crypto::fe_lanes::lane_reduced(got[i]))
            << k.name << " sqr, step " << step << " lane " << i;
        lanes[i] = got[i];
      }
      if (step % 4 == 3)
        for (std::size_t i = o.next() % 2; i < kLanes; i += 2) lanes[i] = ref[i] = o.fresh().fe;
    }
  }
}

// The root chain over 10^5 values, squares and non-squares alike, against
// Fe::sqrt_candidate.
TEST(FieldLanes, RootChainMatchesFe) {
  if (!crypto::fe_lanes::ifma_available()) GTEST_SKIP() << kNoIfma;
  const auto kernels = lane_kernels();
  const std::vector<Fe> targets = lane_targets();
  FieldOracle o;
  Fe a[kLanes], want[kLanes], got[kLanes];
  for (int n = 0; n < kLaneValues; n += static_cast<int>(kLanes)) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Fe v = o.next() % 8 == 0 ? targets[o.next() % targets.size()] : o.fresh().fe;
      a[i] = i % 2 == 0 ? v.sqr() : v;
      want[i] = a[i].sqrt_candidate();
    }
    for (const LaneKernel& k : kernels) {
      k.sqrt_candidate(a, got);
      for (std::size_t i = 0; i < kLanes; ++i)
        ASSERT_EQ(got[i], want[i]) << k.name << ", value " << n + static_cast<int>(i);
    }
  }
}

// Montgomery's trick on every kernel, at sizes around the lane width and
// the dispatch threshold, against one Fe::inv per value; a zero anywhere
// throws, as Fe::inv does.
TEST(FieldLanes, InverseAllMatchesFe) {
  if (!crypto::fe_lanes::ifma_available()) GTEST_SKIP() << kNoIfma;
  namespace fl = crypto::fe_lanes;
  const std::pair<const char*, void (*)(Fe*, std::size_t)> kernels[] = {
      {"scalar", fl::inverse_all_scalar}, {"ifma", fl::inverse_all_ifma}};
  FieldOracle o;
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 100u, 1130u}) {
    std::vector<Fe> v;
    while (v.size() < n)
      if (const Fe x = o.fresh().fe; !x.is_zero()) v.push_back(x);
    for (const auto& [name, inverse_all] : kernels) {
      std::vector<Fe> got = v;
      inverse_all(got.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], v[i].inv()) << name << ", n = " << n << ", value " << i;
      got = v;
      got[n / 2] = Fe(0);
      EXPECT_THROW(inverse_all(got.data(), n), std::domain_error) << name << ", n = " << n;
    }
    std::vector<Fe> got = v;
    fl::inverse_all(got);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i] * v[i], Fe(1)) << "dispatched, n = " << n;
  }
}

// The bucket sum's affine additions on every kernel, across padded groups,
// against Fe's formulas; lane outputs keep their limbs within lane bounds.
TEST(FieldLanes, AffineStepsMatchFe) {
  if (!crypto::fe_lanes::ifma_available()) GTEST_SKIP() << kNoIfma;
  namespace fl = crypto::fe_lanes;
  const std::pair<const char*, decltype(&fl::affine_steps_scalar)> kernels[] = {
      {"scalar", fl::affine_steps_scalar}, {"ifma", fl::affine_steps_ifma}};
  FieldOracle o;
  for (const std::size_t n : {1u, 15u, 16u, 17u, 33u, 1000u}) {
    std::vector<Fe> x1(n), y1(n), x2(n), num(n), inv(n);
    for (std::size_t i = 0; i < n; ++i)
      for (Fe* v : {&x1[i], &y1[i], &x2[i], &num[i], &inv[i]}) *v = o.fresh().fe;
    for (const auto& [name, steps] : kernels) {
      std::vector<Fe> x3 = x2, y3 = num;
      steps(x1.data(), y1.data(), x3.data(), y3.data(), inv.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const Fe lambda = num[i] * inv[i];
        const Fe want_x = lambda.sqr() - x1[i] - x2[i];
        ASSERT_EQ(x3[i], want_x) << name << ", n = " << n << ", step " << i;
        ASSERT_EQ(y3[i], lambda * (x1[i] - want_x) - y1[i]) << name << ", n = " << n;
        if (std::string_view(name) == "ifma") {
          ASSERT_TRUE(fl::lane_reduced(x3[i]) && fl::lane_reduced(y3[i])) << n << "/" << i;
        }
      }
    }
  }
}

// The dispatched batch, on both sides of the lane width and with padded
// groups, against one root at a time.
TEST(FieldLanes, SqrtCandidatesMatchFeAtEverySize) {
  FieldOracle o;
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 48u}) {
    std::vector<Fe> a(n), got(n);
    for (Fe& v : a) v = o.fresh().fe;
    crypto::fe_lanes::sqrt_candidates(a, got);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], a[i].sqrt_candidate()) << n << "/" << i;
  }
}

// from_compressed_batch returns from_compressed's answer for every item,
// below, at and above the lane width, with valid points of both parities
// mixed with x ≥ p, x off the curve, bad prefixes and wrong lengths.
TEST(PointBatch, FromCompressedBatchMatchesFromCompressedItemByItem) {
  U256 p_plus;
  crypto::add_with_carry(Fe::modulus(), U256(5), p_plus);
  const auto point_enc = [](std::size_t i) {
    return Point::mul_gen(Scalar::from_u256(U256(1000 + i))).compressed();
  };
  const auto encoding = [&](std::size_t i) -> Bytes {
    Bytes e = point_enc(i);
    switch (i % 9) {
      case 0: case 1: return e;                                  // valid
      case 2: e[0] ^= 0x01; return e;                            // valid, the other parity
      case 3: e[32] = static_cast<Byte>(i); return e;            // often off the curve
      case 4: {                                                  // x ≥ p
        const Bytes x = (i % 2 == 0 ? p_plus : U256(~0ull, ~0ull, ~0ull, ~0ull)).to_be_bytes();
        std::copy(x.begin(), x.end(), e.begin() + 1);
        return e;
      }
      case 5: e[0] = i % 2 == 0 ? 0x04 : 0x00; return e;         // bad prefix
      case 6: e.resize(i % 2 == 0 ? 32 : 34); return e;          // wrong length
      case 7: return Bytes{};
      default: e[1] ^= 0x80; return e;                           // another x, maybe on the curve
    }
  };
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 33u, 376u}) {
    std::vector<Bytes> encs;
    for (std::size_t i = 0; i < n; ++i) encs.push_back(encoding(i));
    const std::vector<BytesView> views(encs.begin(), encs.end());
    const auto batch = Point::from_compressed_batch(views);
    ASSERT_EQ(batch.size(), n);
    std::size_t lifted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto single = Point::from_compressed(encs[i]);
      ASSERT_EQ(batch[i].has_value(), single.has_value()) << "n = " << n << ", item " << i;
      if (single) {
        EXPECT_EQ(*batch[i], *single) << "n = " << n << ", item " << i;
        ++lifted;
      }
    }
    if (n >= 15) {
      EXPECT_GT(lifted, 0u) << n;
      EXPECT_LT(lifted, n) << n;
    }
  }
}

// --- Known answers ---------------------------------------------------------
//
// Bytes produced by the 4x64 field this repo used before the 5x52 limbs. The
// cross-checks above all run on the field under test, so only fixed bytes
// catch a field that is consistently wrong.

TEST(KnownAnswer, DerivedPublicKeys) {
  const std::pair<const char*, const char*> kKeys[] = {
      {"", "0367ea4a6ea23674e5281a6164f8c25d3243a1882b067bce286d9311bc333fa4c1"},
      {"a", "024d9da49e2cdfe67920f1a841bc87d0febac52b9e062eb6eb75fdb5b191d881d9"},
      {"alice", "02b58a8444693b5f4f428e625d1f423c8f42619e27dbc562ac11cff61d65dde684"},
      {"bob", "033af63bff7665022f12789ebcbbcc19fd6b02fcbcc1345058a12998f42ef3d29f"},
      {"alice/main", "02621f942a9ced6ec0c5f28b7ae05cb7b192dfe29ce0247050e7bf488f017ce343"},
      {"bob/main", "0205c41b8fec95a0394ab4650125a07fb72aa7bb1cce0d3c114f5c85d06c81e7e9"},
      {"alice/rv/0", "02105f91f235262e1e3589d9c106569b8d49ffd77b015e452c2418b4da040e4acd"},
      {"bob/rv/1", "0334b7f9a5c1d192fc82298533d564a3f7019c66efb27c293c2627485061564043"},
      {"alice/sp/2", "038f3442dee64fdf18c3608681bb3153d76d13410d9625dfb570e535e72ba0cfac"},
      {"tower", "038bb71b6758eb79880b7ddc9fd8d6b82d14d1b54f3459e3ee37abda308cb59c35"},
      {"funding", "034a12f10870e4a1c2b99cf245672a568b5c1a3f19cc0d2750deffd76b10f06d29"},
      {"htlc/preimage", "03ee215391f6d7f42464ef65ab3c84cec05199e6b7087cd2666f51b18eb7cce1a9"},
      {"kat-12", "031a52814604b189c6659bd562bbe8fa385582a7ae8df8fb25de3889aad3f21b4c"},
      {"kat-13", "02606e0225aa1979fbefce70f9ad548ec7c0b1bff25e15a105197a53bdef147a09"},
      {"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
       "03ce292aaaf29b3d030a8af87379686827047d273c399b84c4d3ee1f69041e7b35"},
      {"label with spaces", "03c881f0d98ebaaf2d0cc3552dab873e869d6362a46fa412fc7861e335a99a120a"},
  };
  for (const auto& [label, hex] : kKeys) {
    const Point pk = crypto::derive_keypair(label).pk;
    EXPECT_EQ(to_hex(pk.compressed()), hex) << "label '" << label << "'";
    const auto parsed = Point::from_compressed(from_hex(hex));
    ASSERT_TRUE(parsed.has_value()) << label;
    EXPECT_EQ(*parsed, pk) << label;
  }
}

TEST(KnownAnswer, Signatures) {
  struct Vector {
    const char* schnorr_keypair;  // schnorr_sign(KeyPair, msg)
    const char* schnorr_sk;       // schnorr_sign(sk, msg), RFC 6979 nonce
    const char* ecdsa;
  };
  const Vector kVectors[] = {
      {"037c37dd6c1f644a2ddd664f19f3dc1387a4452d2c04fa66863508ef6c10ec8f34656eff493e482d217fa6ec"
       "4dcb4f6e1f5d70219e78a82bea9d941b91bfc62f06",
       "038186ce755e244ea3aaea2a366adc95bd7bc4fab8db9204639d53cd358f2d0ec82cd3a7ed61bbe48c03a4c9"
       "e2c0c7ca10765b0b53b9edfbea0082794af6b920ef",
       "045c514c16b0b5d3ab968e1c78333d14b4608af4f70c6450daa69e48ec62d5a059cd31054a77759f1bb12407"
       "db0e55a2bba3d9e2e1918489cc3444ae95d2775c"},
      {"0312c18e28b8bb401549dff7438b3cddb3a0434bafa71284858eac46b09764e2a9a1225074f2bcbd96f84b38"
       "b68c7a4f28b31802ac42754683005ad746dc3434ac",
       "0382af4f9a293079173eb3aedb698c5e27ec476fb9b17c0f9e780e2d4661d6254873be7bb464932995f6e8cd"
       "610c51ef96f209e6bd2e5741df07298258439a0512",
       "e7e9053f04bbc94cea3c2f77481621c9e66637d3fa55569d3aa9611201f2128f148d8392a84dbea73b76e580"
       "b1c662563cb45f3742576dff7c40f1cd9bd7738f"},
      {"0332f9bc451933eb07651ca5de87e4edec571b2a809b5f1f20af77914fab7ee7560b2274640d7c5a05ef5b34"
       "45b0cc4cd270864d7206e279801a3779f98bf1baf3",
       "02c7e41a29d9123e7da40a87115785eddb537306fb191ceeeb4573d87f325b2c8c6b27fd07bd5d05329d498c"
       "310cf3e345124b2865100e65c05acd56acf1bd096e",
       "6c41c030985776444b1c70b39d0e25b57a36d5e13521f9799a7666df10459d7a3461c094cf0fbb6161385fb7"
       "2a8bf0e963dfef388baf63e23d41e2eb30a3f274"},
      {"02cfe50725d8ef4fb0da0100f53a7795a37f8baebc321448fc1b590e643327b56b6e8d9151d6e83da631810f"
       "9044ca407f0178b6b524a56eeb2b0e28979438abae",
       "025b894347a401614545d54f3fe38ad8f65b2be9237b8ba5c18662c015fa42d7142f9f046a2ec0f9629315d7"
       "f6846645021555ad5aa96c17ad410ae843e4cd4895",
       "5d5e3f8607c29e7da07b79c089e59132f75ae952f2086a0b43be290548cf14fd39cbc17e62f465d5d289df8c"
       "424f1c8f6a0cc67e668ba106939180d5d7bd4c4e"},
  };
  for (std::size_t i = 0; i < std::size(kVectors); ++i) {
    const auto kp = crypto::derive_keypair("kat-sig-" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes("kat-msg-" + std::to_string(i)));
    EXPECT_EQ(to_hex(crypto::schnorr_sign(kp, msg)), kVectors[i].schnorr_keypair) << i;
    EXPECT_EQ(to_hex(crypto::schnorr_sign(kp.sk, msg)), kVectors[i].schnorr_sk) << i;
    EXPECT_EQ(to_hex(crypto::ecdsa_sign(kp.sk, msg)), kVectors[i].ecdsa) << i;
  }
}

TEST(KnownAnswer, AdaptorPreSignatures) {
  const std::pair<const char*, const char*> kPre[] = {
      {"023d2831da2d742d3e699cfa138f044d671676cf656fcdc7a16200f9b16bc10b5a",
       "62a97f7633e25dff23aa465ac571919e8efdad6b3bec64b02f4f35eb1dddc860"},
      {"029ece6fed4cda3600234ccd02b28215cc23866d3600eb1bb875f5e41518e1db57",
       "a3877bced29628b163e053b5a9fe44fbae002e58b65f506f6e03418d5466f99a"},
  };
  for (std::size_t i = 0; i < std::size(kPre); ++i) {
    const std::string n = std::to_string(i);
    const auto signer = crypto::derive_keypair("kat-adaptor-signer-" + n);
    const auto witness = crypto::derive_keypair("kat-adaptor-witness-" + n);
    const Hash256 msg = crypto::Sha256::hash(str_bytes("kat-adaptor-msg-" + n));
    const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
    EXPECT_EQ(to_hex(pre.r_hat.compressed()), kPre[i].first) << i;
    EXPECT_EQ(to_hex(pre.s_hat.to_be_bytes()), kPre[i].second) << i;
  }
}

TEST(KnownAnswer, GeneratorMultiples) {
  U256 n_minus_1;
  crypto::sub_with_borrow(Scalar::order(), U256(1), n_minus_1);
  const std::pair<U256, const char*> kMultiples[] = {
      {U256(1), "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"},
      {U256(2), "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"},
      {U256(3), "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"},
      {U256(0, 0, 1, 0), "028f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da"},
      {n_minus_1, "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"},
  };
  for (const auto& [k, hex] : kMultiples) {
    const Scalar s = Scalar::from_u256(k);
    EXPECT_EQ(to_hex(Point::mul_gen(s).compressed()), hex);
    EXPECT_EQ(to_hex((Point::generator() * s).compressed()), hex);
    EXPECT_EQ(to_hex(Point::mul_ladder_vartime(Point::generator(), s).compressed()), hex);
  }
}

TEST(ScalarTest, Arithmetic) {
  const Scalar a = Scalar::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("s1")).view());
  const Scalar b = Scalar::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("s2")).view());
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ(a * a.inv(), Scalar(1));
  EXPECT_EQ(a + a.neg(), Scalar(0));
}

TEST(ScalarTest, ReductionIsCanonical) {
  // Order + 5 reduces to 5.
  U256 v = Scalar::order();
  U256 out;
  crypto::add_with_carry(v, U256(5), out);
  EXPECT_EQ(Scalar::from_be_bytes_reduce(out.to_be_bytes()), Scalar(5));
}

// --- Curve points --------------------------------------------------------

TEST(PointTest, GeneratorOnCurve) {
  const Point g = Point::generator();
  EXPECT_FALSE(g.is_infinity());
  EXPECT_EQ(g.y().sqr(), g.x().sqr() * g.x() + Fe(7));
}

TEST(PointTest, AdditionMatchesScalarMul) {
  const Point g = Point::generator();
  EXPECT_EQ(g + g, g * Scalar(2));
  EXPECT_EQ(g + g + g, g * Scalar(3));
  EXPECT_EQ(g.dbl(), g * Scalar(2));
}

TEST(PointTest, MulGenMatchesGenericMul) {
  for (int i = 1; i <= 20; ++i) {
    const Scalar k = Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes("k" + std::to_string(i))).view());
    EXPECT_EQ(Point::mul_gen(k), Point::generator() * k);
  }
}

TEST(PointTest, NegCancels) {
  const Point p = Point::mul_gen(Scalar(42));
  EXPECT_TRUE((p + p.neg()).is_infinity());
}

TEST(PointTest, InfinityIdentity) {
  const Point p = Point::mul_gen(Scalar(7));
  EXPECT_EQ(p + Point(), p);
  EXPECT_EQ(Point() + p, p);
}

TEST(PointTest, CompressedRoundTrip) {
  for (int i = 1; i <= 10; ++i) {
    const Point p = Point::mul_gen(Scalar(static_cast<std::uint64_t>(i * 1234567)));
    const auto back = Point::from_compressed(p.compressed());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(PointTest, BadCompressedRejected) {
  Bytes junk(33, 0xff);
  junk[0] = 0x02;
  EXPECT_FALSE(Point::from_compressed(junk).has_value());
  EXPECT_FALSE(Point::from_compressed(Bytes{0x04}).has_value());
}

TEST(PointTest, ScalarMulDistributes) {
  const Scalar a(12345), b(67890);
  EXPECT_EQ(Point::mul_gen(a + b), Point::mul_gen(a) + Point::mul_gen(b));
}

// --- Schnorr ----------------------------------------------------------------

TEST(Schnorr, SignVerify) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("hello"));
  const Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  EXPECT_EQ(sig.size(), crypto::kSchnorrSigSize);
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Bytes sig = crypto::schnorr_sign(kp.sk, crypto::Sha256::hash(str_bytes("m1")));
  EXPECT_FALSE(crypto::schnorr_verify(kp.pk, crypto::Sha256::hash(str_bytes("m2")), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const auto other = crypto::derive_keypair("other");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  EXPECT_FALSE(crypto::schnorr_verify(other.pk, msg, crypto::schnorr_sign(kp.sk, msg)));
}

TEST(Schnorr, RejectsMalleatedSignature) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  for (std::size_t i = 0; i < sig.size(); i += 9) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(crypto::schnorr_verify(kp.pk, msg, bad)) << "byte " << i;
  }
}

TEST(Schnorr, DeterministicSignatures) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  EXPECT_EQ(crypto::schnorr_sign(kp.sk, msg), crypto::schnorr_sign(kp.sk, msg));
}

// --- ECDSA ----------------------------------------------------------------

TEST(Ecdsa, SignVerify) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("hello"));
  const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  EXPECT_EQ(sig.size(), crypto::kEcdsaSigSize);
  EXPECT_TRUE(crypto::ecdsa_verify(kp.pk, msg, sig));
}

TEST(Ecdsa, LowS) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  for (int i = 0; i < 8; ++i) {
    const Hash256 msg = crypto::Sha256::hash(str_bytes("m" + std::to_string(i)));
    const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
    const U256 s = U256::from_be_bytes(BytesView(sig).subspan(32));
    EXPECT_LE(s, crypto::shr(Scalar::order(), 1));
  }
}

TEST(Ecdsa, RejectsTamper) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  sig[5] ^= 1;
  EXPECT_FALSE(crypto::ecdsa_verify(kp.pk, msg, sig));
}

// --- Adaptor signatures -------------------------------------------------

TEST(Adaptor, PreSignAdaptExtract) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));

  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  EXPECT_TRUE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk, pre));

  const Bytes sig = crypto::adaptor_adapt(pre, witness.sk);
  EXPECT_TRUE(crypto::schnorr_verify(signer.pk, msg, sig));

  EXPECT_EQ(crypto::adaptor_extract(sig, pre), witness.sk);
}

TEST(Adaptor, PreSigIsNotAValidSignature) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  const Bytes as_sig = concat({pre.r_hat.compressed(), pre.s_hat.to_be_bytes()});
  EXPECT_FALSE(crypto::schnorr_verify(signer.pk, msg, as_sig));
}

TEST(Adaptor, PreVerifyRejectsWrongStatement) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const auto wrong = crypto::derive_keypair("adaptor-wrong");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, wrong.pk, pre));
}

// --- Scheme abstraction ------------------------------------------------

TEST(SigScheme, SchnorrAndEcdsaInterchangeable) {
  const auto kp = crypto::derive_keypair("scheme-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  for (const crypto::SignatureScheme* s :
       {&crypto::schnorr_scheme(), &crypto::ecdsa_scheme()}) {
    const Bytes sig = s->sign(kp.sk, msg);
    EXPECT_EQ(sig.size(), s->signature_size());
    EXPECT_TRUE(s->verify(kp.pk, msg, sig)) << s->name();
  }
}

TEST(SigScheme, AdaptorSupportFlags) {
  EXPECT_TRUE(crypto::schnorr_scheme().supports_adaptor());
  EXPECT_FALSE(crypto::ecdsa_scheme().supports_adaptor());
}

TEST(SigScheme, CountingSchemeCounts) {
  crypto::op_counters().reset();
  crypto::CountingScheme counting(crypto::schnorr_scheme());
  const auto kp = crypto::derive_keypair("count");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  const Bytes sig = counting.sign(kp.sk, msg);
  counting.verify(kp.pk, msg, sig);
  counting.verify(kp.pk, msg, sig);
  EXPECT_EQ(crypto::op_counters().signs.load(), 1u);
  EXPECT_EQ(crypto::op_counters().verifies.load(), 2u);
}

// Deterministic key derivation: distinct labels, distinct keys.
TEST(Keys, DistinctLabelsDistinctKeys) {
  EXPECT_FALSE(crypto::derive_keypair("x").sk == crypto::derive_keypair("y").sk);
  EXPECT_EQ(crypto::derive_keypair("x").sk, crypto::derive_keypair("x").sk);
}

// Algebraic-law sweeps over pseudo-random elements.
class AlgebraSweep : public ::testing::TestWithParam<int> {
 protected:
  Fe fe(const std::string& label) const {
    return Fe::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes(label + std::to_string(GetParam()))).view());
  }
  Scalar sc(const std::string& label) const {
    return Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes(label + std::to_string(GetParam()))).view());
  }
};

TEST_P(AlgebraSweep, FieldRingLaws) {
  const Fe a = fe("a"), b = fe("b"), c = fe("c");
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a * Fe(1), a);
  EXPECT_EQ(a + Fe(0), a);
}

TEST_P(AlgebraSweep, FieldInverseAndSqrt) {
  const Fe a = fe("inv");
  if (!a.is_zero()) {
    EXPECT_EQ(a * a.inv(), Fe(1));
    EXPECT_EQ(a.inv().inv(), a);
  }
  Fe root;
  ASSERT_TRUE(a.sqr().sqrt(root));
  EXPECT_EQ(root.sqr(), a.sqr());
}

TEST_P(AlgebraSweep, ScalarFieldLaws) {
  const Scalar a = sc("x"), b = sc("y");
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a - b, (b - a).neg());
  if (!b.is_zero()) {
    EXPECT_EQ(a * b * b.inv(), a);
  }
}

TEST_P(AlgebraSweep, GroupHomomorphism) {
  // φ(k) = k·G is a homomorphism: φ(a+b) = φ(a) + φ(b), φ(ab) = a·φ(b).
  const Scalar a = sc("g1"), b = sc("g2");
  EXPECT_EQ(Point::mul_gen(a + b), Point::mul_gen(a) + Point::mul_gen(b));
  EXPECT_EQ(Point::mul_gen(a * b), Point::mul_gen(b) * a);
  EXPECT_TRUE((Point::mul_gen(a) + Point::mul_gen(a.neg())).is_infinity());
}

TEST_P(AlgebraSweep, PointAdditionLaws) {
  const Point p = Point::mul_gen(sc("p"));
  const Point q = Point::mul_gen(sc("q"));
  const Point r = Point::mul_gen(sc("r"));
  EXPECT_EQ(p + q, q + p);
  EXPECT_EQ((p + q) + r, p + (q + r));
  EXPECT_EQ(p + p, p.dbl());
}

INSTANTIATE_TEST_SUITE_P(Random, AlgebraSweep, ::testing::Range(0, 8));

class SchnorrSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrSweep, RoundTripManyKeys) {
  const int i = GetParam();
  const auto kp = crypto::derive_keypair("sweep" + std::to_string(i));
  const Hash256 msg = crypto::Sha256::hash(str_bytes("msg" + std::to_string(i)));
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, crypto::schnorr_sign(kp.sk, msg)));
  EXPECT_TRUE(crypto::ecdsa_verify(kp.pk, msg, crypto::ecdsa_sign(kp.sk, msg)));
}

INSTANTIATE_TEST_SUITE_P(Keys, SchnorrSweep, ::testing::Range(0, 12));

// --- wNAF / Strauss–Shamir cross-checks -----------------------------------
//
// The verification hot path (wNAF tables, Strauss–Shamir interleaving,
// batch RLC) must agree with the reference bit-at-a-time ladder on random
// inputs. Scalars are derived by hashing a counter so failures reproduce.

Scalar sweep_scalar(std::string_view label, int i) {
  return Scalar::from_be_bytes_reduce(
      crypto::Sha256::hash(str_bytes(std::string(label) + std::to_string(i))).view());
}

TEST(MulCrossCheck, WnafAndStraussAgreeWithNaiveLadder1k) {
  for (int i = 0; i < 1000; ++i) {
    const Scalar a = sweep_scalar("xchk-a", i);
    const Scalar b = sweep_scalar("xchk-b", i);
    const Point p = Point::mul_gen(sweep_scalar("xchk-p", i));
    const Point ladder = Point::mul_ladder_vartime(p, a);
    ASSERT_EQ(p * a, ladder) << "wNAF mismatch at i=" << i;
    ASSERT_EQ(Point::mul_add_vartime(a, p, b), ladder + Point::mul_gen(b))
        << "Strauss–Shamir mismatch at i=" << i;
  }
}

TEST(MulCrossCheck, EdgeScalars) {
  const Point p = Point::mul_gen(sweep_scalar("edge-p", 0));
  EXPECT_TRUE((p * Scalar(0)).is_infinity());
  EXPECT_EQ(p * Scalar(1), p);
  EXPECT_EQ(p * Scalar(1).neg(), p.neg());
  // Order-adjacent scalars exercise the wNAF carry chain.
  const Scalar minus_two = Scalar(2).neg();
  EXPECT_EQ(p * minus_two, Point::mul_ladder_vartime(p, minus_two));
  EXPECT_EQ(Point::mul_add_vartime(Scalar(0), p, Scalar(0)),
            Point::mul_ladder_vartime(p, Scalar(0)));
}

// Scalars at the edges of the segmented ladders (a PrecomputedPoint's and
// the generator's tables, detail::kSegments): 0, 1, n − 1 and n − 2; powers
// of two and their neighbours at the 32-digit chunk boundaries; λ, whose GLV
// split has a zero k1 (1's has a zero k2); and, found by search, scalars
// whose k1 or k2 wNAF carries a digit to position 128 at the P tables'
// width 5 or the generator's 11.
// λ: k·λ acts on a point P as φ(P) = (β·x, y).
Scalar glv_lambda() {
  return Scalar::from_u256(U256::from_hex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"));
}

std::vector<Scalar> segment_edge_scalars() {
  std::vector<Scalar> out = {Scalar(0), Scalar(1), Scalar(1).neg(), Scalar(2).neg()};
  for (const unsigned bit : {31u, 32u, 63u, 64u, 95u, 96u, 127u, 128u, 255u}) {
    U256 v;
    v.limb[bit / 64] = std::uint64_t{1} << (bit % 64);
    const Scalar s = Scalar::from_u256(v);
    for (const Scalar& e : {s, s - Scalar(1), s + Scalar(1)}) out.push_back(e);
  }
  out.push_back(glv_lambda());
  out.push_back(glv_lambda().neg());
  for (const unsigned w : {5u, 11u}) {
    for (const bool second_half : {false, true}) {
      for (int i = 0;; ++i) {
        const Scalar k = sweep_scalar("carry-128", i);
        const crypto::detail::GlvSplit sp = crypto::detail::glv_split(k);
        std::int16_t naf[crypto::detail::kMaxNafLen];
        if (crypto::detail::wnaf(naf, second_half ? sp.k2 : sp.k1, w) == 129) {
          out.push_back(k);
          break;
        }
      }
    }
  }
  return out;
}

TEST(MulCrossCheck, MulAddEqualsMatchesExplicitComputation) {
  // The zero halves the edge list relies on.
  EXPECT_TRUE(crypto::detail::glv_split(glv_lambda()).k1.is_zero());
  EXPECT_TRUE(crypto::detail::glv_split(Scalar(1)).k2.is_zero());

  const auto check = [](const Scalar& a, const Point& p, const crypto::PrecomputedPoint& pre,
                        const Scalar& b, const std::string& where) {
    const Point expect = Point::mul_ladder_vartime(p, a) + Point::mul_gen(b);
    EXPECT_EQ(Point::mul_add_vartime(a, p, b), expect) << where;
    if (expect.is_infinity()) {
      EXPECT_FALSE(Point::mul_add_encodes_vartime(a, pre, b, Point::generator().compressed()))
          << where;
      return;
    }
    EXPECT_TRUE(Point::mul_add_encodes_vartime(a, p, b, expect.compressed())) << where;
    EXPECT_TRUE(Point::mul_add_encodes_vartime(a, pre, b, expect.compressed())) << where;
    EXPECT_FALSE(Point::mul_add_encodes_vartime(a, p, b, (expect + p).compressed())) << where;
    // Same x, other y parity.
    EXPECT_FALSE(Point::mul_add_encodes_vartime(a, p, b, expect.neg().compressed())) << where;
    EXPECT_FALSE(Point::mul_add_encodes_vartime(a, pre, b, expect.neg().compressed())) << where;
    // The batch MSM's Strauss path walks the same generator segments.
    const std::array<Scalar, 2> coeffs = {a, Scalar(1)};
    const std::array<Point, 2> points = {p, expect.neg()};
    EXPECT_TRUE(Point::multi_mul_is_infinity_vartime(coeffs, points, b)) << where;
  };
  for (int i = 0; i < 32; ++i) {
    const Point p = Point::mul_gen(sweep_scalar("eq-p", i));
    const crypto::PrecomputedPoint pre(p);
    check(sweep_scalar("eq-a", i), p, pre, sweep_scalar("eq-b", i), "i=" + std::to_string(i));
  }
  // Edge scalars on either side, against a random point and against ±G,
  // where the P and G streams add the same points.
  const std::vector<Scalar> edges = segment_edge_scalars();
  const Point p = Point::mul_gen(sweep_scalar("eq-edge-p", 0));
  const crypto::PrecomputedPoint pre(p);
  const crypto::PrecomputedPoint pre_g(Point::generator());
  const crypto::PrecomputedPoint pre_minus_g(Point::generator().neg());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::string where = "edge " + std::to_string(i);
    const Scalar r = sweep_scalar("eq-edge-r", static_cast<int>(i));
    check(edges[i], p, pre, r, where + " as a");
    check(r, p, pre, edges[i], where + " as b");
    check(edges[i], p, pre, edges[i], where + " as both");
    check(edges[i], p, pre, edges[edges.size() - 1 - i], where + " against the reversed list");
    check(edges[i], Point::generator(), pre_g, edges[i], where + " on G");
    check(edges[i], Point::generator().neg(), pre_minus_g, r, where + " on -G");
  }
}

TEST(PrecomputedPoint, SegmentEntriesMatchTheLadder) {
  using crypto::detail::kSegmentDigits;
  using crypto::detail::kSegments;
  // Entry m of segment j is (2m + 1)·2^(32j)·base: the segment base from a
  // ladder over the whole power of two, the odd multiple from a short one.
  const auto check = [](const crypto::PrecomputedPoint* pre, const Point& base,
                        const std::string& what) {
    const int size = crypto::detail::segment_size(pre);
    for (int j = 0; j < kSegments; ++j) {
      U256 pow2;
      const unsigned bit = static_cast<unsigned>(kSegmentDigits * j);
      pow2.limb[bit / 64] = std::uint64_t{1} << (bit % 64);
      const Point seg_base = Point::mul_ladder_vartime(base, Scalar::from_u256(pow2));
      for (int m = 0; m < size; ++m) {
        const Scalar odd(static_cast<std::uint64_t>(2 * m + 1));
        const Point want = Point::mul_ladder_vartime(seg_base, odd);
        ASSERT_EQ(crypto::detail::segment_entry(pre, j, m), want)
            << what << ", segment " << j << ", entry " << m;
      }
    }
    EXPECT_THROW(crypto::detail::segment_entry(pre, kSegments, 0), std::out_of_range);
    EXPECT_THROW(crypto::detail::segment_entry(pre, 0, size), std::out_of_range);
  };
  EXPECT_EQ(crypto::detail::segment_size(nullptr), 512);
  check(nullptr, Point::generator(), "generator");
  for (int i = 0; i < 8; ++i) {
    const Point p = Point::mul_gen(sweep_scalar("segment-key", i));
    const crypto::PrecomputedPoint pre(p);
    EXPECT_EQ(crypto::detail::segment_size(&pre), 8);
    check(&pre, p, "key " + std::to_string(i));
  }
}

// --- wNAF recoding ------------------------------------------------------------
//
// detail::wnaf (word-level windows) against the textbook loop it replaced,
// kept here as the reference, and against the NAF properties themselves.

int wnaf_reference(std::int16_t* naf, U256 k, unsigned w) {
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  int len = 0;
  while (!k.is_zero()) {
    std::int64_t d = 0;
    if (k.is_odd()) {
      d = static_cast<std::int64_t>(k.limb[0] & mask);
      if (d > std::int64_t{1} << (w - 1)) d -= std::int64_t{1} << w;
      if (d >= 0)
        crypto::sub_with_borrow(k, U256(static_cast<std::uint64_t>(d)), k);
      else
        crypto::add_with_carry(k, U256(static_cast<std::uint64_t>(-d)), k);
    }
    naf[len++] = static_cast<std::int16_t>(d);
    k = crypto::shr(k, 1);
  }
  return len;
}

::testing::AssertionResult is_wnaf_of(const std::int16_t* naf, int len, const U256& k,
                                      unsigned w) {
  if ((len == 0) != k.is_zero()) return ::testing::AssertionFailure() << "length " << len;
  if (len > 0 && naf[len - 1] == 0) return ::testing::AssertionFailure() << "top digit zero";
  int last = -1;  // the nearest nonzero digit above i, -1 for none yet
  // Σ dᵢ·2ⁱ by Horner from the top, in 320-bit two's complement.
  std::array<std::uint64_t, 5> acc{};
  for (int i = len - 1; i >= 0; --i) {
    for (int j = 4; j > 0; --j) acc[j] = acc[j] << 1 | acc[j - 1] >> 63;
    acc[0] <<= 1;
    const std::int64_t d = naf[i];
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < 5; ++j) {
      const std::uint64_t add = j == 0 ? static_cast<std::uint64_t>(d) : (d < 0 ? ~0ull : 0);
      carry += static_cast<unsigned __int128>(acc[j]) + add;
      acc[j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    if (d == 0) continue;
    if (d % 2 == 0 || d >= (1 << (w - 1)) || d <= -(1 << (w - 1)))
      return ::testing::AssertionFailure() << "digit " << d << " at " << i;
    if (last >= 0 && last - i < static_cast<int>(w))
      return ::testing::AssertionFailure() << "two nonzero digits within " << w << " at " << i;
    last = i;
  }
  if (acc[4] != 0 || U256(acc[0], acc[1], acc[2], acc[3]) != k)
    return ::testing::AssertionFailure() << "digits do not sum to k";
  return ::testing::AssertionSuccess();
}

TEST(Wnaf, WordLevelRecodingMatchesTheReferenceAndTheNafProperties) {
  std::uint64_t state = 0x3a4f;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
    return z ^ (z >> 31);
  };
  U256 n_minus_1;
  crypto::sub_with_borrow(Scalar::order(), U256(1), n_minus_1);
  std::vector<U256> ks = {U256(0), U256(1), U256(~0ull, ~0ull, 0, 0), n_minus_1};
  for (int i = 0; i < 2000; ++i) {
    ks.push_back(U256(next(), next(), 0, 0));            // 128-bit
    ks.push_back(U256(next(), next(), next(), next()));  // 256-bit
  }
  for (const unsigned w : {5u, 7u, 11u}) {
    for (const U256& k : ks) {
      std::int16_t got[crypto::detail::kMaxNafLen];
      std::int16_t want[crypto::detail::kMaxNafLen];
      const int len = crypto::detail::wnaf(got, k, w);
      const std::string where = "w=" + std::to_string(w) + " k=" + to_hex(k.to_be_bytes());
      ASSERT_EQ(len, wnaf_reference(want, k, w)) << where;
      ASSERT_TRUE(std::equal(got, got + len, want)) << where;
      ASSERT_TRUE(is_wnaf_of(got, len, k, w)) << where;
    }
    // 2^256 - 1 recodes with a carry digit at position 256, the buffer's
    // last slot. The reference loop wraps there (k + 1 overflows), so only
    // the properties are checked.
    const U256 top(~0ull, ~0ull, ~0ull, ~0ull);
    std::int16_t got[crypto::detail::kMaxNafLen];
    const int len = crypto::detail::wnaf(got, top, w);
    EXPECT_EQ(len, crypto::detail::kMaxNafLen) << "w=" << w;
    EXPECT_TRUE(is_wnaf_of(got, len, top, w)) << "w=" << w;
  }
}

// --- Schnorr verification without lifting R --------------------------------
//
// schnorr_verify compares R's x with s·G − e·P in Jacobian coordinates and
// checks the y parity with one inversion. The textbook verifier kept here
// lifts R with a square root and compares points; both must agree on every
// input, valid or not.

bool lifting_verify(const Point& pk, const Hash256& msg, BytesView sig) {
  if (sig.size() != crypto::kSchnorrSigSize || pk.is_infinity()) return false;
  const auto r = Point::from_compressed(sig.subspan(0, 33));
  if (!r) return false;
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (sv >= Scalar::order()) return false;
  const Scalar e = crypto::schnorr_challenge(*r, pk, msg);
  return Point::mul_gen(Scalar::from_u256(sv)) == *r + pk * e;
}

TEST(SchnorrDifferential, SameVerdictAsTheRLiftingReference) {
  const U256& p = Fe::modulus();
  const U256& n = Scalar::order();
  const auto with_x = [](Bytes sig, const U256& x) {
    const Bytes xb = x.to_be_bytes();
    std::copy(xb.begin(), xb.end(), sig.begin() + 1);
    return sig;
  };
  const auto with_s = [](Bytes sig, const U256& s) {
    const Bytes sb = s.to_be_bytes();
    std::copy(sb.begin(), sb.end(), sig.begin() + 33);
    return sig;
  };
  // An x with no curve point: x³ + 7 is not a square.
  U256 off_curve(7);
  for (Fe y;; off_curve.limb[0]++) {
    const Fe x = Fe::from_raw(off_curve);
    if (!(x.sqr() * x + Fe(7)).sqrt(y)) break;
  }
  // Derived keys, then keys at the segmented ladders' edge scalars (±G
  // among them, where the key's and the generator's streams add the same
  // points).
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < 24; ++i)
    keys.push_back(crypto::derive_keypair("sqrt-free/" + std::to_string(i)));
  const std::vector<Scalar> edges = segment_edge_scalars();
  for (const Scalar& sk : edges)
    if (!sk.is_zero()) keys.push_back({sk, Point::mul_gen(sk)});
  int accepted = 0, cases = 0;
  for (int i = 0; i < static_cast<int>(keys.size()); ++i) {
    const crypto::KeyPair& kp = keys[static_cast<std::size_t>(i)];
    const crypto::PrecomputedPoint pre(kp.pk);
    const Hash256 msg = crypto::Sha256::hash(str_bytes("sqrt-free msg " + std::to_string(i)));
    const auto same = [&](const Bytes& sig, const Hash256& m, const char* what) {
      const bool want = lifting_verify(kp.pk, m, sig);
      EXPECT_EQ(crypto::schnorr_verify(kp.pk, m, sig), want) << what << ", key " << i;
      EXPECT_EQ(crypto::schnorr_verify(pre, m, sig), want) << what << " (table), key " << i;
      accepted += want ? 1 : 0;
      ++cases;
    };
    const Bytes sig = i % 2 == 0 ? crypto::schnorr_sign(kp, msg) : crypto::schnorr_sign(kp.sk, msg);
    same(sig, msg, "valid");
    Bytes flipped = sig;
    flipped[0] ^= 0x01;
    same(flipped, msg, "wrong parity prefix");
    for (const Byte prefix : {Byte{0x00}, Byte{0x04}, Byte{0x05}, Byte{0xff}}) {
      Bytes bad = sig;
      bad[0] = prefix;
      same(bad, msg, "bad prefix");
    }
    U256 x_ge_p;
    crypto::add_with_carry(p, U256(static_cast<std::uint64_t>(i)), x_ge_p);
    same(with_x(sig, x_ge_p), msg, "x >= p");
    same(with_x(sig, U256(~0ull, ~0ull, ~0ull, ~0ull)), msg, "x = 2^256 - 1");
    same(with_x(sig, off_curve), msg, "x off the curve");
    U256 s_ge_n;
    crypto::add_with_carry(n, U256(static_cast<std::uint64_t>(i)), s_ge_n);
    same(with_s(sig, s_ge_n), msg, "s >= n");
    same(with_s(sig, U256(~0ull, ~0ull, ~0ull, ~0ull)), msg, "s = 2^256 - 1");
    const Scalar s = Scalar::from_be_bytes_reduce(BytesView(sig).subspan(33));
    same(with_s(sig, (s + Scalar(1)).raw()), msg, "s + 1");
    Hash256 other = msg;
    other.data[static_cast<std::size_t>(i) % 32] ^= 0x80;
    same(sig, other, "tampered message");
    same(Bytes(sig.begin(), sig.end() - 1), msg, "short");
    // R's x is right but the prefix claims the other parity, with e taken
    // over that prefix: s·G − e·P lands on R itself, so only the parity
    // check can reject it.
    const Scalar k = Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes("k" + std::to_string(i))).view());
    Bytes r33 = Point::mul_gen(k).compressed();
    for (const bool flip : {false, true}) {
      Bytes rb = r33;
      if (flip) rb[0] ^= 0x01;
      const Bytes preimage = concat({rb, kp.pk.compressed(), msg.view()});
      const Scalar e =
          Scalar::from_be_bytes_reduce(crypto::Sha256::tagged("daric/schnorr", preimage).view());
      same(concat({rb, (k + e * kp.sk).to_be_bytes()}), msg, flip ? "forged parity" : "hand-made");
    }
    // s at an edge scalar, so the generator's streams walk the segment
    // boundaries and the carry digit.
    if (i < 8)
      for (const Scalar& edge : edges) same(with_s(sig, edge.raw()), msg, "edge s");
  }
  // The signatures and the hand-made ones, nothing else.
  EXPECT_EQ(accepted, 2 * static_cast<int>(keys.size()));
  EXPECT_EQ(cases, 16 * static_cast<int>(keys.size()) + 8 * static_cast<int>(edges.size()));
}

std::vector<crypto::SigBatchItem> make_batch(int n) {
  std::vector<crypto::SigBatchItem> items;
  for (int i = 0; i < n; ++i) {
    const auto kp = crypto::derive_keypair("batch" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes("bmsg" + std::to_string(i)));
    items.push_back({kp.pk, msg, crypto::schnorr_sign(kp.sk, msg)});
  }
  return items;
}

TEST(SchnorrBatch, AcceptsValidBatch) {
  EXPECT_TRUE(crypto::schnorr_verify_batch({}));
  const auto one = make_batch(1);
  EXPECT_TRUE(crypto::schnorr_verify_batch(one));
  const auto items = make_batch(16);
  EXPECT_TRUE(crypto::schnorr_verify_batch(items));
}

TEST(SchnorrBatch, RejectsSingleFlippedBit) {
  auto items = make_batch(8);
  // A single flipped bit anywhere in any signature must sink the batch.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    for (const std::size_t byte : {std::size_t{1}, std::size_t{40}, std::size_t{64}}) {
      auto tampered = items;
      tampered[victim].sig[byte] ^= 0x01;
      EXPECT_FALSE(crypto::schnorr_verify_batch(tampered))
          << "victim=" << victim << " byte=" << byte;
    }
  }
}

TEST(SchnorrBatch, RejectsWrongMessageAndSwappedKeys) {
  auto items = make_batch(4);
  auto wrong_msg = items;
  wrong_msg[2].msg = crypto::Sha256::hash(str_bytes("not the signed message"));
  EXPECT_FALSE(crypto::schnorr_verify_batch(wrong_msg));
  auto swapped = items;
  std::swap(swapped[0].pk, swapped[1].pk);
  EXPECT_FALSE(crypto::schnorr_verify_batch(swapped));
}

TEST(Schnorr, KeyPairSignVerifies) {
  const auto kp = crypto::derive_keypair("kp-fast-sign");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("keypair nonce path"));
  // The keypair variant uses a different (synthetic) nonce than the sk
  // variant, so the bytes differ — but both must verify under the same key.
  const Bytes fast = crypto::schnorr_sign(kp, msg);
  const Bytes slow = crypto::schnorr_sign(kp.sk, msg);
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, fast));
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, slow));
  const Hash256 other = crypto::Sha256::hash(str_bytes("other message"));
  EXPECT_FALSE(crypto::schnorr_verify(kp.pk, other, fast));
}

TEST(Schnorr, PrecomputedVerifyMatchesPlain) {
  const auto kp = crypto::derive_keypair("precomp-verify");
  const crypto::PrecomputedPoint pre(kp.pk);
  for (int i = 0; i < 4; ++i) {
    const Hash256 msg = crypto::Sha256::hash(str_bytes("pv" + std::to_string(i)));
    const Bytes sig = crypto::schnorr_sign(kp, msg);
    EXPECT_TRUE(crypto::schnorr_verify(pre, msg, sig));
    EXPECT_EQ(crypto::schnorr_verify(pre, msg, sig),
              crypto::schnorr_verify(kp.pk, msg, sig));
    Bytes bad = sig;
    bad[10] ^= 0x04;
    EXPECT_FALSE(crypto::schnorr_verify(pre, msg, bad));
  }
}

TEST(SchnorrBatch, SchemeInterfaceRoutesBatches) {
  const auto& schnorr = crypto::schnorr_scheme();
  ASSERT_TRUE(schnorr.supports_batch_verify());
  auto items = make_batch(5);
  EXPECT_TRUE(schnorr.verify_batch(items));
  items[1].sig[10] ^= 0x80;
  EXPECT_FALSE(schnorr.verify_batch(items));

  // ECDSA has no batch equation; the default per-item loop still gives
  // correct verdicts through the same interface.
  const auto& ecdsa = crypto::ecdsa_scheme();
  EXPECT_FALSE(ecdsa.supports_batch_verify());
  std::vector<crypto::SigBatchItem> eitems;
  for (int i = 0; i < 3; ++i) {
    const auto kp = crypto::derive_keypair("ebatch" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes("emsg" + std::to_string(i)));
    eitems.push_back({kp.pk, msg, crypto::ecdsa_sign(kp.sk, msg)});
  }
  EXPECT_TRUE(ecdsa.verify_batch(eitems));
  eitems[2].sig[5] ^= 0x01;
  EXPECT_FALSE(ecdsa.verify_batch(eitems));
}

// --- Multi-scalar sums: Strauss, buckets and the naive ladder ----------------
//
// multi_mul_is_infinity_vartime only answers "is the sum infinity?", so each
// case appends the negated ladder sum −S as one more term: the call must
// then report infinity, and must not once the generator coefficient moves by
// one. It sums by Strauss below Point::kBucketMinTerms nonzero terms and by
// buckets from there on, so the sizes below put cases on both sides, and
// each method agrees with the ladder, and so with the other.

constexpr std::size_t kCrossover = Point::kBucketMinTerms;

struct MsmCase {
  std::vector<Scalar> coeffs;
  std::vector<Point> points;
  Scalar gen{0};
};

Point ladder_sum(const MsmCase& c) {
  Point sum = Point::mul_ladder_vartime(Point::generator(), c.gen);
  for (std::size_t i = 0; i < c.points.size(); ++i)
    sum = sum + Point::mul_ladder_vartime(c.points[i], c.coeffs[i]);
  return sum;
}

// Batch-shaped random terms: even ones get 128-bit coefficients (like the
// randomizers), odd ones full-width (like aᵢ·eᵢ).
MsmCase random_msm(const std::string& label, std::size_t n) {
  MsmCase c;
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(i);
    Scalar a = sweep_scalar(label + "/k", k);
    if (i % 2 == 0) a = Scalar::from_u256(U256{a.raw().limb[0], a.raw().limb[1], 0, 0});
    c.coeffs.push_back(a);
    c.points.push_back(Point::mul_gen(sweep_scalar(label + "/p", k)));
  }
  c.gen = sweep_scalar(label + "/g", 0);
  return c;
}

void expect_sum_matches_ladder(MsmCase c, const std::string& what) {
  const Point sum = ladder_sum(c);
  c.coeffs.push_back(Scalar(1));
  c.points.push_back(sum.neg());
  EXPECT_TRUE(Point::multi_mul_is_infinity_vartime(c.coeffs, c.points, c.gen)) << what;
  EXPECT_FALSE(Point::multi_mul_is_infinity_vartime(c.coeffs, c.points, c.gen + Scalar(1)))
      << what << " (off by G)";
}

TEST(MsmDifferential, RandomSumsOnBothSidesOfTheCrossover) {
  // n random terms plus −S: Strauss up to kCrossover − 2, buckets from
  // kCrossover − 1 on.
  for (const std::size_t n : {std::size_t{1}, std::size_t{6}, kCrossover - 2, kCrossover - 1,
                              kCrossover, 3 * kCrossover}) {
    for (int seed = 0; seed < 2; ++seed) {
      const std::string label = "msm/" + std::to_string(n) + "/" + std::to_string(seed);
      expect_sum_matches_ladder(random_msm(label, n), label);
    }
  }
}

TEST(MsmDifferential, EdgeInputs) {
  const Scalar minus_one = Scalar(1).neg();  // n − 1
  // 4 terms take Strauss; 2·kCrossover keep buckets even with two terms
  // zeroed or at infinity.
  for (const std::size_t n : {std::size_t{4}, 2 * kCrossover}) {
    const std::string tag = " n=" + std::to_string(n);
    MsmCase base = random_msm("msm-edge/" + std::to_string(n), n);
    const Point p = base.points[1];
    const Scalar k = base.coeffs[1];

    MsmCase zeros = base;
    zeros.coeffs[0] = Scalar(0);
    zeros.coeffs[n - 1] = Scalar(0);
    expect_sum_matches_ladder(zeros, "zero coefficients" + tag);

    MsmCase inf = base;
    inf.points[0] = Point();
    inf.points.push_back(Point());
    inf.coeffs.push_back(k);
    expect_sum_matches_ladder(inf, "points at infinity" + tag);

    MsmCase repeated = base;
    repeated.points.push_back(p);
    repeated.coeffs.push_back(k);  // same point, same digits in every window
    expect_sum_matches_ladder(repeated, "repeated point" + tag);

    MsmCase opposite = base;
    opposite.points.push_back(p.neg());
    opposite.coeffs.push_back(k);  // cancels term 1 exactly
    expect_sum_matches_ladder(opposite, "P and -P" + tag);

    MsmCase order_minus_one = base;
    order_minus_one.coeffs[2] = minus_one;
    order_minus_one.coeffs[3] = minus_one;
    expect_sum_matches_ladder(order_minus_one, "coefficient n-1" + tag);

    MsmCase no_gen = base;
    no_gen.gen = Scalar(0);
    expect_sum_matches_ladder(no_gen, "gen_coeff 0" + tag);

    // Sums that vanish on their own, with gen_coeff 0: per point
    // k·P + k·(−P) and 1·P + (n−1)·P.
    std::vector<Point> pts;
    std::vector<Scalar> ks;
    for (std::size_t i = 0; i < n; i += 4) {
      pts.insert(pts.end(), {base.points[i], base.points[i].neg(), base.points[i],
                             base.points[i]});
      ks.insert(ks.end(), {base.coeffs[i], base.coeffs[i], Scalar(1), minus_one});
    }
    EXPECT_TRUE(Point::multi_mul_is_infinity_vartime(ks, pts, Scalar(0))) << tag;
    EXPECT_FALSE(Point::multi_mul_is_infinity_vartime(ks, pts, Scalar(1))) << tag;
  }
}

// A ledger round's batch: 376 claims (188 two-of-two spends) give 376
// 128-bit randomizer terms, 376 full-width key terms that GLV-split into
// 752, and the generator's two: 1,130 bucket terms, plus −S.
TEST(MsmDifferential, LedgerRoundSizedSum) {
  expect_sum_matches_ladder(random_msm("msm-round", 752), "376-claim round");
}

// The affine bucket reduction (bucket_sum) pairs a bucket's points in term
// order, round after round. Terms that share one coefficient share its
// bucket in every window, so these cases place equal and opposite points
// next to each other at chosen depths.
TEST(MsmDifferential, BucketReductionEdges) {
  const std::size_t n = 2 * kCrossover;
  const Scalar k = sweep_scalar("msm-bucket/k", 0);
  const Scalar k128 = Scalar::from_u256(U256{k.raw().limb[0], k.raw().limb[1], 0, 0});

  // One point n times: every nonzero digit's bucket doubles at each depth
  // (n, n/2, … points) before one point is left.
  MsmCase same;
  same.points.assign(n, Point::mul_gen(sweep_scalar("msm-bucket/p", 0)));
  same.coeffs.assign(n, k128);
  same.gen = sweep_scalar("msm-bucket/g", 0);
  expect_sum_matches_ladder(same, "one point n times");

  // Random terms followed by five copies of one of them: the copies meet
  // each other in pairs in some windows and other points in the rest.
  MsmCase five = random_msm("msm-bucket/five", n);
  for (int i = 0; i < 5; ++i) {
    five.points.push_back(five.points[3]);
    five.coeffs.push_back(five.coeffs[3]);
  }
  expect_sum_matches_ladder(five, "a point five times among others");

  // Groups of h copies of P then h of −P, for distinct P, all with one
  // coefficient and first in every bucket: each group doubles to ±h·P and
  // cancels in round log2(h) + 1, the rest of the sum follows.
  for (const std::size_t h : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool wide : {false, true}) {
      MsmCase c;
      for (std::size_t g = 0; g < n / (2 * h); ++g) {
        const Point p = Point::mul_gen(sweep_scalar("msm-bucket/pm", static_cast<int>(g)));
        c.points.insert(c.points.end(), h, p);
        c.points.insert(c.points.end(), h, p.neg());
      }
      c.coeffs.assign(c.points.size(), wide ? k : k128);
      const MsmCase tail = random_msm("msm-bucket/tail", 7);
      c.points.insert(c.points.end(), tail.points.begin(), tail.points.end());
      c.coeffs.insert(c.coeffs.end(), tail.coeffs.begin(), tail.coeffs.end());
      c.gen = tail.gen;
      const std::string tag = "P/-P at depth h=" + std::to_string(h) + (wide ? " GLV" : "");
      expect_sum_matches_ladder(c, tag);
      c.points.resize(n);  // the groups alone cancel
      c.coeffs.resize(n);
      EXPECT_TRUE(Point::multi_mul_is_infinity_vartime(c.coeffs, c.points, Scalar(0))) << tag;
      EXPECT_FALSE(Point::multi_mul_is_infinity_vartime(c.coeffs, c.points, Scalar(1))) << tag;
    }
  }

  // 64-bit coefficients and one 128-bit one: in every window above bit 64
  // that term's bucket holds its point alone and every other bucket is
  // empty.
  MsmCase single = random_msm("msm-bucket/single", n);
  for (Scalar& c : single.coeffs) c = Scalar::from_u256(U256{c.raw().limb[0], 0, 0, 0});
  single.coeffs[5] = k128;
  single.gen = Scalar(0);
  expect_sum_matches_ladder(single, "single point in a bucket");
}

TEST(SchnorrBatch, RejectsOneTamperedItemAroundTheCrossover) {
  const std::size_t sigs = kCrossover / 2;  // two terms per signature
  // 376: a ledger round of 188 two-of-two spends.
  for (const std::size_t n : {sigs - 1, sigs, 4 * sigs, std::size_t{376}}) {
    const auto items = make_batch(static_cast<int>(n));
    ASSERT_TRUE(crypto::schnorr_verify_batch(items)) << "n=" << n;
    for (const std::size_t victim : {std::size_t{0}, n / 2, n - 1}) {
      auto tampered = items;
      tampered[victim].sig[50] ^= 0x01;  // s stays a valid scalar encoding
      EXPECT_FALSE(crypto::schnorr_verify_batch(tampered)) << "n=" << n << " victim=" << victim;
    }
  }
}

}  // namespace
}  // namespace daric
