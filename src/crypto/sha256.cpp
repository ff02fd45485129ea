#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace daric::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) { return x >> n | x << (32 - n); }

// One block of the portable compression.
void process_block(std::uint32_t* state, const Byte* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(p[i * 4]) << 24 |
           static_cast<std::uint32_t>(p[i * 4 + 1]) << 16 |
           static_cast<std::uint32_t>(p[i * 4 + 2]) << 8 | p[i * 4 + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ w[i - 15] >> 3;
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ w[i - 2] >> 10;
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace sha256_detail {

void compress_scalar(std::uint32_t* state, const Byte* data, std::size_t blocks) {
  for (; blocks != 0; --blocks, data += 64) process_block(state, data);
}

#if defined(__x86_64__)

bool shani_available() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3_sse41 = (c & bit_SSSE3) && (c & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3_sse41 && (b & bit_SHA);
}

// The SHA-NI round structure: the state lives in two registers as ABEF and
// CDGH; each sha256rnds2 runs two rounds, so a group g of four message words
// M[g] (plus their round constants) takes two of them. M[g + 1] for g ≥ 3
// is σ1-completed by sha256msg2 from sha256msg1's W[t-16] + σ0(W[t-15])
// half (issued three groups earlier) plus W[t-7], the alignr of M[g] and
// M[g - 1] taken before sha256msg1 reuses M[g - 1]'s register.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state, const Byte* p,
                                                          std::size_t blocks) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);        // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1b);          // EFGH
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);  // ABEF
  s1 = _mm_blend_epi16(s1, tmp, 0xf0);       // CDGH
  for (; blocks != 0; --blocks, p += 64) {
    const __m128i abef = s0;
    const __m128i cdgh = s1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4)
        m[g] = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)),
                                kByteSwap);
      const __m128i cur = m[g & 3];
      const __m128i wk =
          _mm_add_epi32(cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      s1 = _mm_sha256rnds2_epu32(s1, s0, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = m[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(wk, 0x0e));
      if (g >= 1 && g <= 12) m[(g - 1) & 3] = _mm_sha256msg1_epu32(m[(g - 1) & 3], cur);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  tmp = _mm_shuffle_epi32(s0, 0x1b);         // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xb1);          // DCHG
  s0 = _mm_blend_epi16(tmp, s1, 0xf0);       // DCBA
  s1 = _mm_alignr_epi8(s1, tmp, 8);          // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), s1);
}

#else

bool shani_available() { return false; }

#endif

}  // namespace sha256_detail

namespace {

using CompressFn = void (*)(std::uint32_t*, const Byte*, std::size_t);

// Picked once, from what the CPU reports.
void compress(std::uint32_t* state, const Byte* data, std::size_t blocks) {
#if defined(__x86_64__)
  static const CompressFn fn = sha256_detail::shani_available() ? sha256_detail::compress_shani
                                                                : sha256_detail::compress_scalar;
#else
  static const CompressFn fn = sha256_detail::compress_scalar;
#endif
  fn(state, data, blocks);
}

}  // namespace

Sha256::Sha256() { std::copy(std::begin(kInit), std::end(kInit), state_.begin()); }

Sha256& Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - off) / 64; blocks != 0) {
    compress(state_.data(), data.data() + off, blocks);
    off += blocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

Hash256 Sha256::finalize() {
  // 0x80, zeros up to 56 mod 64, then the bit length: one update call.
  const std::uint64_t bit_len = total_len_ * 8;
  const std::size_t zeros = (119 - buffer_len_) % 64;
  Byte pad[72] = {0x80};
  for (int i = 0; i < 8; ++i) pad[1 + zeros + i] = static_cast<Byte>(bit_len >> (56 - i * 8));
  update({pad, 1 + zeros + 8});
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.data[static_cast<std::size_t>(i * 4)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 24);
    out.data[static_cast<std::size_t>(i * 4 + 1)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 16);
    out.data[static_cast<std::size_t>(i * 4 + 2)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 8);
    out.data[static_cast<std::size_t>(i * 4 + 3)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Hash256 Sha256::hash(BytesView data) { return Sha256().update(data).finalize(); }

Hash256 Sha256::double_hash(BytesView data) { return hash(hash(data).view()); }

Hash256 Sha256::tagged(std::string_view tag, BytesView data) {
  Sha256 h = tagged_init(tag);
  h.update(data);
  return h.finalize();
}

Sha256 Sha256::tagged_init(std::string_view tag) {
  const Hash256 th = hash({reinterpret_cast<const Byte*>(tag.data()), tag.size()});
  Sha256 h;
  h.update(th.view()).update(th.view());
  return h;
}

}  // namespace daric::crypto
