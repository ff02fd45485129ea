#include "src/store/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace daric::store {

namespace {

// Slice-by-4 tables for the reflected Castagnoli polynomial. Built once at
// static-init time; 4 KiB total.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Tables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xffu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xffu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xffu];
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

namespace crc32c_detail {

std::uint32_t extend_portable(std::uint32_t crc, BytesView data) {
  const Tables& tb = tables();
  crc = ~crc;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    crc ^= static_cast<std::uint32_t>(data[i]) |
           (static_cast<std::uint32_t>(data[i + 1]) << 8) |
           (static_cast<std::uint32_t>(data[i + 2]) << 16) |
           (static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = tb.t[3][crc & 0xffu] ^ tb.t[2][(crc >> 8) & 0xffu] ^ tb.t[1][(crc >> 16) & 0xffu] ^
          tb.t[0][crc >> 24];
  }
  for (; i < data.size(); ++i) crc = (crc >> 8) ^ tb.t[0][(crc ^ data[i]) & 0xffu];
  return ~crc;
}

#if defined(__x86_64__)

bool sse42_available() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_SSE4_2);
}

// The instruction folds the reflected Castagnoli polynomial over the bytes
// in memory order, so a little-endian 8-byte load is eight byte steps.
__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(std::uint32_t crc,
                                                             BytesView data) {
  const Byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n != 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#else

bool sse42_available() { return false; }

#endif

}  // namespace crc32c_detail

std::uint32_t crc32c_extend(std::uint32_t crc, BytesView data) {
  using ExtendFn = std::uint32_t (*)(std::uint32_t, BytesView);
  // Picked once, from what the CPU reports.
#if defined(__x86_64__)
  static const ExtendFn fn = crc32c_detail::sse42_available() ? crc32c_detail::extend_sse42
                                                              : crc32c_detail::extend_portable;
#else
  static const ExtendFn fn = crc32c_detail::extend_portable;
#endif
  return fn(crc, data);
}

std::uint32_t crc32c(BytesView data) { return crc32c_extend(0, data); }

}  // namespace daric::store
