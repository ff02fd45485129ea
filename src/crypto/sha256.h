// SHA-256 (FIPS 180-4) and the double-SHA256 used for txids.
//
// The compression function runs on the x86 SHA extensions when the CPU
// reports them (cpuid, checked once per process) and on portable C++
// otherwise; both produce the same state, and nothing but the platform
// selects between them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"

namespace daric::crypto {

namespace sha256_detail {

/// Compresses `blocks` consecutive 64-byte blocks into `state` (eight
/// words, FIPS 180-4 order). The portable implementation: the fallback, and
/// the reference its accelerated twin is tested against.
void compress_scalar(std::uint32_t* state, const Byte* data, std::size_t blocks);

/// Whether this CPU runs compress_shani (SHA, SSSE3 and SSE4.1 per cpuid;
/// always false off x86-64).
bool shani_available();

/// The same compression on the SHA extensions. Call only when
/// shani_available(); off x86-64 it does not exist to call.
void compress_shani(std::uint32_t* state, const Byte* data, std::size_t blocks);

}  // namespace sha256_detail

class Sha256 {
 public:
  Sha256();
  Sha256& update(BytesView data);
  Hash256 finalize();  // object must not be reused afterwards

  static Hash256 hash(BytesView data);
  /// Bitcoin's HASH256: SHA256(SHA256(data)).
  static Hash256 double_hash(BytesView data);
  /// BIP340-style tagged hash: SHA256(SHA256(tag)||SHA256(tag)||data).
  static Hash256 tagged(std::string_view tag, BytesView data);
  /// Streaming variant: a hasher already fed SHA256(tag)||SHA256(tag).
  /// Copies of the returned object serve as reusable midstates.
  static Sha256 tagged_init(std::string_view tag);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<Byte, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

}  // namespace daric::crypto
