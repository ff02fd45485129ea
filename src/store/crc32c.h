// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum framing every record in the durable log. Chosen over CRC-32
// (IEEE) for its better error-detection properties on storage payloads —
// the same choice LevelDB/RocksDB and ext4 metadata made.
//
// The checksum runs on the SSE4.2 crc32 instruction when the CPU reports it
// (cpuid, checked once per process) and on portable slice-by-4 tables
// otherwise; both return the same value.
#pragma once

#include <cstdint>

#include "src/util/bytes.h"

namespace daric::store {

/// One-shot CRC-32C of `data` (initial crc = 0).
std::uint32_t crc32c(BytesView data);

/// Streaming form: feed the previous return value back in as `crc`.
std::uint32_t crc32c_extend(std::uint32_t crc, BytesView data);

namespace crc32c_detail {

/// crc32c_extend on slice-by-4 tables: the fallback, and the reference its
/// accelerated twin is tested against.
std::uint32_t extend_portable(std::uint32_t crc, BytesView data);

/// Whether this CPU runs extend_sse42 (SSE4.2 per cpuid; always false off
/// x86-64).
bool sse42_available();

/// crc32c_extend on the SSE4.2 crc32 instruction, eight bytes a step. Call
/// only when sse42_available(); off x86-64 it does not exist to call.
std::uint32_t extend_sse42(std::uint32_t crc, BytesView data);

}  // namespace crc32c_detail

}  // namespace daric::store
