// Durable channel store: the DurabilityHook the Daric engine persists
// through.
//
// The store is a key → blob map journaled onto a record log. Every persist
// appends a put record and syncs — that sync IS the protocol's
// fsync-before-externalize barrier, so by the time a revocation signature
// leaves the party, the snapshot that makes the revocation safe is on
// disk. Recovery replays the log's valid prefix (truncating a torn tail)
// and yields the last synced snapshot per channel; restore_party loads it
// back into the channel's DaricParty, whose monitor finishes the channel.
//
// The log grows by one snapshot per update; periodic compaction rewrites
// it as exactly one put per live key via the backend's atomic replace(),
// which restores the O(1)-per-channel bound Table 1 promises.
#pragma once

#include <map>
#include <string>

#include "src/daric/persistence.h"
#include "src/obs/metrics.h"
#include "src/store/backend.h"
#include "src/store/log.h"

namespace daric::store {

/// First payload byte of every channel-store record.
enum class RecordKind : std::uint8_t {
  kPut = 1,    // u8 kind | var_bytes key | var_bytes blob
  kErase = 2,  // u8 kind | var_bytes key
};

/// Encodes one put/erase payload (the unit appended to the record log).
Bytes encode_put(const std::string& key, BytesView blob);
Bytes encode_erase(const std::string& key);

class ChannelStore : public daricch::DurabilityHook {
 public:
  /// The store does not own the backend; an empty backend gets a fresh log
  /// header, a non-empty one is recovered (torn tail truncated, live map
  /// rebuilt). Pass a registry to publish store counters.
  explicit ChannelStore(StorageBackend& backend, obs::Registry* metrics = nullptr);

  // --- DurabilityHook ----------------------------------------------------
  /// Serializes snapshot_party(p) and puts it under channel_key(p).
  /// Durable on return.
  void persist(const daricch::DaricParty& p) override;
  /// Drops the channel's record once it resolved on-chain.
  void closed(const daricch::DaricParty& p) override;

  // --- generic key → blob API -------------------------------------------
  void put(const std::string& key, BytesView blob);
  void erase(const std::string& key);
  /// nullptr if absent. The pointer is invalidated by the next mutation.
  const Bytes* get(const std::string& key) const;

  std::size_t live_count() const { return live_.size(); }
  /// Sum of live record payload sizes — the O(1)-per-channel quantity.
  std::size_t live_bytes() const { return live_bytes_; }
  std::size_t log_bytes() const { return backend_.size(); }
  const std::map<std::string, Bytes>& entries() const { return live_; }

  /// Rewrites the log as one put per live key (atomic replace()).
  void compact();

  /// Result of the constructor's recovery pass.
  const ScanResult& recovery() const { return recovery_; }

  /// "<channel id>/<party name>" — each party journals its own snapshot.
  static std::string channel_key(const daricch::DaricParty& p);

 private:
  void append_payload(BytesView payload);
  void apply_record(BytesView payload, bool* ok);
  void maybe_compact();

  StorageBackend& backend_;
  std::map<std::string, Bytes> live_;
  std::size_t live_bytes_ = 0;
  ScanResult recovery_;

  obs::Counter* persist_count_ = nullptr;
  obs::Counter* compactions_ = nullptr;
  obs::Gauge* live_channels_ = nullptr;
  obs::Gauge* log_size_ = nullptr;
};

}  // namespace daric::store
