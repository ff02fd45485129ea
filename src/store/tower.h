// TowerService: the Daric watchtower. One process monitors N channels off
// the durable store with O(1) state per channel.
//
// The per-channel punishment material (Daric's floating revocation plus
// two ANYPREVOUT signatures — constant size regardless of update count)
// lives in the tower's own record log; RAM holds only a flat index entry
// per channel: the watched funding outpoint plus the record's offset and
// length in the log (56 bytes). Each round the tower consumes only the
// ledger's *newly accepted* transactions (a cursor over accepted()), and
// each of their inputs costs one binary search — so a quiet round over a
// million channels is microseconds, and a fraud hit costs one record read
// plus one signature-attachment, independent of N.
//
// Updating a channel's package appends a fresh record and repoints the
// index; the log compacts back to one record per live channel once it
// exceeds a constant factor of the live bytes, restoring the Table-1
// O(1)-per-channel storage bound on disk as well as in RAM. The channels a
// round spends retire as one group: their records are appended as the
// round is read, then synced and checked for compaction once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/daric/watchtower.h"
#include "src/obs/metrics.h"
#include "src/store/backend.h"
#include "src/store/log.h"

namespace daric::store {

/// Everything the tower must know to punish one channel's revoked commits.
struct WatchEntry {
  tx::OutPoint fund_op;  // serialized first: restore parses only a prefix
  std::string channel_id;
  std::uint32_t s0 = 0;
  Round t_punish = 0;
  sim::PartyId client = sim::PartyId::kA;
  daricch::DaricPubKeys pub_a, pub_b;
  std::uint32_t revoked_state = 0;  // states ≤ this are punishable
  tx::Transaction rv_body;          // floating [TX_RV]‾
  Bytes sig_a, sig_b;               // witness-order revocation signatures
};

Bytes serialize_watch_entry(const WatchEntry& e);
WatchEntry deserialize_watch_entry(BytesView data);

/// Assembles the tower-side entry from the client's update package.
WatchEntry make_watch_entry(const channel::ChannelParams& params, sim::PartyId client,
                            tx::OutPoint fund_op, const daricch::DaricPubKeys& pub_a,
                            const daricch::DaricPubKeys& pub_b,
                            const daricch::WatchtowerPackage& pkg);

class TowerService {
 public:
  /// Non-empty backends are restored: the log's valid prefix is scanned
  /// once (parsing only each record's kind + outpoint prefix, never
  /// materializing all payloads) and the index rebuilt.
  explicit TowerService(StorageBackend& backend, obs::Registry* metrics = nullptr);

  /// Adds or replaces a channel's punishment package. Durable on return
  /// unless inside a bulk load.
  void watch(const WatchEntry& entry);
  /// Stops watching (channel closed); the record is tombstoned.
  void retire(const tx::OutPoint& fund_op);

  /// Batches the fsync across many watch() calls (initial onboarding).
  void begin_bulk_load() { bulk_load_ = true; }
  void end_bulk_load();

  /// Consumes newly accepted ledger transactions since the last call and
  /// retires every watched channel they spend, with one sync at the end.
  void on_round(ledger::Ledger& l);

  std::size_t channels() const { return live_; }
  std::uint64_t reactions() const { return reactions_; }
  /// On-disk footprint (the whole log).
  std::size_t storage_bytes() const { return backend_.size(); }
  /// Sum of live record bytes — the compaction target, O(1) per channel.
  std::size_t live_record_bytes() const { return live_bytes_; }
  /// RAM footprint of the per-channel index.
  std::size_t index_bytes() const { return index_.size() * sizeof(IndexEntry); }
  const ScanResult& recovery() const { return recovery_; }

  void compact();

 private:
  struct IndexEntry {
    tx::OutPoint op;
    std::uint64_t offset = 0;  // payload offset in the log image
    std::uint32_t len = 0;     // payload length; 0 = tombstone
  };

  IndexEntry* find(const tx::OutPoint& op);
  void ensure_sorted();
  /// Bulk-load finisher: one sort over everything appended, then keep only
  /// the newest record per outpoint (later offsets supersede earlier
  /// generations and tombstones drop out) — O(n log n) for n inserts where
  /// per-insert dedup lookups would be O(n²).
  void finish_bulk_index();
  void insert_index(const tx::OutPoint& op, std::uint64_t offset, std::uint32_t len);
  /// Appends `slot`'s retire record and drops it from the live set; the
  /// caller syncs.
  void append_retire(IndexEntry& slot);
  void maybe_compact();
  void react(ledger::Ledger& l, const IndexEntry& slot, const ledger::AcceptedTx& spender);

  StorageBackend& backend_;
  /// Sorted by outpoint up to sorted_; appended tail is searched linearly
  /// and merged in once it grows past a threshold (bulk loads stay O(n log n)
  /// overall instead of O(n²)).
  std::vector<IndexEntry> index_;
  std::size_t sorted_ = 0;
  std::size_t live_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t cursor_ = 0;  // into ledger.accepted()
  std::uint64_t reactions_ = 0;
  bool bulk_load_ = false;
  ScanResult recovery_;

  obs::Counter* reacted_counter_ = nullptr;
  obs::Gauge* channels_gauge_ = nullptr;
  obs::Gauge* disk_gauge_ = nullptr;
};

}  // namespace daric::store
