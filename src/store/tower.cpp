#include "src/store/tower.h"

#include <algorithm>
#include <stdexcept>

#include "src/daric/persistence.h"
#include "src/obs/span.h"
#include "src/util/serialize.h"

namespace daric::store {

using daricch::snapio::read_outpoint;
using daricch::snapio::read_pubkeys;
using daricch::snapio::read_tx;
using daricch::snapio::write_outpoint;
using daricch::snapio::write_pubkeys;
using daricch::snapio::write_tx;
using sim::PartyId;

namespace {

enum class TowerRecordKind : std::uint8_t { kWatch = 1, kRetire = 2 };

/// Merge threshold for the index's unsorted tail outside bulk loads.
constexpr std::size_t kSortTail = 4096;

}  // namespace

Bytes serialize_watch_entry(const WatchEntry& e) {
  Writer w;
  write_outpoint(w, e.fund_op);  // first: restore parses only this prefix
  w.var_bytes({reinterpret_cast<const Byte*>(e.channel_id.data()), e.channel_id.size()});
  w.u32le(e.s0);
  w.u64le(static_cast<std::uint64_t>(e.t_punish));
  w.u8(e.client == PartyId::kA ? 0 : 1);
  write_pubkeys(w, e.pub_a);
  write_pubkeys(w, e.pub_b);
  w.u32le(e.revoked_state);
  write_tx(w, e.rv_body);
  w.var_bytes(e.sig_a);
  w.var_bytes(e.sig_b);
  return w.take();
}

WatchEntry deserialize_watch_entry(BytesView data) {
  Reader r(data);
  WatchEntry e;
  e.fund_op = read_outpoint(r);
  const Bytes id = r.var_bytes();
  e.channel_id.assign(id.begin(), id.end());
  e.s0 = r.u32le();
  e.t_punish = static_cast<Round>(r.u64le());
  const std::uint8_t client = r.u8();
  if (client > 1) throw std::invalid_argument("corrupt watch entry: bad client");
  e.client = client == 0 ? PartyId::kA : PartyId::kB;
  e.pub_a = read_pubkeys(r);
  e.pub_b = read_pubkeys(r);
  e.revoked_state = r.u32le();
  e.rv_body = read_tx(r);
  e.sig_a = r.var_bytes();
  e.sig_b = r.var_bytes();
  if (!r.empty()) throw std::invalid_argument("trailing watch-entry bytes");
  return e;
}

WatchEntry make_watch_entry(const channel::ChannelParams& params, PartyId client,
                            tx::OutPoint fund_op, const daricch::DaricPubKeys& pub_a,
                            const daricch::DaricPubKeys& pub_b,
                            const daricch::WatchtowerPackage& pkg) {
  WatchEntry e;
  e.fund_op = fund_op;
  e.channel_id = params.id;
  e.s0 = params.s0;
  e.t_punish = params.t_punish;
  e.client = client;
  e.pub_a = pub_a;
  e.pub_b = pub_b;
  e.revoked_state = pkg.revoked_state;
  e.rv_body = pkg.rv_body;
  e.sig_a = pkg.sig_a;
  e.sig_b = pkg.sig_b;
  return e;
}

TowerService::TowerService(StorageBackend& backend, obs::Registry* metrics)
    : backend_(backend) {
  if (metrics) {
    reacted_counter_ = &metrics->counter("tower.reactions");
    channels_gauge_ = &metrics->gauge("tower.channels");
    disk_gauge_ = &metrics->gauge("tower.log_bytes");
  }
  if (backend_.size() == 0) {
    init_log(backend_);
    backend_.sync();
    return;
  }
  // Streaming restore: one pass over the valid prefix, parsing only each
  // record's kind + outpoint. Payloads are re-read lazily on a fraud hit.
  // Records replay in offset order, so bulk keep-last-per-outpoint
  // semantics reproduces the apply order exactly (a retire becomes a
  // len-0 generation that supersedes the watch records before it).
  OBS_SPAN("tower.restore");
  bulk_load_ = true;
  recovery_ = recover_log(backend_, [this](std::size_t off, BytesView payload) {
    if (payload.empty()) return;
    Reader r(payload);
    const auto kind = static_cast<TowerRecordKind>(r.u8());
    tx::OutPoint op;
    try {
      op = read_outpoint(r);
    } catch (const std::exception&) {
      return;  // undersized record; CRC-valid but foreign — skip
    }
    if (kind == TowerRecordKind::kWatch) {
      insert_index(op, off, static_cast<std::uint32_t>(payload.size()));
    } else if (kind == TowerRecordKind::kRetire) {
      insert_index(op, off, 0);
    }
  });
  bulk_load_ = false;
  finish_bulk_index();
  if (channels_gauge_) channels_gauge_->set(static_cast<std::int64_t>(live_));
  if (disk_gauge_) disk_gauge_->set(static_cast<std::int64_t>(backend_.size()));
}

TowerService::IndexEntry* TowerService::find(const tx::OutPoint& op) {
  const auto sorted_end = index_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  const auto it = std::lower_bound(
      index_.begin(), sorted_end, op,
      [](const IndexEntry& e, const tx::OutPoint& key) { return e.op < key; });
  if (it != sorted_end && it->op == op) return &*it;
  for (auto t = index_.begin() + static_cast<std::ptrdiff_t>(sorted_); t != index_.end(); ++t)
    if (t->op == op) return &*t;
  return nullptr;
}

void TowerService::ensure_sorted() {
  if (sorted_ == index_.size()) return;
  std::sort(index_.begin(), index_.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.op < b.op; });
  sorted_ = index_.size();
}

void TowerService::finish_bulk_index() {
  std::sort(index_.begin(), index_.end(), [](const IndexEntry& a, const IndexEntry& b) {
    return a.op != b.op ? a.op < b.op : a.offset < b.offset;
  });
  std::vector<IndexEntry> kept;
  kept.reserve(index_.size());
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const bool last_of_run = i + 1 == index_.size() || !(index_[i + 1].op == index_[i].op);
    if (!last_of_run || index_[i].len == 0) {
      // Superseded generation (or a final tombstone): drop its accounting.
      if (index_[i].len != 0) {
        live_bytes_ -= index_[i].len;
        --live_;
      }
      continue;
    }
    kept.push_back(index_[i]);
  }
  index_ = std::move(kept);
  sorted_ = index_.size();
}

void TowerService::insert_index(const tx::OutPoint& op, std::uint64_t offset,
                                std::uint32_t len) {
  if (bulk_load_) {
    // No per-insert dedup lookup: finish_bulk_index() resolves duplicate
    // outpoints in one sort when the load ends.
    index_.push_back({op, offset, len});
    live_bytes_ += len;
    if (len != 0) ++live_;
    return;
  }
  if (IndexEntry* slot = find(op)) {
    if (slot->len != 0) live_bytes_ -= slot->len;
    else ++live_;
    slot->offset = offset;
    slot->len = len;
    live_bytes_ += len;
    return;
  }
  index_.push_back({op, offset, len});
  live_bytes_ += len;
  ++live_;
  if (index_.size() - sorted_ > kSortTail) ensure_sorted();
}

void TowerService::watch(const WatchEntry& entry) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(TowerRecordKind::kWatch));
  w.bytes(serialize_watch_entry(entry));
  const Bytes payload = w.take();
  const std::size_t payload_off = backend_.size() + kRecordFrameOverhead;
  append_record(backend_, payload);
  if (!bulk_load_) backend_.sync();
  insert_index(entry.fund_op, payload_off, static_cast<std::uint32_t>(payload.size()));
  if (channels_gauge_) channels_gauge_->set(static_cast<std::int64_t>(live_));
  if (disk_gauge_) disk_gauge_->set(static_cast<std::int64_t>(backend_.size()));
  if (!bulk_load_) maybe_compact();
}

void TowerService::retire(const tx::OutPoint& fund_op) {
  IndexEntry* slot = find(fund_op);
  if (!slot || slot->len == 0) return;
  append_retire(*slot);
  if (bulk_load_) return;
  backend_.sync();
  maybe_compact();
}

void TowerService::append_retire(IndexEntry& slot) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(TowerRecordKind::kRetire));
  write_outpoint(w, slot.op);
  append_record(backend_, w.take());
  live_bytes_ -= slot.len;
  slot.len = 0;
  --live_;
  if (channels_gauge_) channels_gauge_->set(static_cast<std::int64_t>(live_));
}

void TowerService::end_bulk_load() {
  bulk_load_ = false;
  backend_.sync();
  finish_bulk_index();
  if (disk_gauge_) disk_gauge_->set(static_cast<std::int64_t>(backend_.size()));
}

void TowerService::on_round(ledger::Ledger& l) {
  OBS_SPAN("tower.round");
  const auto& accepted = l.accepted();
  if (cursor_ > accepted.size()) cursor_ = 0;  // fresh ledger (tests)
  bool retired = false;
  for (; cursor_ < accepted.size(); ++cursor_) {
    const ledger::AcceptedTx& spender = accepted[cursor_];
    for (const tx::TxIn& in : spender.tx().inputs) {
      IndexEntry* slot = find(in.prevout);
      if (!slot || slot->len == 0) continue;
      react(l, *slot, spender);
      // The funding outpoint is spent either way — nothing left to watch.
      append_retire(*slot);
      retired = true;
    }
  }
  if (!retired || bulk_load_) return;
  // One group commit for the round's retires, durable before on_round
  // returns, so a restarted tower does not resurrect a spent channel.
  backend_.sync();
  maybe_compact();
}

void TowerService::react(ledger::Ledger& l, const IndexEntry& slot,
                         const ledger::AcceptedTx& spender) {
  OBS_SPAN("tower.react");
  const Bytes payload = backend_.read(slot.offset, slot.len);
  Reader r(payload);
  if (static_cast<TowerRecordKind>(r.u8()) != TowerRecordKind::kWatch) return;
  const WatchEntry e =
      deserialize_watch_entry(BytesView{payload}.subspan(1));

  // The monitor's punishability test, off the loaded record.
  const auto commit = daricch::match_counterparty_commit(
      spender.tx(), e.client, e.pub_a, e.pub_b, e.s0, e.t_punish, e.revoked_state);
  if (!commit) return;

  tx::Transaction rv = e.rv_body;
  daricch::bind_floating(rv, {spender.txid(), 0});
  daricch::attach_revoke_witness(rv, 0, commit->script, e.sig_a, e.sig_b);
  l.post(rv);
  ++reactions_;
  if (reacted_counter_) reacted_counter_->inc();
}

void TowerService::compact() {
  OBS_SPAN("tower.compact");
  ensure_sorted();
  Bytes image(kLogHeaderSize);
  std::memcpy(image.data(), kLogMagic, sizeof(kLogMagic));
  image[4] = kLogVersion;
  std::vector<IndexEntry> fresh;
  fresh.reserve(live_);
  for (const IndexEntry& slot : index_) {
    if (slot.len == 0) continue;
    const Bytes payload = backend_.read(slot.offset, slot.len);
    fresh.push_back({slot.op, image.size() + kRecordFrameOverhead, slot.len});
    append(image, encode_record(payload));
  }
  backend_.replace(image);
  index_ = std::move(fresh);
  sorted_ = index_.size();  // preserved order: was sorted, stays sorted
  if (disk_gauge_) disk_gauge_->set(static_cast<std::int64_t>(backend_.size()));
}

void TowerService::maybe_compact() {
  const std::size_t live_encoded =
      live_bytes_ + live_ * kRecordFrameOverhead + kLogHeaderSize;
  if (backend_.size() > 8192 && backend_.size() > 2 * live_encoded) compact();
}

}  // namespace daric::store
