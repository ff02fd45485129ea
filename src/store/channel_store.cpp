#include "src/store/channel_store.h"

#include <stdexcept>

#include "src/obs/span.h"
#include "src/sim/party.h"
#include "src/util/serialize.h"

namespace daric::store {

Bytes encode_put(const std::string& key, BytesView blob) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(RecordKind::kPut));
  w.var_bytes({reinterpret_cast<const Byte*>(key.data()), key.size()});
  w.var_bytes(blob);
  return w.take();
}

Bytes encode_erase(const std::string& key) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(RecordKind::kErase));
  w.var_bytes({reinterpret_cast<const Byte*>(key.data()), key.size()});
  return w.take();
}

ChannelStore::ChannelStore(StorageBackend& backend, obs::Registry* metrics)
    : backend_(backend) {
  if (metrics) {
    persist_count_ = &metrics->counter("store.persists");
    compactions_ = &metrics->counter("store.compactions");
    live_channels_ = &metrics->gauge("store.live_channels");
    log_size_ = &metrics->gauge("store.log_bytes");
  }
  if (backend_.size() == 0) {
    init_log(backend_);
    backend_.sync();
    return;
  }
  // Recover: replay the valid prefix, stopping at the first record the
  // codec rejects (a CRC-valid but unparseable record is treated exactly
  // like a torn tail — the log is truncated just before it).
  std::size_t bad_payload_off = 0;
  bool hit_bad = false;
  recovery_ = recover_log(backend_, [&](std::size_t off, BytesView payload) {
    if (hit_bad) return;
    bool ok = true;
    apply_record(payload, &ok);
    if (!ok) {
      hit_bad = true;
      bad_payload_off = off;
    }
  });
  if (hit_bad) {
    backend_.truncate(bad_payload_off - kRecordFrameOverhead);
    backend_.sync();
    recovery_.status = LogStatus::kTornTail;
    recovery_.dropped_bytes += recovery_.valid_bytes - (bad_payload_off - kRecordFrameOverhead);
    recovery_.valid_bytes = bad_payload_off - kRecordFrameOverhead;
  }
  if (live_channels_) live_channels_->set(static_cast<std::int64_t>(live_.size()));
  if (log_size_) log_size_->set(static_cast<std::int64_t>(backend_.size()));
}

void ChannelStore::apply_record(BytesView payload, bool* ok) {
  try {
    Reader r(payload);
    const auto kind = static_cast<RecordKind>(r.u8());
    const Bytes key_bytes = r.var_bytes();
    const std::string key(key_bytes.begin(), key_bytes.end());
    switch (kind) {
      case RecordKind::kPut: {
        Bytes blob = r.var_bytes();
        if (!r.empty()) throw std::invalid_argument("trailing record bytes");
        auto [it, inserted] = live_.try_emplace(key);
        if (!inserted) live_bytes_ -= it->second.size();
        live_bytes_ += blob.size();
        it->second = std::move(blob);
        return;
      }
      case RecordKind::kErase: {
        if (!r.empty()) throw std::invalid_argument("trailing record bytes");
        auto it = live_.find(key);
        if (it != live_.end()) {
          live_bytes_ -= it->second.size();
          live_.erase(it);
        }
        return;
      }
    }
    throw std::invalid_argument("unknown record kind");
  } catch (const std::exception&) {
    *ok = false;
  }
}

void ChannelStore::append_payload(BytesView payload) {
  append_record(backend_, payload);
  backend_.sync();
  if (log_size_) log_size_->set(static_cast<std::int64_t>(backend_.size()));
}

void ChannelStore::put(const std::string& key, BytesView blob) {
  append_payload(encode_put(key, blob));
  auto [it, inserted] = live_.try_emplace(key);
  if (!inserted) live_bytes_ -= it->second.size();
  live_bytes_ += blob.size();
  it->second.assign(blob.begin(), blob.end());
  if (live_channels_) live_channels_->set(static_cast<std::int64_t>(live_.size()));
  maybe_compact();
}

void ChannelStore::erase(const std::string& key) {
  auto it = live_.find(key);
  if (it == live_.end()) return;
  append_payload(encode_erase(key));
  live_bytes_ -= it->second.size();
  live_.erase(it);
  if (live_channels_) live_channels_->set(static_cast<std::int64_t>(live_.size()));
  maybe_compact();
}

const Bytes* ChannelStore::get(const std::string& key) const {
  const auto it = live_.find(key);
  return it == live_.end() ? nullptr : &it->second;
}

void ChannelStore::compact() {
  OBS_SPAN("store.compact");
  Bytes image(kLogHeaderSize);
  std::memcpy(image.data(), kLogMagic, sizeof(kLogMagic));
  image[4] = kLogVersion;
  for (const auto& [key, blob] : live_) append(image, encode_record(encode_put(key, blob)));
  backend_.replace(image);
  if (compactions_) compactions_->inc();
  if (log_size_) log_size_->set(static_cast<std::int64_t>(backend_.size()));
}

void ChannelStore::maybe_compact() {
  // Compaction invariant: the log never exceeds a constant factor of the
  // live state (plus a floor so tiny stores don't thrash). This is what
  // keeps per-channel storage O(1) across arbitrarily many updates.
  const std::size_t live_encoded = live_bytes_ + live_.size() * 64 + kLogHeaderSize;
  if (backend_.size() > 4096 && backend_.size() > 3 * live_encoded) compact();
}

std::string ChannelStore::channel_key(const daricch::DaricParty& p) {
  return p.params().id + "/" + sim::party_name(p.id());
}

void ChannelStore::persist(const daricch::DaricParty& p) {
  const Bytes blob = daricch::serialize_snapshot(daricch::snapshot_party(p));
  put(channel_key(p), blob);
  if (persist_count_) persist_count_->inc();
}

void ChannelStore::closed(const daricch::DaricParty& p) { erase(channel_key(p)); }

}  // namespace daric::store
