// Durable store: CRC32C vectors, backend semantics, record-log torn-tail
// recovery (property + byte-level fuzz), the channel store's durability
// hook wired through the Daric engine, snapshot format gating, and the
// O(1)-per-channel TowerService.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/sig_scheme.h"
#include "src/daric/persistence.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/sim/faults/drill.h"
#include "src/sim/faults/rng.h"
#include "src/store/backend.h"
#include "src/store/channel_store.h"
#include "src/store/crc32c.h"
#include "src/store/log.h"
#include "src/store/metrics_log.h"
#include "src/store/tower.h"

namespace daric {
namespace {

using sim::PartyId;
using sim::faults::Rng;

constexpr Round kDelta = 2;

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (Byte& x : b) x = static_cast<Byte>(rng.below(256));
  return b;
}

// --- CRC-32C --------------------------------------------------------------

using Crc32cFn = std::uint32_t (*)(std::uint32_t, BytesView);

// Every kernel this CPU runs, the portable reference first.
std::vector<std::pair<std::string, Crc32cFn>> crc_kernels() {
  std::vector<std::pair<std::string, Crc32cFn>> k = {
      {"slice-by-4", store::crc32c_detail::extend_portable}};
#if defined(__x86_64__)
  if (store::crc32c_detail::sse42_available())
    k.emplace_back("sse4.2", store::crc32c_detail::extend_sse42);
#endif
  std::string names;
  for (const auto& [name, fn] : k) names += (names.empty() ? "" : ", ") + name;
  std::printf("[   INFO   ] CRC-32C kernels run: %s\n", names.c_str());
  ::testing::Test::RecordProperty("crc32c_kernels", names);
  return k;
}

// The check value and the RFC 3720 iSCSI vectors, through the dispatched
// crc32c and through every kernel this CPU runs.
TEST(Crc32c, KnownVectors) {
  Bytes ascending(32), descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<Byte>(i);
    descending[i] = static_cast<Byte>(31 - i);
  }
  const std::pair<Bytes, std::uint32_t> kVectors[] = {
      {{}, 0x00000000u},
      {{'1', '2', '3', '4', '5', '6', '7', '8', '9'}, 0xE3069283u},
      {Bytes(32, 0x00), 0x8A9136AAu},
      {Bytes(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const auto& [msg, want] : kVectors) EXPECT_EQ(store::crc32c(msg), want) << msg.size();
  for (const auto& [name, fn] : crc_kernels())
    for (const auto& [msg, want] : kVectors)
      EXPECT_EQ(fn(0, msg), want) << name << ", " << msg.size() << " bytes";
}

TEST(Crc32c, StreamingMatchesOneShot) {
  Rng rng(0xc12cull);
  const Bytes data = random_bytes(rng, 257);
  const std::uint32_t whole = store::crc32c(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t crc = store::crc32c_extend(0, BytesView{data}.subspan(0, cut));
    crc = store::crc32c_extend(crc, BytesView{data}.subspan(cut));
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

// Lengths 0–4,096 at each of the eight alignments a word load can see, from
// a zero and from a running crc, against the portable kernel.
TEST(Crc32c, KernelsAgreeAtEveryLengthAndAlignment) {
  const auto kernels = crc_kernels();
  Rng rng(0x5e42ull);
  const Bytes buf = random_bytes(rng, 4096 + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const BytesView view = BytesView{buf}.subspan(align, len);
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 0x9e3779b9u);
      const std::uint32_t want0 = store::crc32c_detail::extend_portable(0, view);
      const std::uint32_t want = store::crc32c_detail::extend_portable(seed, view);
      for (const auto& [name, fn] : kernels) {
        ASSERT_EQ(fn(0, view), want0) << name << ", offset " << align << ", length " << len;
        ASSERT_EQ(fn(seed, view), want) << name << ", offset " << align << ", length " << len;
      }
    }
  }
  EXPECT_EQ(store::crc32c(BytesView{buf}.subspan(3, 1000)),
            store::crc32c_detail::extend_portable(0, BytesView{buf}.subspan(3, 1000)));
}

// --- Backends -------------------------------------------------------------

TEST(MemoryBackend, SyncedWatermark) {
  store::MemoryBackend b;
  b.append(Bytes{1, 2, 3});
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.synced_size(), 0u);
  EXPECT_TRUE(b.durable_image().empty());  // a crash now loses everything
  b.sync();
  b.append(Bytes{4, 5});
  EXPECT_EQ(b.synced_size(), 3u);
  EXPECT_EQ(b.durable_image(), (Bytes{1, 2, 3}));
  b.truncate(1);
  EXPECT_EQ(b.size(), 1u);
  b.replace(Bytes{9, 9});
  EXPECT_EQ(b.durable_image(), (Bytes{9, 9}));  // replace is durable
}

TEST(FileBackend, RoundTripReplaceTruncate) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "daric_store_file.log").string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  {
    store::FileBackend b(path);
    EXPECT_EQ(b.size(), 0u);
    b.append(Bytes{1, 2, 3, 4});
    b.sync();
    b.append(Bytes{5, 6});
    EXPECT_EQ(b.size(), 6u);
    EXPECT_EQ(b.read(2, 3), (Bytes{3, 4, 5}));
  }
  {
    store::FileBackend b(path);  // reopen: everything written survives
    EXPECT_EQ(b.read_all(), (Bytes{1, 2, 3, 4, 5, 6}));
    b.truncate(4);
    EXPECT_EQ(b.read_all(), (Bytes{1, 2, 3, 4}));
    b.replace(Bytes{7, 8, 9});
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // rename landed
  }
  store::FileBackend b(path);
  EXPECT_EQ(b.read_all(), (Bytes{7, 8, 9}));
  std::filesystem::remove(path);
}

// --- Record log -----------------------------------------------------------

std::vector<Bytes> fill_log(store::StorageBackend& b, Rng& rng, std::size_t n) {
  store::init_log(b);
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < n; ++i) {
    payloads.push_back(random_bytes(rng, rng.below(120)));
    store::append_record(b, payloads.back());
  }
  b.sync();
  return payloads;
}

TEST(RecordLog, RoundTripsManyRecords) {
  Rng rng(0x5109ull);
  store::MemoryBackend b;
  const std::vector<Bytes> payloads = fill_log(b, rng, 100);
  const store::RecoveredLog rec = store::recover_records(b);
  EXPECT_EQ(rec.result.status, store::LogStatus::kOk);
  EXPECT_EQ(rec.result.records, 100u);
  EXPECT_EQ(rec.result.dropped_bytes, 0u);
  EXPECT_EQ(rec.records, payloads);
}

TEST(RecordLog, EveryTruncationYieldsValidPrefix) {
  Rng rng(0x7249ull);
  store::MemoryBackend full;
  const std::vector<Bytes> payloads = fill_log(full, rng, 8);
  const Bytes image = full.read_all();
  for (std::size_t cut = store::kLogHeaderSize; cut < image.size(); ++cut) {
    store::MemoryBackend b;
    b.replace(BytesView{image}.subspan(0, cut));
    std::vector<Bytes> got;
    store::ScanResult res;
    ASSERT_NO_THROW(res = store::scan_log(
                        b, [&](std::size_t, BytesView p) { got.emplace_back(p.begin(), p.end()); }))
        << "cut at " << cut;
    ASSERT_LE(got.size(), payloads.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], payloads[i]);
    EXPECT_EQ(res.valid_bytes + res.dropped_bytes, cut);
    // A cut at an exact record boundary is indistinguishable from a
    // shorter log (kOk, nothing dropped); anywhere else is a torn tail.
    if (res.status == store::LogStatus::kOk) EXPECT_EQ(res.dropped_bytes, 0u);
    else EXPECT_GT(res.dropped_bytes, 0u);
  }
}

TEST(RecordLog, ByteFlipsNeverYieldHalfAppliedRecords) {
  Rng rng(0xf11bull);
  store::MemoryBackend full;
  const std::vector<Bytes> payloads = fill_log(full, rng, 6);
  const Bytes image = full.read_all();
  for (std::size_t i = 0; i < image.size(); ++i) {
    Bytes mutated = image;
    mutated[i] ^= static_cast<Byte>(1u << (i % 8));
    store::MemoryBackend b;
    b.replace(mutated);
    std::vector<Bytes> got;
    store::ScanResult res;
    ASSERT_NO_THROW(res = store::scan_log(
                        b, [&](std::size_t, BytesView p) { got.emplace_back(p.begin(), p.end()); }))
        << "flip at " << i;
    if (i < store::kLogHeaderSize) {
      EXPECT_EQ(res.status, store::LogStatus::kBadHeader);
      EXPECT_TRUE(got.empty());
      continue;
    }
    // Anywhere else: recovery yields an intact prefix, never a mutated or
    // half-applied record.
    ASSERT_LT(got.size(), payloads.size()) << "flip at " << i;
    for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], payloads[k]);
    EXPECT_EQ(res.status, store::LogStatus::kTornTail);
    EXPECT_EQ(res.valid_bytes + res.dropped_bytes, image.size());
  }
}

TEST(RecordLog, RecoverTruncatesTornTail) {
  Rng rng(0x70bcull);
  store::MemoryBackend b;
  fill_log(b, rng, 5);
  const std::size_t intact = b.size();
  const Bytes frame = store::encode_record(Bytes(40, 0xab));
  b.append(BytesView{frame}.subspan(0, frame.size() / 2));  // torn write
  b.sync();

  const store::ScanResult res = store::recover_log(b, [](std::size_t, BytesView) {});
  EXPECT_EQ(res.status, store::LogStatus::kTornTail);
  EXPECT_EQ(res.valid_bytes, intact);
  EXPECT_EQ(b.size(), intact);  // physically truncated
  // The log is clean again: appends land after the last valid record.
  store::append_record(b, Bytes{1, 2, 3});
  b.sync();
  const store::RecoveredLog again = store::recover_records(b);
  EXPECT_EQ(again.result.status, store::LogStatus::kOk);
  EXPECT_EQ(again.result.records, 6u);
}

TEST(RecordLog, BadHeaderResetsImage) {
  store::MemoryBackend b;
  b.replace(Bytes{'n', 'o', 'p', 'e', 9, 1, 2, 3});
  const store::ScanResult res = store::recover_log(b, [](std::size_t, BytesView) {});
  EXPECT_EQ(res.status, store::LogStatus::kBadHeader);
  EXPECT_EQ(b.size(), store::kLogHeaderSize);  // fresh header, nothing else
  EXPECT_EQ(store::recover_records(b).result.status, store::LogStatus::kOk);
}

TEST(RecordLog, AbsurdLengthFieldRejectedWithoutAllocating) {
  store::MemoryBackend b;
  store::init_log(b);
  store::append_record(b, Bytes{7, 7});
  // Hand-crafted frame claiming a payload far past kMaxRecordPayload.
  Bytes evil(8, 0xff);
  b.append(evil);
  const store::RecoveredLog rec = store::recover_records(b);
  EXPECT_EQ(rec.result.status, store::LogStatus::kTornTail);
  EXPECT_EQ(rec.result.records, 1u);
}

// --- ChannelStore ---------------------------------------------------------

TEST(ChannelStore, PutGetEraseAndRecover) {
  store::MemoryBackend b;
  {
    store::ChannelStore cs(b);
    cs.put("alpha", Bytes{1, 2, 3});
    cs.put("beta", Bytes{4});
    cs.put("alpha", Bytes{9, 9});  // overwrite
    cs.erase("beta");
    ASSERT_NE(cs.get("alpha"), nullptr);
    EXPECT_EQ(*cs.get("alpha"), (Bytes{9, 9}));
    EXPECT_EQ(cs.get("beta"), nullptr);
    EXPECT_EQ(cs.live_count(), 1u);
  }
  // Crash: only the synced image survives; every mutation above synced.
  store::MemoryBackend after;
  after.replace(b.durable_image());
  store::ChannelStore cs(after);
  EXPECT_EQ(cs.recovery().status, store::LogStatus::kOk);
  EXPECT_EQ(cs.live_count(), 1u);
  ASSERT_NE(cs.get("alpha"), nullptr);
  EXPECT_EQ(*cs.get("alpha"), (Bytes{9, 9}));
}

TEST(ChannelStore, CompactionKeepsLogProportionalToLiveBytes) {
  store::MemoryBackend b;
  store::ChannelStore cs(b);
  const Bytes blob(100, 0x5a);
  for (int i = 0; i < 500; ++i) cs.put("chan", blob);
  // Auto-compaction must keep the log within a constant factor of the one
  // live record instead of the 500 appended generations.
  EXPECT_LT(cs.log_bytes(), 4096u);
  cs.compact();
  EXPECT_EQ(cs.log_bytes(), store::kLogHeaderSize + store::kRecordFrameOverhead +
                                store::encode_put("chan", blob).size());
  ASSERT_NE(cs.get("chan"), nullptr);
  EXPECT_EQ(*cs.get("chan"), blob);
}

TEST(ChannelStore, TornTailTruncatedOnRecovery) {
  store::MemoryBackend b;
  {
    store::ChannelStore cs(b);
    cs.put("k", Bytes{1, 2, 3});
  }
  Bytes image = b.durable_image();
  const Bytes frame = store::encode_record(store::encode_put("k", Bytes(64, 0xcd)));
  image.insert(image.end(), frame.begin(), frame.begin() + 11);  // torn
  store::MemoryBackend crashed;
  crashed.replace(image);
  store::ChannelStore cs(crashed);
  EXPECT_EQ(cs.recovery().status, store::LogStatus::kTornTail);
  EXPECT_GT(cs.recovery().dropped_bytes, 0u);
  ASSERT_NE(cs.get("k"), nullptr);
  EXPECT_EQ(*cs.get("k"), (Bytes{1, 2, 3}));
}

// --- Snapshot format gate -------------------------------------------------

struct ChannelFixture {
  sim::Environment env{kDelta, crypto::schnorr_scheme()};
  daricch::DaricChannel ch;
  explicit ChannelFixture(const std::string& id) : ch(env, make_params(id)) {}
};

TEST(SnapshotFormat, MagicAndVersionGate) {
  ChannelFixture f("snapfmt-1");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  const Bytes blob =
      daricch::serialize_snapshot(daricch::snapshot_party(f.ch.party(PartyId::kA)));
  ASSERT_GT(blob.size(), 5u);
  EXPECT_EQ(blob[0], 'D');
  EXPECT_EQ(blob[4], daricch::kSnapshotVersion);
  EXPECT_NO_THROW(daricch::deserialize_snapshot(blob));

  Bytes bad_magic = blob;
  bad_magic[1] ^= 0x20;
  EXPECT_THROW(daricch::deserialize_snapshot(bad_magic), std::invalid_argument);

  Bytes future = blob;
  future[4] = daricch::kSnapshotVersion + 1;  // unknown future format
  try {
    daricch::deserialize_snapshot(future);
    FAIL() << "future version accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotFormat, ThetaCoveragePastSnRejected) {
  ChannelFixture f("snapfmt-2");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({400'000, 600'000, {}}));
  daricch::ChannelSnapshot s = daricch::snapshot_party(f.ch.party(PartyId::kB));
  s.theta_state = s.sn + 1;  // claims a revocation it cannot hold
  EXPECT_THROW(daricch::deserialize_snapshot(daricch::serialize_snapshot(s)),
               std::invalid_argument);
}

// --- Durability hook through the engine -----------------------------------

TEST(Durability, EngineRecoversLatestStateFromStore) {
  ChannelFixture f("durable-1");
  store::MemoryBackend ba, bb;
  store::ChannelStore sa(ba), sb(bb);
  f.ch.party(PartyId::kA).set_durability_hook(&sa);
  f.ch.party(PartyId::kB).set_durability_hook(&sb);
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(f.ch.update({300'000, 700'000, {}}));

  // B's process dies; only its durable image survives.
  f.ch.party(PartyId::kB).set_online(false);
  store::MemoryBackend crashed;
  crashed.replace(bb.durable_image());
  store::ChannelStore rec(crashed);
  const Bytes* blob = rec.get(store::ChannelStore::channel_key(f.ch.party(PartyId::kB)));
  ASSERT_NE(blob, nullptr);
  const daricch::ChannelSnapshot snap = daricch::deserialize_snapshot(*blob);
  EXPECT_EQ(snap.sn, 2u);
  EXPECT_EQ(snap.theta_state, 2u);  // stable: Θ covers everything below sn
  EXPECT_EQ(snap.st.to_b, 700'000);

  // The restarted process holds no Γ/Θ but the blob: same params and keys,
  // never created.
  daricch::DaricChannel restarted(f.env, make_params("durable-1"));
  daricch::restore_party(restarted, PartyId::kB, snap);
  restarted.force_close(PartyId::kB);
  for (int r = 0; r < 100 && restarted.outcome(PartyId::kB) == channel::Outcome::kNone; ++r)
    f.env.advance_round();
  EXPECT_EQ(restarted.outcome(PartyId::kB), daricch::CloseOutcome::kNonCollaborative);
}

TEST(Durability, MidUpdateCrashRecoversWithoutPunishableRegression) {
  ChannelFixture f("durable-2");
  store::MemoryBackend ba, bb;
  store::ChannelStore sa(ba), sb(bb);
  f.ch.party(PartyId::kA).set_durability_hook(&sa);
  f.ch.party(PartyId::kB).set_durability_hook(&sb);
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));

  // A dies right before sending its revocation (message 5): the new state
  // is fully signed and durable, A's own revocation never left the box.
  f.ch.party(PartyId::kA).set_online(false);
  f.ch.party(PartyId::kA).behavior.abort_update_before_msg = 5;
  ASSERT_FALSE(f.ch.update({200'000, 800'000, {}}));  // B force-closes

  store::MemoryBackend crashed;
  crashed.replace(ba.durable_image());
  store::ChannelStore rec(crashed);
  const Bytes* blob = rec.get(store::ChannelStore::channel_key(f.ch.party(PartyId::kA)));
  ASSERT_NE(blob, nullptr);
  const daricch::ChannelSnapshot snap = daricch::deserialize_snapshot(*blob);
  EXPECT_EQ(snap.sn, 2u);          // Γ advanced: the new commit is signed
  EXPECT_EQ(snap.theta_state, 1u); // Θ did not: sn-1 was never revoked
  EXPECT_EQ(snap.st.to_a, 200'000);

  daricch::DaricChannel restarted(f.env, make_params("durable-2"));
  daricch::restore_party(restarted, PartyId::kA, snap);
  restarted.force_close(PartyId::kA);
  for (int r = 0; r < 200 && restarted.outcome(PartyId::kA) == channel::Outcome::kNone; ++r)
    f.env.advance_round();
  // B closed at the new state; the restored monitor must treat it as the
  // latest (split path), never as fraud to punish.
  EXPECT_EQ(restarted.outcome(PartyId::kA), daricch::CloseOutcome::kNonCollaborative);
}

TEST(Durability, CooperativeCloseErasesStoreRecords) {
  ChannelFixture f("durable-3");
  store::MemoryBackend ba, bb;
  store::ChannelStore sa(ba), sb(bb);
  f.ch.party(PartyId::kA).set_durability_hook(&sa);
  f.ch.party(PartyId::kB).set_durability_hook(&sb);
  ASSERT_TRUE(f.ch.create());
  EXPECT_EQ(sa.live_count(), 1u);
  ASSERT_TRUE(f.ch.update({480'000, 520'000, {}}));
  ASSERT_TRUE(f.ch.cooperative_close(PartyId::kA));
  EXPECT_EQ(sa.live_count(), 0u);
  EXPECT_EQ(sb.live_count(), 0u);
}

TEST(Durability, PersistCounterPublished) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, make_params("durable-4"));
  store::MemoryBackend ba;
  store::ChannelStore sa(ba, &env.metrics());
  ch.party(PartyId::kA).set_durability_hook(&sa);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
  // create + mid-update + post-promotion persists, all through the hook.
  EXPECT_GE(env.metrics().counter("store.persists").value(), 3);
  EXPECT_EQ(env.metrics().gauge("store.live_channels").value(), 1);
}

// --- Monitor downtime accounting (Theorem 1's T − Δ gap) ------------------

TEST(MonitorGap, OfflineRoundsCountedPerParty) {
  ChannelFixture f("gap-1");
  ASSERT_TRUE(f.ch.create());
  daricch::DaricParty& a = f.ch.party(PartyId::kA);

  a.set_online(false);
  for (int i = 0; i < 5; ++i) f.env.advance_round();
  a.set_online(true);
  f.env.advance_round();
  a.set_online(false);
  for (int i = 0; i < 3; ++i) f.env.advance_round();

  EXPECT_EQ(a.missed_rounds(), 8);
  EXPECT_EQ(a.max_offline_gap(), 5);  // longest contiguous blackout
}

TEST(MonitorGap, BoundaryReportsObservedGap) {
  using sim::faults::run_downtime_boundary;
  const Round t = 8, d = 2;
  const sim::faults::BoundaryReport safe = run_downtime_boundary(t - d, t, d);
  EXPECT_TRUE(safe.punished);
  EXPECT_EQ(safe.observed_gap, t - d);
  const sim::faults::BoundaryReport lost = run_downtime_boundary(t - d + 1, t, d);
  EXPECT_TRUE(lost.funds_lost);
  EXPECT_EQ(lost.observed_gap, t - d + 1);
  // Theorem 1 stated off the observed series: safe iff gap ≤ T − Δ.
  EXPECT_LE(safe.observed_gap, t - d);
  EXPECT_GT(lost.observed_gap, t - d);
}

// --- Monitor wake-up (party hooks sleep until the funding output is spent) --

std::uint64_t hooks_run(sim::Environment& env) {
  return env.metrics().counter("sim.hooks.run").value();
}

/// Rounds between the revoked commit's confirmation and the victim's
/// revocation post (the revocation confirms Δ after it is posted).
Round reaction_rounds(const sim::Environment& env, const Hash256& cheat_txid) {
  const auto rv = env.ledger().spender_of({cheat_txid, 0});
  if (!rv) return -1;
  return *env.ledger().confirmation_round(rv->txid()) - kDelta -
         *env.ledger().confirmation_round(cheat_txid);
}

TEST(MonitorWake, SleepingVictimPunishesInTheConfirmingRound) {
  ChannelFixture f("wake-1");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(f.ch.update({400'000, 600'000, {}}));
  const std::uint64_t before = hooks_run(f.env);
  f.env.advance_rounds(3);
  ASSERT_EQ(hooks_run(f.env), before);  // both monitors asleep

  const Hash256 cheat = f.ch.archived_commits(PartyId::kA)[0].txid();
  f.ch.publish_old_commit(PartyId::kA, 0);
  for (int r = 0; r < 20 && f.ch.party(PartyId::kB).channel_open(); ++r) f.env.advance_round();
  EXPECT_EQ(f.ch.party(PartyId::kB).outcome(), daricch::CloseOutcome::kPunished);
  // Woken before any hook of the round the commit confirms: it reacts at
  // once, exactly as a monitor called every round would.
  EXPECT_EQ(reaction_rounds(f.env, cheat), 0);
}

TEST(MonitorWake, SpendConfirmedWithoutHooksStillWakesTheVictim) {
  ChannelFixture f("wake-2");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  ASSERT_TRUE(f.ch.update({400'000, 600'000, {}}));
  const Hash256 cheat = f.ch.archived_commits(PartyId::kA)[0].txid();
  f.ch.publish_old_commit(PartyId::kA, 0);
  // The commit confirms inside a direct ledger advance: no hook runs, so
  // only the environment's scan of accepted() can notice the spend.
  f.env.ledger().advance_rounds(kDelta + 1);
  ASSERT_TRUE(f.env.ledger().is_confirmed(cheat));
  for (int r = 0; r < 20 && f.ch.party(PartyId::kB).channel_open(); ++r) f.env.advance_round();
  EXPECT_EQ(f.ch.party(PartyId::kB).outcome(), daricch::CloseOutcome::kPunished);
  // The first hook round after the jump: one round past confirmation plus
  // the extra ledger round, still within Theorem 1's T − Δ.
  EXPECT_EQ(reaction_rounds(f.env, cheat), 2);
  EXPECT_LE(reaction_rounds(f.env, cheat), f.ch.params().t_punish - kDelta);
}

TEST(MonitorWake, OfflineBeforeCreateCountsOnlyOpenRounds) {
  ChannelFixture f("wake-3");
  daricch::DaricParty& a = f.ch.party(PartyId::kA);
  a.set_online(false);
  ASSERT_TRUE(f.ch.create());  // its rounds pass before the channel is open
  EXPECT_EQ(a.missed_rounds(), 0);
  for (int i = 0; i < 4; ++i) f.env.advance_round();
  EXPECT_EQ(a.missed_rounds(), 4);
  EXPECT_EQ(a.max_offline_gap(), 4);
}

TEST(MonitorWake, OnlineWithoutARoundDoesNotResetTheGap) {
  ChannelFixture f("wake-4");
  ASSERT_TRUE(f.ch.create());
  daricch::DaricParty& a = f.ch.party(PartyId::kA);
  a.set_online(false);
  for (int i = 0; i < 3; ++i) f.env.advance_round();
  a.set_online(true);
  a.set_online(false);  // no round saw the party online: the gap goes on
  for (int i = 0; i < 2; ++i) f.env.advance_round();
  EXPECT_EQ(a.missed_rounds(), 5);
  EXPECT_EQ(a.max_offline_gap(), 5);

  a.set_online(true);
  f.env.advance_round();  // this online round resets the gap
  a.set_online(false);
  f.env.advance_round();
  EXPECT_EQ(a.missed_rounds(), 6);
  EXPECT_EQ(a.max_offline_gap(), 5);
}

// The round visits the awake bits of each 64-hook word in registration
// order, re-reading the word after every call. Against the plain index loop
// (check each hook's flag when its turn comes), over three words: hooks
// wake and put to sleep hooks before and after themselves, in their own
// word and in others, and the call sequences and sim.hooks.run agree.
TEST(MonitorWake, HookScanMatchesTheIndexLoopAcrossWords) {
  constexpr std::size_t kHooks = 150;  // the third word is partial
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  int round = 0;
  const auto act = [&round](std::size_t i, const auto& set) {
    set((i * 7 + static_cast<std::size_t>(round) * 13) % kHooks, (i + round) % 3 != 0);
    set((i * 11 + 5) % kHooks, (i + round) % 2 == 0);
  };
  std::vector<std::size_t> ran;
  for (std::size_t i = 0; i < kHooks; ++i) {
    env.add_round_hook([&, i] {
      ran.push_back(i);
      act(i, [&env](std::size_t h, bool on) { env.set_hook_awake(h, on); });
    });
  }
  std::vector<char> awake(kHooks, 1);
  for (std::size_t i = 0; i < kHooks; i += 5) {
    env.set_hook_awake(i, false);
    awake[i] = 0;
  }
  const obs::Counter& hooks_run = env.metrics().counter("sim.hooks.run");
  for (round = 0; round < 6; ++round) {
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < kHooks; ++i) {
      if (!awake[i]) continue;
      want.push_back(i);
      act(i, [&awake](std::size_t h, bool on) { awake[h] = on ? 1 : 0; });
    }
    ran.clear();
    const std::uint64_t before = hooks_run.value();
    env.advance_round();
    EXPECT_EQ(ran, want) << "round " << round;
    EXPECT_EQ(hooks_run.value() - before, want.size()) << "round " << round;
  }
  EXPECT_THROW(env.set_hook_awake(kHooks, true), std::out_of_range);
}

TEST(MonitorWake, QuiescentChannelsRunNoPartyMonitor) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  std::vector<std::unique_ptr<daricch::DaricChannel>> chans;
  for (int i = 0; i < 50; ++i) {
    chans.push_back(std::make_unique<daricch::DaricChannel>(
        env, make_params("quiet-" + std::to_string(i))));
    ASSERT_TRUE(chans.back()->create());
  }
  std::uint64_t before = hooks_run(env);
  env.advance_rounds(10);
  EXPECT_EQ(hooks_run(env), before);

  int calls = 0;
  env.add_round_hook([&calls] { ++calls; });  // a plain hook stays awake
  before = hooks_run(env);
  env.advance_rounds(10);
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(hooks_run(env) - before, 10u);
}

// --- TowerService ---------------------------------------------------------

TEST(MetricsLog, SnapshotsPersistRecoverAndSelfCompact) {
  store::MemoryBackend backend;
  {
    store::MetricsLog mlog(backend, /*keep=*/4);
    obs::Registry reg;
    obs::Counter& updates = reg.counter("daric.updates");
    obs::Histogram& weight = reg.histogram("daric.onchain_weight");
    for (std::uint64_t round = 1; round <= 12; ++round) {
      updates.inc();
      weight.observe(static_cast<std::int64_t>(100 * round));
      mlog.snapshot(reg, round);
    }
    // keep=4: the log compacts once it holds more than 8 snapshots, so
    // retention stays bounded no matter how long the node runs.
    EXPECT_GE(mlog.compactions(), 1u);
    EXPECT_LE(mlog.retained(), 8u);
    ASSERT_FALSE(mlog.history().empty());
    EXPECT_NE(mlog.history().back().find("\"round\":12"), std::string::npos);
    EXPECT_NE(mlog.history().back().find("\"daric.updates\":12"), std::string::npos);
  }
  // Recovery: a fresh MetricsLog (and the static reader) see the same tail.
  const std::vector<std::string> recovered = store::MetricsLog::recover(backend);
  ASSERT_FALSE(recovered.empty());
  EXPECT_NE(recovered.back().find("\"round\":12"), std::string::npos);
  store::MetricsLog reopened(backend);
  EXPECT_EQ(reopened.history(), recovered);
}

TEST(MetricsLog, TornTailDropsOnlyTheLastSnapshot) {
  store::MemoryBackend backend;
  store::MetricsLog mlog(backend, 8);
  obs::Registry reg;
  reg.counter("c").inc();
  mlog.snapshot(reg, 1);
  mlog.snapshot(reg, 2);
  // Torn write: chop bytes off the final record.
  backend.truncate(backend.size() - 3);
  const std::vector<std::string> recovered = store::MetricsLog::recover(backend);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_NE(recovered[0].find("\"round\":1"), std::string::npos);
}

TEST(Tower, WatchEntryRoundTrips) {
  ChannelFixture f("tower-rt");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  const store::WatchEntry e = store::make_watch_entry(
      f.ch.params(), PartyId::kB, f.ch.funding_outpoint(), f.ch.party(PartyId::kA).pub(),
      f.ch.party(PartyId::kB).pub(),
      daricch::make_watchtower_package(f.ch.party(PartyId::kB)));
  const store::WatchEntry back =
      store::deserialize_watch_entry(store::serialize_watch_entry(e));
  EXPECT_EQ(back.fund_op, e.fund_op);
  EXPECT_EQ(back.channel_id, e.channel_id);
  EXPECT_EQ(back.client, e.client);
  EXPECT_EQ(back.revoked_state, e.revoked_state);
  EXPECT_EQ(back.rv_body.txid(), e.rv_body.txid());
  EXPECT_EQ(back.sig_a, e.sig_a);
  EXPECT_EQ(back.sig_b, e.sig_b);
  EXPECT_THROW(
      store::deserialize_watch_entry(
          BytesView{store::serialize_watch_entry(e)}.subspan(0, 20)),
      std::exception);
}

/// A MemoryBackend that counts reads, to show when the tower goes back to
/// its log, and its syncs and whole-image replaces (compactions).
class CountingBackend : public store::MemoryBackend {
 public:
  Bytes read(std::size_t off, std::size_t len) const override {
    ++reads;
    return MemoryBackend::read(off, len);
  }
  void sync() override {
    ++syncs;
    MemoryBackend::sync();
  }
  void replace(BytesView contents) override {
    ++replaces;
    MemoryBackend::replace(contents);
  }
  mutable int reads = 0;
  int syncs = 0;
  int replaces = 0;
};

TEST(Tower, PunishesRevokedCommitAndSurvivesRestart) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  std::vector<std::unique_ptr<daricch::DaricChannel>> chans;
  for (int i = 0; i < 3; ++i) {
    chans.push_back(std::make_unique<daricch::DaricChannel>(
        env, make_params("tower-" + std::to_string(i))));
    ASSERT_TRUE(chans.back()->create());
    ASSERT_TRUE(chans.back()->update({450'000, 550'000, {}}));
    ASSERT_TRUE(chans.back()->update({400'000, 600'000, {}}));
  }

  CountingBackend disk;
  store::TowerService tower(disk, &env.metrics());
  for (auto& ch : chans) {
    tower.watch(store::make_watch_entry(
        ch->params(), PartyId::kB, ch->funding_outpoint(), ch->party(PartyId::kA).pub(),
        ch->party(PartyId::kB).pub(),
        daricch::make_watchtower_package(ch->party(PartyId::kB))));
  }
  EXPECT_EQ(tower.channels(), 3u);
  store::TowerService* running = &tower;  // the process the round hook drives
  env.add_round_hook([&] { running->on_round(env.ledger()); });

  // Channel 1's A publishes its revoked state-0 commit; both clients stay
  // dark — only the tower can punish.
  chans[1]->party(PartyId::kA).set_online(false);
  chans[1]->party(PartyId::kB).set_online(false);
  const Hash256 cheat_txid = chans[1]->archived_commits(PartyId::kA)[0].txid();
  chans[1]->publish_old_commit(PartyId::kA, 0);
  env.advance_rounds(10);

  EXPECT_EQ(tower.reactions(), 1u);
  EXPECT_EQ(tower.channels(), 2u);  // spent funding outpoint retired
  const auto spender = env.ledger().spender_of({cheat_txid, 0});
  ASSERT_NE(spender, nullptr);  // the revocation landed on-chain
  EXPECT_EQ(env.metrics().counter("tower.reactions").value(), 1);

  // Restart from the same disk image: the survivors are still watched.
  store::TowerService reborn(disk);
  EXPECT_EQ(reborn.recovery().status, store::LogStatus::kOk);
  EXPECT_EQ(reborn.channels(), 2u);
  running = &reborn;

  // The restored tower rescans the ledger from the start, but quiet rounds
  // and the retired channel's old cheat never touch the log.
  const int reads_after_restore = disk.reads;
  env.advance_rounds(3);
  EXPECT_EQ(reborn.reactions(), 0u);
  EXPECT_EQ(disk.reads, reads_after_restore);

  // A cheat on a surviving channel: the restored tower reads that one
  // record back from its log and punishes.
  chans[2]->party(PartyId::kA).set_online(false);
  chans[2]->party(PartyId::kB).set_online(false);
  const Hash256 cheat2_txid = chans[2]->archived_commits(PartyId::kA)[1].txid();
  chans[2]->publish_old_commit(PartyId::kA, 1);
  env.advance_rounds(10);
  EXPECT_EQ(reborn.reactions(), 1u);
  EXPECT_EQ(reborn.channels(), 1u);
  EXPECT_EQ(disk.reads, reads_after_restore + 1);
  const auto rv = env.ledger().spender_of({cheat2_txid, 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs[0].cond,
            tx::Condition::p2wpkh(chans[2]->party(PartyId::kB).pub().main));
}

// The channels one round spends retire as a group: 40 watched channels
// spent in one round (20 revoked-commit cheats with both clients dark, 20
// honest force closes) cost the tower one sync and at most one compaction,
// and the retires are durable when on_round returns. A restart keeps only
// the two unspent channels and still punishes a later cheat on one.
TEST(Tower, RoundOfManySpendsSyncsAndCompactsOnce) {
  constexpr int kSpent = 40, kKept = 2;
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  std::vector<std::unique_ptr<daricch::DaricChannel>> chans;
  CountingBackend disk;
  store::TowerService tower(disk);
  for (int i = 0; i < kSpent + kKept; ++i) {
    chans.push_back(std::make_unique<daricch::DaricChannel>(
        env, make_params("tower-group-" + std::to_string(i))));
    daricch::DaricChannel& ch = *chans.back();
    ASSERT_TRUE(ch.create());
    ASSERT_TRUE(ch.update({450'000, 550'000, {}}));
    tower.watch(store::make_watch_entry(
        ch.params(), PartyId::kB, ch.funding_outpoint(), ch.party(PartyId::kA).pub(),
        ch.party(PartyId::kB).pub(), daricch::make_watchtower_package(ch.party(PartyId::kB))));
  }
  tower.on_round(env.ledger());  // absorbs the set-up transactions
  ASSERT_EQ(tower.channels(), static_cast<std::size_t>(kSpent + kKept));

  std::vector<Hash256> cheats;
  for (int i = 0; i < kSpent; ++i) {
    daricch::DaricChannel& ch = *chans[i];
    if (i % 2 == 0) {
      ch.set_monitor_online(false, false);
      cheats.push_back(ch.archived_commits(PartyId::kA)[0].txid());
      ch.publish_old_commit(PartyId::kA, 0);
    } else {
      ch.force_close(PartyId::kA);
    }
  }
  // Every commit was posted in this round with the default delay Δ.
  for (Round r = 1; r < kDelta; ++r) {
    env.advance_round();
    tower.on_round(env.ledger());
  }
  env.advance_round();
  const int syncs = disk.syncs, replaces = disk.replaces;
  tower.on_round(env.ledger());
  EXPECT_EQ(tower.channels(), static_cast<std::size_t>(kKept));
  EXPECT_EQ(tower.reactions(), cheats.size());
  EXPECT_EQ(disk.syncs - syncs, 1);
  EXPECT_LE(disk.replaces - replaces, 1);
  EXPECT_EQ(disk.synced_size(), disk.size());
  for (Round r = 0; r <= kDelta; ++r) {
    env.advance_round();
    tower.on_round(env.ledger());
  }
  for (const Hash256& cheat : cheats) {
    const auto rv = env.ledger().spender_of({cheat, 0});
    ASSERT_NE(rv, nullptr);
    EXPECT_TRUE(daricch::takes_revocation_branch(rv->tx()));
  }

  store::TowerService reborn(disk);
  EXPECT_EQ(reborn.recovery().status, store::LogStatus::kOk);
  EXPECT_EQ(reborn.channels(), static_cast<std::size_t>(kKept));
  daricch::DaricChannel& kept = *chans[kSpent];
  kept.set_monitor_online(false, false);
  const Hash256 cheat = kept.archived_commits(PartyId::kA)[0].txid();
  kept.publish_old_commit(PartyId::kA, 0);
  for (Round r = 0; r < 2 * kDelta + 2; ++r) {
    env.advance_round();
    reborn.on_round(env.ledger());
  }
  EXPECT_EQ(reborn.reactions(), 1u);
  EXPECT_EQ(reborn.channels(), static_cast<std::size_t>(kKept - 1));
  const auto rv = env.ledger().spender_of({cheat, 0});
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->tx().outputs[0].cond, tx::Condition::p2wpkh(kept.party(PartyId::kB).pub().main));
}

TEST(Tower, PackageUpdatesCompactToConstantPerChannel) {
  ChannelFixture f("tower-compact");
  ASSERT_TRUE(f.ch.create());
  store::MemoryBackend disk;
  store::TowerService tower(disk);
  std::size_t entry_bytes = 0;
  for (int u = 1; u <= 60; ++u) {
    ASSERT_TRUE(f.ch.update({500'000 - 1'000 * u, 500'000 + 1'000 * u, {}}));
    const store::WatchEntry e = store::make_watch_entry(
        f.ch.params(), PartyId::kB, f.ch.funding_outpoint(), f.ch.party(PartyId::kA).pub(),
        f.ch.party(PartyId::kB).pub(),
        daricch::make_watchtower_package(f.ch.party(PartyId::kB)));
    entry_bytes = store::serialize_watch_entry(e).size();
    tower.watch(e);
  }
  EXPECT_EQ(tower.channels(), 1u);
  EXPECT_EQ(tower.live_record_bytes(), entry_bytes + 1);  // + kind byte
  // 60 generations appended, yet the log stays within the compaction
  // factor of one live record — the O(1) Table-1 bound on disk.
  EXPECT_LT(tower.storage_bytes(),
            2 * (tower.live_record_bytes() + store::kRecordFrameOverhead +
                 store::kLogHeaderSize) + 8192);
  tower.compact();
  EXPECT_EQ(tower.storage_bytes(), store::kLogHeaderSize +
                                       store::kRecordFrameOverhead +
                                       tower.live_record_bytes());

  tower.retire(f.ch.funding_outpoint());
  EXPECT_EQ(tower.channels(), 0u);
  store::TowerService reborn(disk);
  EXPECT_EQ(reborn.channels(), 0u);  // tombstone replayed
}

TEST(Tower, TornTailOnRestoreKeepsIntactChannels) {
  ChannelFixture f("tower-torn");
  ASSERT_TRUE(f.ch.create());
  ASSERT_TRUE(f.ch.update({450'000, 550'000, {}}));
  store::MemoryBackend disk;
  {
    store::TowerService tower(disk);
    tower.watch(store::make_watch_entry(
        f.ch.params(), PartyId::kB, f.ch.funding_outpoint(), f.ch.party(PartyId::kA).pub(),
        f.ch.party(PartyId::kB).pub(),
        daricch::make_watchtower_package(f.ch.party(PartyId::kB))));
  }
  disk.append(Bytes(13, 0xee));  // garbage after the synced prefix
  disk.sync();
  store::TowerService tower(disk);
  EXPECT_EQ(tower.recovery().status, store::LogStatus::kTornTail);
  EXPECT_EQ(tower.channels(), 1u);
}

}  // namespace
}  // namespace daric
