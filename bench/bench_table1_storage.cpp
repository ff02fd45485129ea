// Table 1 reproduction (storage columns, measured): party and watchtower
// persistent storage as a function of the number of channel updates n, for
// the four executable engines. Daric and eltoo must stay flat (O(1));
// Lightning and Generalized grow linearly (O(n)).
#include <cstdio>
#include <memory>

#include "src/cerberus/protocol.h"
#include "src/fppw/protocol.h"
#include "src/daric/persistence.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/store/backend.h"
#include "src/store/log.h"
#include "src/store/tower.h"
#include "src/eltoo/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"
#include "src/lightning/watchtower.h"

namespace {

using namespace daric;  // NOLINT
using sim::PartyId;

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

struct Row {
  int n;
  std::size_t daric_party, daric_tower, daric_party_disk, daric_tower_disk,
      eltoo_party, ln_party, ln_tower, gc_party, cb_party, cb_tower, fp_tower;
};

}  // namespace

int main() {
  std::printf("Table 1 (storage columns), measured in bytes of state per party /\n");
  std::printf("tower after n channel updates. The LN, Cerberus and FPPW tower columns\n");
  std::printf("count what those towers persist, like D twr disk; D twr RAM is the\n");
  std::printf("Daric tower's in-memory index alone. Expectations from the paper:\n");
  std::printf("Daric O(1), eltoo O(1), Lightning O(n), Generalized O(n).\n\n");

  const int checkpoints[] = {1, 10, 50, 100, 250, 500};
  std::vector<Row> rows;

  sim::Environment env(2, crypto::schnorr_scheme());
  daricch::DaricChannel daric_ch(env, make_params("t1-daric"));
  eltoo::EltooChannel eltoo_ch(env, make_params("t1-eltoo"));
  lightning::LightningChannel ln_ch(env, make_params("t1-ln"));
  generalized::GeneralizedChannel gc_ch(env, make_params("t1-gc"));
  cerberus::CerberusChannel cb_ch(env, make_params("t1-cb"), 5'000);
  fppw::FppwChannel fp_ch(env, make_params("t1-fp"));
  daric_ch.create();
  eltoo_ch.create();
  ln_ch.create();
  gc_ch.create();
  cb_ch.create();
  fp_ch.create();
  store::MemoryBackend tower_disk;
  store::TowerService tower(tower_disk);
  lightning::LightningWatchtower ln_tower(
      PartyId::kB, ln_ch.archived_commit(PartyId::kA, 0).inputs[0].prevout,
      ln_ch.payout_pk(PartyId::kB));
  std::uint32_t ln_tower_fed = 0;

  int done = 0;
  for (int target : checkpoints) {
    for (; done < target; ++done) {
      const Amount to_a = 400'000 + (done * 137) % 200'000;
      const channel::StateVec st{to_a, 1'000'000 - to_a, {}};
      daric_ch.update(st);
      eltoo_ch.update(st);
      ln_ch.update(st);
      gc_ch.update(st);
      cb_ch.update(st);
      fp_ch.update(st);
    }
    tower.watch(store::make_watch_entry(
        daric_ch.params(), PartyId::kB, daric_ch.funding_outpoint(),
        daric_ch.party(PartyId::kA).pub(), daric_ch.party(PartyId::kB).pub(),
        daricch::make_watchtower_package(daric_ch.party(PartyId::kB))));
    for (; ln_tower_fed < ln_ch.state_number(); ++ln_tower_fed)
      ln_tower.add_package(
          lightning::make_ln_tower_package(ln_ch, PartyId::kB, ln_tower_fed));
    // On-disk (durable) sizes: the party's serialized crash-safe snapshot,
    // and the channel's footprint in a compacted tower log (kind byte +
    // watch entry + CRC frame). Both must stay flat alongside the in-RAM
    // columns for the Table-1 claim to hold on persistent storage too. The
    // tower's RAM column is its index entry for the channel.
    const std::size_t daric_party_disk =
        daricch::serialize_snapshot(daricch::snapshot_party(daric_ch.party(PartyId::kA))).size();
    const std::size_t daric_tower_disk = tower.live_record_bytes() + store::kRecordFrameOverhead;
    rows.push_back({target, daric_ch.party(PartyId::kA).storage_bytes(), tower.index_bytes(),
                    daric_party_disk, daric_tower_disk,
                    eltoo_ch.party_storage_bytes(PartyId::kA),
                    ln_ch.party_storage_bytes(PartyId::kA), ln_tower.storage_bytes(),
                    gc_ch.party_storage_bytes(PartyId::kA),
                    cb_ch.party_storage_bytes(PartyId::kA),
                    cb_ch.tower(PartyId::kA).storage_bytes(), fp_ch.tower_storage_bytes()});
  }

  std::printf("%6s %11s %11s %11s %11s %11s %11s %11s %11s %11s %11s %11s\n", "n",
              "Daric pty", "D twr RAM", "D pty disk", "D twr disk", "eltoo pty",
              "LN pty", "LN twr", "GC pty", "Cerb pty", "Cerb twr", "FPPW twr");
  for (const Row& r : rows) {
    std::printf("%6d %11zu %11zu %11zu %11zu %11zu %11zu %11zu %11zu %11zu %11zu %11zu\n",
                r.n, r.daric_party, r.daric_tower, r.daric_party_disk,
                r.daric_tower_disk, r.eltoo_party, r.ln_party, r.ln_tower, r.gc_party,
                r.cb_party, r.cb_tower, r.fp_tower);
  }

  const Row& first = rows.front();
  const Row& last = rows.back();
  std::printf("\nGrowth from n=%d to n=%d:\n", first.n, last.n);
  std::printf("  Daric party : %+zd bytes  (paper: O(1))\n",
              static_cast<ssize_t>(last.daric_party) - static_cast<ssize_t>(first.daric_party));
  std::printf("  Daric tower RAM (index entry) : %+zd bytes  (paper: O(1))\n",
              static_cast<ssize_t>(last.daric_tower) - static_cast<ssize_t>(first.daric_tower));
  std::printf("  Daric party disk (snapshot)   : %+zd bytes  (paper: O(1))\n",
              static_cast<ssize_t>(last.daric_party_disk) -
                  static_cast<ssize_t>(first.daric_party_disk));
  std::printf("  Daric tower disk (log record) : %+zd bytes  (paper: O(1))\n",
              static_cast<ssize_t>(last.daric_tower_disk) -
                  static_cast<ssize_t>(first.daric_tower_disk));
  std::printf("  eltoo party : %+zd bytes  (paper: O(1))\n",
              static_cast<ssize_t>(last.eltoo_party) - static_cast<ssize_t>(first.eltoo_party));
  std::printf("  LN party    : %+zd bytes  (paper: O(n), 32 B/update)\n",
              static_cast<ssize_t>(last.ln_party) - static_cast<ssize_t>(first.ln_party));
  std::printf("  GC party    : %+zd bytes  (paper: O(n), 32 B/update)\n",
              static_cast<ssize_t>(last.gc_party) - static_cast<ssize_t>(first.gc_party));
  return 0;
}
