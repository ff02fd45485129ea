// Watchtower delegation: Bob goes offline, his tower holds exactly one
// floating revocation package (O(1) storage) and still punishes any of the
// n revoked states.
#include <cstdio>

#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/store/backend.h"
#include "src/store/tower.h"

using namespace daric;  // NOLINT
using sim::PartyId;

int main() {
  sim::Environment env(2, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = "watched-channel";
  params.cash_a = 500'000;
  params.cash_b = 500'000;
  params.t_punish = 6;

  daricch::DaricChannel channel(env, params);
  channel.create();

  store::MemoryBackend disk;
  store::TowerService tower(disk);
  env.add_round_hook([&] { tower.on_round(env.ledger()); });

  // 50 updates; after each one Bob hands the tower the refreshed package.
  for (int i = 1; i <= 50; ++i) {
    channel.update({500'000 - i * 5'000, 500'000 + i * 5'000, {}});
    tower.watch(store::make_watch_entry(
        channel.params(), PartyId::kB, channel.funding_outpoint(),
        channel.party(PartyId::kA).pub(), channel.party(PartyId::kB).pub(),
        daricch::make_watchtower_package(channel.party(PartyId::kB))));
  }
  std::printf("50 updates done. Tower storage: %zu-byte record + %zu-byte index entry\n"
              "(constant, one package).\n",
              tower.live_record_bytes(), tower.index_bytes());
  std::printf("A Lightning tower would hold 50 states' revocation material instead.\n\n");

  std::printf("Bob goes offline. Alice publishes the revoked state 7...\n");
  channel.party(PartyId::kB).set_online(false);
  channel.publish_old_commit(PartyId::kA, 7);
  // Only the tower is watching: it reacts in the round the fraud confirms.
  for (int r = 0; r < 12 && tower.reactions() == 0; ++r) env.advance_round();
  env.advance_rounds(4);

  const auto commit = env.ledger().spender_of(channel.funding_outpoint());
  const auto rv = env.ledger().spender_of({commit->txid(), 0});
  std::printf("Tower reacted: %s; revocation pays Bob %lld sat.\n",
              tower.reactions() > 0 ? "yes" : "no",
              rv ? static_cast<long long>(rv->tx().outputs[0].cash) : 0);
  return 0;
}
