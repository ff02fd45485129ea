// A small payment-channel network: open a mesh of Daric channels, route
// payments (including a hop failure with rollback), then show that fraud
// anywhere in the network is still punished per channel.
#include <cstdio>

#include "src/pcn/network.h"

using namespace daric;  // NOLINT
using sim::PartyId;

int main() {
  sim::Environment env(/*delta=*/2, crypto::schnorr_scheme());
  pcn::PaymentNetwork net(env);

  for (const char* n : {"alice", "bob", "carol", "dave", "erin"}) net.add_node(n);
  net.open_channel("alice", "bob", 500'000, 500'000);
  net.open_channel("bob", "carol", 500'000, 500'000);
  net.open_channel("carol", "dave", 500'000, 500'000);
  net.open_channel("bob", "erin", 500'000, 500'000);
  net.open_channel("erin", "dave", 500'000, 500'000);
  std::printf("5 nodes, %zu Daric channels opened.\n\n", net.channel_count());

  const auto route = net.find_route("alice", "dave", 100'000);
  std::printf("Route alice->dave: %zu hops.\n", route ? route->size() : 0);

  std::printf("Paying alice -> dave, 100k sat...\n");
  const std::size_t chain_before = env.ledger().accepted().size();
  net.pay("alice", "dave", 100'000);
  std::printf("  dave's balance: %lld (+100k); on-chain txs: %zu (zero)\n",
              static_cast<long long>(net.balance("dave")),
              env.ledger().accepted().size() - chain_before);

  std::printf("\ncarol goes offline; alice pays dave again...\n");
  net.set_offline("carol", true);
  const bool ok = net.pay("alice", "dave", 100'000);
  std::printf("  payment %s (routing avoids carol: alice->bob->erin->dave)\n",
              ok ? "succeeded" : "failed");
  std::printf("  alice's balance: %lld\n", static_cast<long long>(net.balance("alice")));
  net.set_offline("carol", false);

  std::printf("\nbob turns rogue on the bob-carol channel (publishes state 0)...\n");
  auto& ch = net.channel(1);
  ch.publish_old_commit(PartyId::kA, 0);
  ch.run_until_closed();
  std::printf("  outcome: %s — carol holds the channel's full capacity.\n",
              channel::outcome_name(ch.party(PartyId::kB).outcome()));
  std::printf("  the rest of the network keeps routing: pay alice->erin: %s\n",
              net.pay("alice", "erin", 50'000) ? "ok" : "failed");
  return 0;
}
