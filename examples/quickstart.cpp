// Quickstart: open a Daric channel, pay back and forth off-chain, close
// cooperatively. Demonstrates the public API end to end.
#include <cstdio>

#include "src/daric/protocol.h"

using namespace daric;  // NOLINT
using sim::PartyId;

int main() {
  // A simulated Bitcoin-like ledger: Δ = 2 rounds of confirmation latency,
  // Schnorr signatures (swap in crypto::ecdsa_scheme() — Daric does not care).
  sim::Environment env(/*delta=*/2, crypto::schnorr_scheme());

  channel::ChannelParams params;
  params.id = "alice-bob";
  params.cash_a = 600'000;  // Alice deposits 0.006 BTC
  params.cash_b = 400'000;  // Bob deposits 0.004 BTC
  params.t_punish = 6;      // dispute window T (must exceed Δ)
  params.min_balance_fraction = 0.01;  // the 1% reserve of Sec. 6.2

  daricch::DaricChannel channel(env, params);

  std::printf("Creating channel (funding tx confirms within Δ = %lld rounds)...\n",
              static_cast<long long>(env.delta()));
  if (!channel.create()) {
    std::printf("channel creation failed\n");
    return 1;
  }
  std::printf("  state %u: A=%lld, B=%lld\n", channel.party(PartyId::kA).state_number(),
              static_cast<long long>(channel.party(PartyId::kA).state().to_a),
              static_cast<long long>(channel.party(PartyId::kA).state().to_b));

  // Off-chain payments: no ledger interaction at all.
  const std::size_t chain_before = env.ledger().accepted().size();
  channel.update({500'000, 500'000, {}});              // Alice pays Bob 100k
  channel.update({650'000, 350'000, {}}, PartyId::kB); // Bob pays Alice 150k
  channel.update({640'000, 360'000, {}});              // Alice pays Bob 10k
  std::printf("3 updates later, state %u: A=%lld, B=%lld (on-chain txs added: %zu)\n",
              channel.party(PartyId::kA).state_number(),
              static_cast<long long>(channel.party(PartyId::kA).state().to_a),
              static_cast<long long>(channel.party(PartyId::kA).state().to_b),
              env.ledger().accepted().size() - chain_before);

  std::printf("Party storage: %zu bytes — constant no matter how many updates (O(1)).\n",
              channel.party(PartyId::kA).storage_bytes());

  std::printf("Cooperative close...\n");
  channel.cooperative_close();
  std::printf("  outcome: %s at round %lld\n",
              channel::outcome_name(channel.party(PartyId::kA).outcome()),
              static_cast<long long>(*channel.party(PartyId::kA).closed_round()));
  const auto close_tx = env.ledger().spender_of(channel.funding_outpoint());
  std::printf("  on-chain split: A=%lld, B=%lld\n",
              static_cast<long long>(close_tx->tx().outputs[0].cash),
              static_cast<long long>(close_tx->tx().outputs[1].cash));
  return 0;
}
