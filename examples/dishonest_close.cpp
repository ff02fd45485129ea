// Fraud and punishment: Alice publishes a revoked commit transaction and
// Bob's single floating revocation transaction — valid against *every*
// revoked state — claims the whole channel within Δ rounds.
#include <cstdio>

#include "src/daric/protocol.h"

using namespace daric;  // NOLINT
using sim::PartyId;

int main() {
  sim::Environment env(/*delta=*/2, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = "cheater-victim";
  params.cash_a = 500'000;
  params.cash_b = 500'000;
  params.t_punish = 6;

  daricch::DaricChannel channel(env, params);
  channel.create();

  // Alice's balance shrinks with every update — she has an incentive to
  // re-publish an early state.
  for (int i = 1; i <= 5; ++i) channel.update({500'000 - i * 80'000, 500'000 + i * 80'000, {}});
  std::printf("Channel at state %u: A=%lld, B=%lld\n",
              channel.party(PartyId::kA).state_number(),
              static_cast<long long>(channel.party(PartyId::kA).state().to_a),
              static_cast<long long>(channel.party(PartyId::kA).state().to_b));

  std::printf("\nAlice publishes the revoked commit of state 1 (A=420k there)...\n");
  const Round fraud_round = env.now();
  channel.publish_old_commit(PartyId::kA, 1);
  channel.run_until_closed();

  const auto commit = env.ledger().spender_of(channel.funding_outpoint());
  const auto revocation = env.ledger().spender_of({commit->txid(), 0});
  std::printf("Bob's outcome: %s (after %lld rounds)\n",
              channel::outcome_name(channel.party(PartyId::kB).outcome()),
              static_cast<long long>(*channel.party(PartyId::kB).closed_round() - fraud_round));
  std::printf("Revocation transaction pays Bob %lld sat — the *entire* capacity.\n",
              static_cast<long long>(revocation->tx().outputs[0].cash));
  std::printf("\nNote: Bob stored one revocation signature total, not one per state;\n");
  std::printf("its nLockTime (%u) outranks every revoked commit's CLTV, and the\n",
              revocation->tx().nlocktime);
  std::printf("latest commit's CLTV (%u) makes it unusable against honest closes.\n",
              channel.party(PartyId::kB).state_number());
  return 0;
}
