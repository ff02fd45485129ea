// Sec. 6.1 side by side: the delay attack working against eltoo (fee-pinned
// stale states block the victims past the HTLC timelock) and failing
// against Daric (punishment lands within Δ).
#include <cstdio>

#include "src/analysis/eltoo_attack.h"
#include "src/daric/protocol.h"

using namespace daric;  // NOLINT
using sim::PartyId;

int main() {
  std::printf("--- eltoo: the HTLC-delay attack (scaled-down live run) ---\n");
  const analysis::DelayAttackSimResult sim =
      analysis::simulate_delay_attack(/*channels=*/3, /*timelock_rounds=*/12,
                                      /*htlc_value=*/5'000, {1.0, 3, 1});
  std::printf("delay txs confirmed: %d, victim RBF attempts rejected: %d\n",
              sim.delay_txs_confirmed, sim.victim_replacements_rejected);
  std::printf("victims blocked %lld rounds — %s\n",
              static_cast<long long>(sim.victim_blocked_rounds),
              sim.victim_blocked_past_timelock
                  ? "past the HTLC timelock; the adversary wins the race"
                  : "but recovered in time");

  std::printf("\nEconomics at the paper's April-2022 operating point:\n");
  const analysis::DelayAttackEconomics eco = analysis::analyze_delay_attack({});
  std::printf("one 100k-vB delay tx pins %d channels; %d delay txs cover a 3-day\n",
              eco.channels_per_delay_tx, eco.delay_txs_before_expiry);
  std::printf("timelock; attacker pays %lld sat to win up to %lld sat.\n",
              static_cast<long long>(eco.total_attack_cost),
              static_cast<long long>(eco.max_revenue));

  std::printf("\n--- Daric: same adversary, same ledger ---\n");
  sim::Environment env(2, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = "daric-vs-attack";
  params.cash_a = 500'000;
  params.cash_b = 500'000;
  params.t_punish = 6;
  daricch::DaricChannel ch(env, params);
  ch.create();
  const auto h = channel::make_htlc_secret("routed-payment");
  ch.update({400'000, 500'000, {{100'000, h.payment_hash, true, 12}}});
  ch.update({400'000, 600'000, {}});  // HTLC settled off-chain

  std::printf("Adversary publishes the revoked HTLC state...\n");
  ch.publish_old_commit(PartyId::kA, 1);
  ch.run_until_closed();
  std::printf("outcome: %s — the only transaction the ledger accepts on top of a\n",
              channel::outcome_name(ch.party(PartyId::kB).outcome()));
  std::printf("revoked commit is the victim's revocation; there is nothing to pin.\n");
  return 0;
}
