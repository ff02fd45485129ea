// Sec. 6.1 reproduction: the HTLC-delay attack against eltoo.
//
// Part 1 — the paper's closed-form cost/benefit analysis at the April-2022
// operating point (≈715 channels per delay tx, 144 delay txs over a 3-day
// timelock, cost 144·A vs revenue up to 715·A).
// Part 2 — parameter sweeps (congestion, timelock).
// Part 3 — executable mempool simulation demonstrating that BIP-125 fee
// pinning blocks the victims past the HTLC timelock, and that the same
// attack cannot start against Daric.
#include <cstdio>

#include "src/analysis/eltoo_attack.h"
#include "src/daric/protocol.h"

using namespace daric;            // NOLINT
using namespace daric::analysis;  // NOLINT

int main() {
  std::printf("=== Sec 6.1: eltoo HTLC-delay attack ===\n\n");

  const DelayAttackEconomics base = analyze_delay_attack({});
  std::printf("Closed form at the paper's operating point (A = 100k sat,\n");
  std::printf("3-day timelock, 1 sat/vB floor, 30-min floor confirmation):\n");
  std::printf("  channels per delay tx : %d   (paper: ~715)\n", base.channels_per_delay_tx);
  std::printf("  delay txs before expiry: %d  (paper: 144)\n", base.delay_txs_before_expiry);
  std::printf("  attacker cost          : %lld sat (144*A)\n",
              static_cast<long long>(base.total_attack_cost));
  std::printf("  max attacker revenue   : %lld sat (715*A)\n",
              static_cast<long long>(base.max_revenue));
  std::printf("  profit                 : %lld sat -> %s\n",
              static_cast<long long>(base.profit),
              base.profitable ? "PROFITABLE" : "not profitable");

  std::printf("\nCongestion sweep (delay multiplier on floor-rate confirmation):\n");
  std::printf("%12s %12s %16s %14s\n", "congestion", "delay txs", "attack cost", "profit");
  for (int c : {1, 2, 4, 8, 16}) {
    DelayAttackParams p;
    p.fee_market.congestion = c;
    const DelayAttackEconomics e = analyze_delay_attack(p);
    std::printf("%12d %12d %16lld %14lld\n", c, e.delay_txs_before_expiry,
                static_cast<long long>(e.total_attack_cost),
                static_cast<long long>(e.profit));
  }

  std::printf("\nHTLC timelock sweep (blocks):\n");
  std::printf("%12s %12s %14s %14s\n", "timelock", "delay txs", "profit", "profitable");
  for (int t : {144, 432, 1008, 2148, 4320}) {
    DelayAttackParams p;
    p.htlc_timelock_blocks = t;
    const DelayAttackEconomics e = analyze_delay_attack(p);
    std::printf("%12d %12d %14lld %14s\n", t, e.delay_txs_before_expiry,
                static_cast<long long>(e.profit), e.profitable ? "yes" : "no");
  }

  std::printf("\nExecutable mempool simulation (scaled: 2 channels, 12-round\n");
  std::printf("timelock, A = 5000 sat, floor confirmation = 3 rounds):\n");
  const DelayAttackSimResult sim = simulate_delay_attack(2, 12, 5'000, {1.0, 3, 1});
  std::printf("  delay txs confirmed          : %d\n", sim.delay_txs_confirmed);
  std::printf("  victim RBF attempts rejected : %d\n", sim.victim_replacements_rejected);
  std::printf("  victim blocked for           : %lld rounds\n",
              static_cast<long long>(sim.victim_blocked_rounds));
  std::printf("  blocked past HTLC timelock   : %s\n",
              sim.victim_blocked_past_timelock ? "YES (attack succeeds)" : "no");
  std::printf("  attacker fees paid           : %lld sat\n",
              static_cast<long long>(sim.attacker_fees_paid));

  std::printf("\nDaric under the same adversary: publishing any old commit hands\n");
  std::printf("the whole channel to the victim within Delta rounds.\n");
  {
    sim::Environment env(2, crypto::schnorr_scheme());
    channel::ChannelParams p;
    p.id = "sec61-daric";
    p.cash_a = 50'000;
    p.cash_b = 50'000;
    p.t_punish = 6;
    daricch::DaricChannel ch(env, p);
    ch.create();
    ch.update({40'000, 60'000, {}});
    const Round start = env.now();
    ch.publish_old_commit(sim::PartyId::kA, 0);
    ch.run_until_closed();
    std::printf("  outcome: %s after %lld rounds (bound: Delta = %lld per hop)\n",
                channel::outcome_name(ch.party(sim::PartyId::kB).outcome()),
                static_cast<long long>(*ch.party(sim::PartyId::kB).closed_round() - start),
                static_cast<long long>(daric_reaction_bound(env.delta())));
  }
  return 0;
}
