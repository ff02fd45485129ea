// Multi-hop payment (Sec. 8): Alice pays Carol through Bob using the same
// HTLC hash on two Daric channels. Shows the happy path (preimage flows
// back, both channels settle off-chain) and the enforcement path (a hop
// force-closes and the HTLC is redeemed on-chain with the preimage).
#include <cstdio>

#include "src/daric/protocol.h"

using namespace daric;  // NOLINT
using sim::PartyId;

namespace {

channel::ChannelParams make_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

}  // namespace

int main() {
  sim::Environment env(2, crypto::schnorr_scheme());
  // Channel 1: Alice (A) — Bob (B). Channel 2: Bob (A) — Carol (B).
  daricch::DaricChannel ab(env, make_params("alice-bob"));
  daricch::DaricChannel bc(env, make_params("bob-carol"));
  ab.create();
  bc.create();

  const Amount amount = 120'000;
  // Carol generates the invoice: a preimage and its HASH160.
  const auto invoice = channel::make_htlc_secret("carol-invoice-42");

  std::printf("Routing %lld sat Alice -> Bob -> Carol, hash-locked to Carol's invoice.\n",
              static_cast<long long>(amount));
  // Alice locks the HTLC toward Bob; Bob locks a matching HTLC toward Carol.
  // (Bob's HTLC timeout must be shorter so he can always recover upstream.)
  ab.update({500'000 - amount, 500'000, {{amount, invoice.payment_hash, true, 20}}});
  bc.update({500'000 - amount, 500'000, {{amount, invoice.payment_hash, true, 12}}});

  // Happy path: Carol reveals the preimage to Bob; both channels settle
  // the HTLC off-chain with a plain update.
  std::printf("Carol reveals the preimage; both hops settle off-chain.\n");
  bc.update({500'000 - amount, 500'000 + amount, {}});
  ab.update({500'000 - amount, 500'000 + amount, {}});
  std::printf("  alice-bob: A=%lld B=%lld | bob-carol: A=%lld B=%lld\n",
              static_cast<long long>(ab.party(PartyId::kA).state().to_a),
              static_cast<long long>(ab.party(PartyId::kA).state().to_b),
              static_cast<long long>(bc.party(PartyId::kA).state().to_a),
              static_cast<long long>(bc.party(PartyId::kA).state().to_b));

  // Enforcement path on a second payment: Bob goes silent after the HTLCs
  // are locked, so Carol enforces on-chain with the preimage.
  std::printf("\nSecond payment: Bob goes unresponsive after the HTLC locks.\n");
  const auto invoice2 = channel::make_htlc_secret("carol-invoice-43");
  const channel::StateVec locked{500'000 - 2 * amount, 500'000 + amount,
                                 {{amount, invoice2.payment_hash, true, 12}}};
  bc.update(locked);
  std::printf("Carol force-closes bob-carol and redeems the HTLC with the preimage.\n");
  bc.party(PartyId::kB).force_close();
  bc.run_until_closed();
  const auto commit = env.ledger().spender_of(bc.funding_outpoint());
  const auto split = env.ledger().spender_of({commit->txid(), 0});
  const tx::Transaction redeem = daricch::build_htlc_redeem(
      split->tx(), 0, locked, bc.party(PartyId::kB), bc.party(PartyId::kA).pub(),
      bc.party(PartyId::kB).pub(), invoice2.preimage);
  env.ledger().post(redeem);
  env.advance_rounds(3);
  std::printf("  split confirmed with %zu outputs; HTLC redeem confirmed: %s\n",
              split->tx().outputs.size(),
              env.ledger().is_confirmed(redeem.txid()) ? "yes" : "no");
  std::printf("  Carol's redeem hands her %lld sat; the preimage on-chain lets Bob\n",
              static_cast<long long>(redeem.outputs[0].cash));
  std::printf("  (when he returns) claim the matching upstream HTLC from Alice.\n");
  return 0;
}
