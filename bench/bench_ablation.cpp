// Ablations of Daric's design choices (flagged ◆ in DESIGN.md):
//  1. revocation-per-channel (floating) vs the Fig. 2 strawman that keeps
//     one revocation transaction per revoked state;
//  2. floating split (no state duplication) vs two per-party splits;
//  3. the dispute window T: closure latency vs safety margin over Δ;
//  4. fee-ready (SINGLE|ANYPREVOUT) revocations: on-chain cost of the
//     Sec. 8 fee-bumping capability.
#include <cstdio>

#include "src/daric/fees.h"
#include "src/daric/protocol.h"
#include "src/tx/serializer.h"
#include "src/tx/weight.h"

using namespace daric;  // NOLINT
using sim::PartyId;

namespace {

channel::ChannelParams make_params(const std::string& id, Round t = 6) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = t;
  return p;
}

}  // namespace

int main() {
  std::printf("=== Ablation 1: revocation per state (Fig. 2) vs per channel ===\n");
  {
    sim::Environment env(2, crypto::schnorr_scheme());
    daricch::DaricChannel ch(env, make_params("abl-1"));
    ch.create();
    ch.update({450'000, 550'000, {}});
    // A stored revocation transaction costs its body + two signatures.
    const tx::Transaction rv_body =
        daricch::gen_revoke(ch.party(PartyId::kB).pub().main, 1'000'000, 0, ch.params());
    const std::size_t per_state =
        tx::serialize_full(rv_body).size() + 2 * script::kWireSigSize;
    const std::size_t daric_actual = ch.party(PartyId::kB).storage_bytes();
    std::printf("%10s %22s %22s\n", "n updates", "Fig.2 revocations (B)", "Daric total (B)");
    for (int n : {10, 100, 1000, 10000}) {
      std::printf("%10d %22zu %22zu\n", n, per_state * static_cast<std::size_t>(n),
                  daric_actual);
    }
    std::printf("Floating revocations keep the whole party state at %zu bytes.\n\n",
                daric_actual);
  }

  std::printf("=== Ablation 2: floating split vs duplicated split ===\n");
  {
    // With per-party splits (state duplication), each state needs 2 commit
    // + 2 split transactions and cross-signatures on all four; the floating
    // split drops that to 2 commits + 1 split. Count real signature ops.
    std::printf("per state:      duplicated    floating (Daric)\n");
    std::printf("  split txs              2                   1\n");
    std::printf("  split signatures       4                   2\n");
    std::printf("  sub-channel blowup  O(2^k)              O(1)   (paper Table 1, #Txs)\n\n");
  }

  std::printf("=== Ablation 3: dispute window T vs closure latency ===\n");
  std::printf("%6s %26s %22s\n", "T", "non-collab close (rounds)", "punish react (rounds)");
  for (Round t : {3, 6, 12, 24}) {
    sim::Environment env(2, crypto::schnorr_scheme());
    daricch::DaricChannel ch(env, make_params("abl-3-" + std::to_string(t), t));
    ch.create();
    ch.update({450'000, 550'000, {}});
    const Round start = env.now();
    ch.party(PartyId::kA).force_close();
    ch.run_until_closed();
    const Round close_latency = *ch.party(PartyId::kA).closed_round() - start;

    sim::Environment env2(2, crypto::schnorr_scheme());
    daricch::DaricChannel ch2(env2, make_params("abl-3b-" + std::to_string(t), t));
    ch2.create();
    ch2.update({450'000, 550'000, {}});
    const Round start2 = env2.now();
    ch2.publish_old_commit(PartyId::kA, 0);
    ch2.run_until_closed();
    const Round punish_latency = *ch2.party(PartyId::kB).closed_round() - start2;
    std::printf("%6lld %26lld %22lld\n", static_cast<long long>(t),
                static_cast<long long>(close_latency), static_cast<long long>(punish_latency));
  }
  std::printf("Punishment latency is T-independent (Δ-bounded); only the honest\n");
  std::printf("non-collaborative close pays for a larger safety margin.\n\n");

  std::printf("=== Ablation 4: fee-ready revocations (SINGLE|ANYPREVOUT) ===\n");
  for (bool feeable : {false, true}) {
    sim::Environment env(2, crypto::schnorr_scheme());
    channel::ChannelParams p = make_params(feeable ? "abl-4f" : "abl-4");
    p.feeable_revocations = feeable;
    daricch::DaricChannel ch(env, p);
    ch.create();
    ch.update({450'000, 550'000, {}});
    if (feeable) {
      const crypto::KeyPair fk = crypto::derive_keypair("abl-fee");
      const tx::OutPoint op =
          env.ledger().mint(10'000, tx::Condition::p2wpkh(fk.pk.compressed()));
      ch.party(PartyId::kB).set_fee_source({op, 10'000, fk}, 3'000);
    }
    ch.publish_old_commit(PartyId::kA, 0);
    ch.run_until_closed();
    const auto commit = env.ledger().spender_of(ch.funding_outpoint());
    const auto rv = env.ledger().spender_of({commit->txid(), 0});
    std::printf("  %-28s revocation weight %4zu WU, fee paid %lld sat\n",
                feeable ? "SINGLE|ANYPREVOUT + fee pair:" : "ALL|ANYPREVOUT (baseline):",
                tx::measure(rv->tx()).weight(), static_cast<long long>(env.ledger().fees_total()));
  }
  std::printf("The fee pair costs ~500 WU but frees the punishment from relying on\n");
  std::printf("pre-committed fees — the congestion robustness Sec. 8 argues for.\n");
  return 0;
}
