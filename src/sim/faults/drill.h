// Chaos drills: run one protocol engine under a FaultSchedule and audit
// the terminal on-chain state against the paper's funds-security claims.
//
// A drill drives create → updates → (crash-recovery | fraud | honest
// close) with the schedule's message faults, adversarial ledger delays and
// monitor blackouts applied, then audits the UTXO set:
//   · conservation — no value appears or vanishes (minted = unspent + fees);
//   · payout — the parties' P2WPKH credits match a state both signed
//     (full capacity to the victim after a punishment).
// Generated schedules respect Theorem 1's liveness precondition, so every
// invariant must hold. Crafted schedules may set expect_loss: the drill
// then demands the opposite — demonstrable funds loss — which pins the
// T − Δ failure boundary instead of hand-waving it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/channel/engine.h"
#include "src/sim/faults/schedule.h"

namespace daric::obs {
class Sink;
}

namespace daric::sim::faults {

/// The engines the drill, the trace scenarios and the tools construct by
/// name. Cerberus and FPPW implement the same contract but are built
/// directly: the drill has no payout expectations for their tower reward
/// and collateral yet.
enum class Protocol { kDaric, kLightning, kGeneralized, kEltoo };
inline constexpr Protocol kProtocols[] = {Protocol::kDaric, Protocol::kLightning,
                                          Protocol::kGeneralized, Protocol::kEltoo};

const char* protocol_name(Protocol p);
/// Inverse of protocol_name; nullopt for an unknown name.
std::optional<Protocol> protocol_from_name(std::string_view name);
/// Builds `p`'s engine over `env`.
std::unique_ptr<channel::Engine> make_engine(Protocol p, Environment& env,
                                             channel::ChannelParams params);

struct DrillReport {
  Protocol protocol = Protocol::kDaric;
  std::uint64_t seed = 0;
  bool create_ok = false;
  std::uint32_t updates_done = 0;
  bool crashed = false;  // crash-recovery path exercised
  bool cheated = false;  // fraud path exercised
  bool closed = false;
  bool punished = false;
  bool funds_lost = false;
  bool conservation_ok = false;
  bool payout_ok = false;
  /// The run behaved as the schedule demands: all invariants hold, or —
  /// for expect_loss schedules — the funds loss actually materialized.
  bool ok = false;
  std::string detail;
  std::uint64_t msg_total = 0;
  std::uint64_t msg_dropped = 0;
  std::uint64_t msg_delayed = 0;
  std::uint64_t msg_duplicated = 0;
};

/// Optional observability attachment for one drill run. Everything is
/// non-owning / output-only, so the default-constructed value keeps the
/// drill's tracer disabled (null sink) and skips the snapshots.
struct DrillObs {
  /// Receives every trace event of the run (attaching enables tracing).
  obs::Sink* sink = nullptr;
  /// Filled with Registry::snapshot_json() / summary_text() at drill end.
  std::string* metrics_json = nullptr;
  std::string* metrics_text = nullptr;
};

/// Replays `s` against one protocol engine, driven through the
/// channel::Engine contract; Daric adds its durable stores, crash recovery
/// and the cheater's split-sweep endgame. Deterministic: the report is a
/// pure function of (proto, s); the obs attachment only observes the run
/// and never perturbs it.
DrillReport run_drill(Protocol proto, const FaultSchedule& s, const DrillObs& obs = {});

/// Daric watchtower/party-downtime boundary probe (Theorem 1): the cheater
/// publishes a revoked commit with confirmation delay 1 and sweeps the
/// matching revoked split the moment its CSV(T) matures, while the victim's
/// monitor stays dark for `offline_rounds` after the publication and its
/// own transactions suffer the worst-case ledger delay Δ. Safe iff
/// offline_rounds ≤ T − Δ.
struct BoundaryReport {
  Round offline_rounds = 0;
  bool punished = false;
  bool funds_lost = false;
  bool closed = false;
  bool conservation_ok = false;
  /// Longest contiguous run of rounds the victim's monitor actually missed,
  /// read back from the party's own downtime accounting (the same series
  /// the obs registry exports). Sweeps assert the T − Δ boundary against
  /// this observed gap, not just the requested offline_rounds.
  Round observed_gap = 0;
};

BoundaryReport run_downtime_boundary(Round offline_rounds, Round t_punish, Round delta);

}  // namespace daric::sim::faults
