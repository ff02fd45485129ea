#include "src/obs/scenarios.h"

#include "src/crypto/sig_scheme.h"
#include "src/eltoo/protocol.h"
#include "src/pcn/network.h"
#include "src/sim/faults/drill.h"

namespace daric::obs {

namespace {

using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Round kTPunish = 8;

channel::ChannelParams make_params(const std::string& engine) {
  channel::ChannelParams p;
  p.id = "obs/" + engine;
  p.cash_a = 50;
  p.cash_b = 50;
  p.t_punish = kTPunish;
  return p;
}

channel::StateVec shifted(Amount to_a, Amount to_b) { return {to_a, to_b, {}}; }

ScenarioRun finish(sim::Environment& env, bool ok, std::string detail) {
  ScenarioRun r;
  r.ok = ok;
  r.detail = std::move(detail);
  r.events = env.tracer().ring_snapshot();
  r.metrics_json = env.metrics().snapshot_json();
  r.metrics_text = env.metrics().summary_text();
  return r;
}

ScenarioRun run_htlc(sim::Environment& env) {
  pcn::PaymentNetwork net(env);
  net.add_node("A");
  net.add_node("B");
  net.add_node("C");
  net.open_channel("A", "B", 50, 50, kTPunish);
  net.open_channel("B", "C", 50, 50, kTPunish);
  const bool ok = net.pay("A", "C", 10);
  return finish(env, ok && net.payments_completed() == 1,
                ok ? "multi-hop payment settled" : "multi-hop payment failed");
}

ScenarioRun run_channel(sim::Environment& env, sim::faults::Protocol proto,
                        const std::string& scenario) {
  const auto ch = sim::faults::make_engine(proto, env, make_params(protocol_name(proto)));
  if (!ch->create()) return finish(env, false, "create failed");
  if (scenario == "update") {
    if (!ch->update(shifted(45, 55)) || !ch->update(shifted(40, 60)) ||
        !ch->update(shifted(48, 52)))
      return finish(env, false, "update failed");
    const bool ok = ch->cooperative_close(PartyId::kA) &&
                    ch->outcome(PartyId::kA) == channel::Outcome::kCooperative;
    return finish(env, ok, ok ? "cooperative close" : "cooperative close failed");
  }
  if (scenario == "force-close") {
    if (!ch->update(shifted(45, 55)) || !ch->update(shifted(40, 60)))
      return finish(env, false, "update failed");
    // B publishes the revoked state-0 commit; A's monitor must post the
    // revocation within T − Δ of the dispute (Theorem 1).
    ch->publish_old_commit(PartyId::kB, 0);
    const bool closed = ch->run_until_closed();
    if (ch->punishes()) {
      const bool ok = closed && ch->outcome(PartyId::kA) == channel::Outcome::kPunished;
      return finish(env, ok, ok ? "cheater punished" : "punishment did not land");
    }
    // eltoo has no punishment: the honest side can only override the stale
    // update with the latest one and settle there.
    const auto& el = dynamic_cast<const eltoo::EltooChannel&>(*ch);
    const bool ok = closed && el.settled_state() == el.state_number();
    return finish(env, ok, ok ? "stale update overridden" : "override did not land");
  }
  return finish(env, false, "unknown scenario: " + scenario);
}

}  // namespace

std::vector<std::string> scenario_engines() {
  return {"daric", "lightning", "eltoo", "generalized"};
}

std::vector<std::string> scenario_names() { return {"update", "force-close", "htlc"}; }

ScenarioRun run_scenario(const std::string& engine, const std::string& scenario) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  env.tracer().set_enabled(true);

  if (scenario == "htlc" && engine != "daric") {
    return finish(env, false, "htlc scenario rides on the Daric PCN; use --engine daric");
  }
  if (scenario == "htlc") return run_htlc(env);
  const auto proto = sim::faults::protocol_from_name(engine);
  if (!proto) return finish(env, false, "unknown engine: " + engine);
  return run_channel(env, *proto, scenario);
}

}  // namespace daric::obs
