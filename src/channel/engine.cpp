#include "src/channel/engine.h"

#include <stdexcept>
#include <string>

#include "src/daric/builders.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace daric::channel {

namespace {
/// Delivery attempts per protocol message before the sender concludes the
/// link (or the counterparty) is dead and falls back to force-close.
constexpr int kMaxSendAttempts = 3;
}  // namespace

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kNone: return "none";
    case Outcome::kCooperative: return "cooperative";
    case Outcome::kNonCollaborative: return "non-collaborative";
    case Outcome::kPunished: return "punished";
    case Outcome::kCompensated: return "compensated";
  }
  return "unknown";
}

Engine::Engine(sim::Environment& env, ChannelParams params, const char* name,
               const char* punish)
    : env_(env),
      params_(std::move(params)),
      obs_(obs::EngineHandles::bind(env.metrics(), name, punish)),
      name_(name) {
  params_.validate(env_.delta());
}

void Engine::set_monitor_online(bool a, bool b) {
  online_[0] = a;
  online_[1] = b;
}

bool Engine::run_until_closed(Round max_rounds) {
  for (Round r = 0; r < max_rounds; ++r) {
    if (closed()) return true;
    env_.advance_round();
  }
  return closed();
}

int Engine::send_reliable(sim::PartyId from, const char* type) {
  for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (attempt > 0) {
      obs_.retries->inc();
      if (tracing())
        emit(obs::EventKind::kMsgRetry, sim::party_name(from),
             {obs::Attr::s("type", type), obs::Attr::i("attempt", attempt)});
    }
    const auto d = env_.transmit(from, type);
    if (d.copies > 0) return d.copies;
    // Dropped: the sender's ack timeout fires and it re-sends.
  }
  return 0;
}

int Engine::send_or_close(sim::PartyId from, const char* type) {
  const int copies = send_reliable(from, type);
  if (copies == 0) abort_to(from);
  return copies;
}

bool Engine::abort_to(sim::PartyId who) {
  force_close(who);
  for (Round r = 0; r < kCloseRounds && outcome(who) == Outcome::kNone; ++r) env_.advance_round();
  return false;
}

bool Engine::mint_funding(const char* type, script::Script fund_script, Amount value) {
  fund_script_ = std::move(fund_script);
  if (send_reliable(sim::PartyId::kA, type) == 0) return false;
  fund_op_ = env_.ledger().mint(value, tx::Condition::p2wsh(fund_script_));
  return true;
}

bool Engine::close_2of2(sim::PartyId initiator, const char* type, tx::Transaction close,
                        const crypto::KeyPair& key_a, const crypto::KeyPair& key_b) {
  require_open();
  const auto& scheme = env_.scheme();
  const tx::SighashCache sh(close);
  Bytes sig_a = tx::sign_input(close, 0, key_a, scheme, script::SighashFlag::kAll, &sh);
  Bytes sig_b = tx::sign_input(close, 0, key_b, scheme, script::SighashFlag::kAll, &sh);
  return post_cooperative_close(initiator, type, std::move(close), std::move(sig_a),
                                std::move(sig_b));
}

bool Engine::close_2of2(sim::PartyId initiator, const char* type, tx::Transaction close,
                        const crypto::Scalar& sk_a, const crypto::Scalar& sk_b) {
  require_open();
  const auto& scheme = env_.scheme();
  Bytes sig_a = tx::sign_input(close, 0, sk_a, scheme, script::SighashFlag::kAll);
  Bytes sig_b = tx::sign_input(close, 0, sk_b, scheme, script::SighashFlag::kAll);
  return post_cooperative_close(initiator, type, std::move(close), std::move(sig_a),
                                std::move(sig_b));
}

bool Engine::post_cooperative_close(sim::PartyId initiator, const char* type,
                                    tx::Transaction close, Bytes sig_a, Bytes sig_b) {
  daricch::attach_funding_witness(close, 0, fund_script_, std::move(sig_a), std::move(sig_b));
  if (send_or_close(initiator, type) == 0) return false;
  observe_weight(close);
  note_phase({}, "coop_close_posted");
  coop_close_txid_ = env_.ledger().post(close);
  return run_until_closed();
}

void Engine::require_open() const {
  if (!is_open()) throw std::logic_error("channel not open");
}

void Engine::check_next_state(const StateVec& next, Amount floor) const {
  require_open();
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve the channel capacity");
  if (next.to_a < floor || next.to_b < floor)
    throw std::invalid_argument("state puts a balance below the engine's floor");
}

void Engine::emit(obs::EventKind kind, std::string_view party, std::vector<obs::Attr> attrs) {
  env_.tracer().emit(env_.now(), kind, name_, params_.id, std::string(party), std::move(attrs));
}

void Engine::observe_weight(const tx::Transaction& t) {
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(t).weight()));
}

void Engine::note_phase(std::string_view party, const char* phase,
                        std::optional<std::uint32_t> sn) {
  if (!tracing()) return;
  std::vector<obs::Attr> attrs{obs::Attr::s("phase", phase)};
  if (sn) attrs.push_back(obs::Attr::i("sn", static_cast<std::int64_t>(*sn)));
  emit(obs::EventKind::kChannelState, party, std::move(attrs));
}

void Engine::note_opened() {
  obs_.opened->inc();
  note_phase({}, "open", 0);
}

void Engine::note_updated(std::string_view party) {
  obs_.updates->inc();
  note_phase(party, "updated", state_number());
}

void Engine::note_force_close(sim::PartyId who, std::uint32_t sn) {
  obs_.force_close->inc();
  if (tracing())
    emit(obs::EventKind::kForceClose, sim::party_name(who),
         {obs::Attr::i("sn", static_cast<std::int64_t>(sn)), obs::Attr::i("revoked", 0)});
}

void Engine::note_dispute(sim::PartyId who, std::uint32_t state) {
  obs_.disputes->inc();
  if (tracing())
    emit(obs::EventKind::kForceClose, sim::party_name(who),
         {obs::Attr::i("sn", static_cast<std::int64_t>(state)),
          obs::Attr::i("revoked", state < state_number() ? 1 : 0)});
}

void Engine::note_punish(sim::PartyId victim, std::uint32_t revoked, std::uint32_t latest) {
  obs_.punish_posted->inc();
  if (tracing())
    emit(obs::EventKind::kPunish, sim::party_name(victim),
         {obs::Attr::i("revoked_state", static_cast<std::int64_t>(revoked)),
          obs::Attr::i("latest_sn", static_cast<std::int64_t>(latest))});
}

void Engine::emit_closed(std::string_view party, Outcome o, const char* how,
                         std::optional<std::uint32_t> settled) {
  obs_.closed->inc();
  if (!tracing()) return;
  std::vector<obs::Attr> attrs{obs::Attr::s("phase", "closed"),
                               obs::Attr::s("outcome", how ? how : outcome_name(o))};
  if (settled)
    attrs.push_back(obs::Attr::i("settled_state", static_cast<std::int64_t>(*settled)));
  emit(obs::EventKind::kChannelState, party, std::move(attrs));
}

void Engine::close_as(Outcome o, const char* how, std::optional<std::uint32_t> settled) {
  outcome_ = o;
  open_ = false;
  emit_closed({}, o, how, settled);
}

}  // namespace daric::channel
