// The one channel-engine contract, and the shell every engine shares.
//
// Callers (the chaos drill, the trace scenarios, the contract test) hold a
// channel::Engine& and call only the public contract: create, update,
// cooperative/force close, publish_old_commit, outcome, payout_pk and the
// monitor flag. The protected half is the shell the six engines would
// otherwise each re-implement: the retry budget and the abort-to-force-
// close fallback of every protocol message, the next-state check, the
// closed bookkeeping and run_until_closed, the cached instrument handles and
// the lifecycle events. The shell also owns the five baselines' 2-of-2
// funding (minted once the create handshake got through) and their
// cooperative close (signed by both funding keys, then posted and awaited).
//
// What stays engine-specific is each protocol's own messages, transactions
// and monitor. Daric keeps its own funding, one monitor and one outcome per
// party (overriding outcome, closed, set_monitor_online and
// funding_outpoint); the five baselines keep a single channel-level monitor
// that is online only while neither party is dark.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/channel/params.h"
#include "src/channel/state.h"
#include "src/crypto/keys.h"
#include "src/obs/event.h"
#include "src/obs/handles.h"
#include "src/sim/environment.h"
#include "src/sim/party.h"

namespace daric::channel {

/// How a channel resolved, from one party's point of view.
enum class Outcome {
  kNone,
  kCooperative,
  kNonCollaborative,
  kPunished,     // a revoked commit was answered by a punishment
  kCompensated,  // FPPW: the tower failed and the victim took its collateral
};

const char* outcome_name(Outcome o);

/// Rounds run_until_closed and abort_to advance before giving up. A Daric
/// party that went dark never closes, so waiting for it (run_until_closed)
/// spends this whole budget; abort_to waits only for the aborting party.
inline constexpr Round kCloseRounds = 200;

class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens the channel. Returns false when the handshake timed out.
  virtual bool create() = 0;
  /// Moves both parties to `next`. Returns false when a silent peer made
  /// the sender abort to a force close.
  virtual bool update(const StateVec& next) = 0;
  /// Closes on the latest state, `initiator` speaking first. Falls back to
  /// a force close by the initiator when the counterparty stays silent.
  virtual bool cooperative_close(sim::PartyId initiator) = 0;
  /// `who` posts its newest fully signed commit.
  virtual void force_close(sim::PartyId who) = 0;
  /// Fraud injection: `who` publishes its commit of (revoked) `state`.
  virtual void publish_old_commit(sim::PartyId who, std::uint32_t state) = 0;

  virtual std::uint32_t state_number() const = 0;
  /// The key every payout to `who` (balance, punishment, settlement) pays.
  virtual BytesView payout_pk(sim::PartyId who) const = 0;
  /// Whether a revoked commit costs its publisher (eltoo only overrides it).
  virtual bool punishes() const { return true; }
  virtual Outcome outcome(sim::PartyId /*who*/) const { return outcome_; }
  virtual bool closed() const { return outcome_ != Outcome::kNone; }
  /// Downtime control: a dark party's monitor misses rounds.
  virtual void set_monitor_online(bool a, bool b);
  /// The output the channel's commits spend (default until create minted it).
  virtual tx::OutPoint funding_outpoint() const { return fund_op_; }

  /// Advances rounds until closed() or the budget runs out.
  bool run_until_closed(Round max_rounds = kCloseRounds);
  const ChannelParams& params() const { return params_; }

 protected:
  /// Validates `params` against the ledger's Δ and binds the instrument
  /// family "<name>.*"; `punish` names the reaction counter's suffix.
  Engine(sim::Environment& env, ChannelParams params, const char* name,
         const char* punish = "punish.posted");

  // --- messages ------------------------------------------------------------
  /// One delivery attempt per round, re-sent on drop up to the retry
  /// budget. Returns the delivered copies (0: the abort timeout fired).
  int send_reliable(sim::PartyId from, const char* type);
  /// send_reliable, and abort_to(from) when it times out.
  int send_or_close(sim::PartyId from, const char* type);
  /// `who` gives up on the counterparty: force_close(who), then rounds
  /// until outcome(who) resolves (the channel's outcome for the baselines).
  /// Always returns false (the failed operation).
  bool abort_to(sim::PartyId who);

  // --- the baselines' 2-of-2 funding and cooperative close ------------------
  /// A sends `type`; once it got through, `value` is minted to
  /// `fund_script` (fund_op_), so a create that timed out strands nothing.
  /// Returns false when the handshake timed out.
  bool mint_funding(const char* type, script::Script fund_script, Amount value);
  /// The cooperative close: both funding keys sign `close` (which spends
  /// fund_op_ at input 0) and the 2-of-2 witness is attached; then
  /// `initiator` sends `type` (aborting to a force close on silence), and
  /// the close is posted and awaited. The monitors recognise it by
  /// coop_close_txid_. Cerberus and FPPW sign with the bare secret keys
  /// (RFC 6979 nonces), the other baselines with the key pairs.
  bool close_2of2(sim::PartyId initiator, const char* type, tx::Transaction close,
                  const crypto::KeyPair& key_a, const crypto::KeyPair& key_b);
  bool close_2of2(sim::PartyId initiator, const char* type, tx::Transaction close,
                  const crypto::Scalar& sk_a, const crypto::Scalar& sk_b);

  // --- checks --------------------------------------------------------------
  virtual bool is_open() const { return open_; }
  void require_open() const;
  /// Throws unless the channel is open, `next` keeps the capacity and both
  /// balances reach `floor`.
  void check_next_state(const StateVec& next, Amount floor) const;

  // --- telemetry -------------------------------------------------------------
  /// Event attributes allocate: build them only when tracing().
  bool tracing() const { return env_.tracer().enabled(); }
  void emit(obs::EventKind kind, std::string_view party, std::vector<obs::Attr> attrs);
  void observe_weight(const tx::Transaction& t);
  /// A channel_state event naming `phase` (and the state number, if any).
  void note_phase(std::string_view party, const char* phase,
                  std::optional<std::uint32_t> sn = std::nullopt);
  void note_opened();
  void note_updated(std::string_view party);
  void note_force_close(sim::PartyId who, std::uint32_t sn);
  /// `who` published its commit of `state` (revoked unless the latest).
  void note_dispute(sim::PartyId who, std::uint32_t state);
  void note_punish(sim::PartyId victim, std::uint32_t revoked, std::uint32_t latest);
  /// Counts one close and emits its event. eltoo names how it settled
  /// (`how`, default: the outcome's name) and at which state.
  void emit_closed(std::string_view party, Outcome o, const char* how = nullptr,
                   std::optional<std::uint32_t> settled = std::nullopt);
  /// Resolves a channel-level monitor: records `o` and emits the close.
  void close_as(Outcome o, const char* how = nullptr,
                std::optional<std::uint32_t> settled = std::nullopt);

  // --- monitor ---------------------------------------------------------------
  /// A channel-level monitor runs while the channel is open and neither
  /// party is dark.
  bool monitoring() const { return open_ && online_[0] && online_[1]; }

  sim::Environment& env_;
  ChannelParams params_;
  obs::EngineHandles obs_;
  // Channel-level bookkeeping of the baselines; Daric keeps it per party.
  bool open_ = false;
  Outcome outcome_ = Outcome::kNone;
  tx::OutPoint fund_op_;
  script::Script fund_script_;
  std::optional<Hash256> coop_close_txid_;

 private:
  bool post_cooperative_close(sim::PartyId initiator, const char* type, tx::Transaction close,
                              Bytes sig_a, Bytes sig_b);

  const char* name_;
  bool online_[2] = {true, true};
};

}  // namespace daric::channel
