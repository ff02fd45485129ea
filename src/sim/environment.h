// Simulation environment: ledger + clock + message accounting, plus the
// per-round hooks parties and watchtowers register to monitor the chain.
//
// Hooks run in registration order, but only while awake. Every hook starts
// awake; one may put itself to sleep for the rounds in which it would do
// nothing, and ask to be woken when a confirmed transaction spends an
// outpoint it watches. The environment finds those spends with a cursor over
// the ledger's append-only accepted list, so spends confirmed by a direct
// ledger().advance_rounds() still wake their watchers on the next round.
//
// Message delivery goes through an explicit DeliveryQueue: transmit()
// enqueues the message, advances the clock until its delivery round, and
// reports how many copies arrived (0 when the fault injector dropped it).
// Without an injector every message is delivered exactly once after one
// round — the guaranteed F_GDC behavior the engines were written against.
//
// The environment also owns the observability surface for a run: an
// obs::Tracer (disabled by default — attach a sink or set_enabled to start
// capturing) and an always-on obs::Registry of counters/histograms that
// the chaos drills and tools read instead of keeping bespoke statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/ledger/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/sim/network.h"

namespace daric::sim {

class Environment {
 public:
  /// T must exceed Δ for every channel built on this environment
  /// (Theorem 1's precondition); enforced by the channel engines.
  Environment(Round delta, const crypto::SignatureScheme& scheme)
      : ledger_(delta, scheme),
        msg_sent_(&metrics_.counter("sim.msg.sent")),
        msg_delivered_(&metrics_.counter("sim.msg.delivered")),
        msg_dropped_(&metrics_.counter("sim.msg.dropped")),
        msg_delayed_(&metrics_.counter("sim.msg.delayed")),
        msg_duplicated_(&metrics_.counter("sim.msg.duplicated")),
        rounds_(&metrics_.counter("sim.rounds")),
        hooks_run_(&metrics_.counter("sim.hooks.run")),
        msg_latency_(&metrics_.histogram("sim.msg.latency_rounds")) {
    ledger_.set_obs(&tracer_, &metrics_);
  }

  ledger::Ledger& ledger() { return ledger_; }
  const ledger::Ledger& ledger() const { return ledger_; }
  Round now() const { return ledger_.now(); }
  Round delta() const { return ledger_.delta(); }
  const crypto::SignatureScheme& scheme() const { return ledger_.scheme(); }
  MessageLog& log() { return log_; }
  const DeliveryQueue& delivery_queue() const { return queue_; }

  /// The run's event tracer (null/disabled by default). Instrumentation
  /// that builds attribute strings must guard on tracer().enabled().
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// The run's always-on metrics registry.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Installs the chaos policy for messages (non-owning; nullptr = none).
  /// The injector's post_delay is NOT wired here — the caller decides
  /// whether to also install it as the ledger's delay policy.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Upper bound on the extra delay a message may suffer on top of the
  /// 1-round transit (the bounded-delay budget of the network model).
  void set_message_delay_budget(Round budget) { message_delay_budget_ = budget; }
  Round message_delay_budget() const { return message_delay_budget_; }

  /// Handle of a round hook: its position in registration order.
  using HookId = std::size_t;

  /// Registers a hook executed at the end of every round in which it is
  /// awake (punish watchers). Hooks start awake.
  HookId add_round_hook(std::function<void()> hook) {
    hooks_.push_back(std::move(hook));
    awake_.push_back(1);
    return hooks_.size() - 1;
  }

  /// Puts a hook to sleep or wakes it. Only a hook whose call would change
  /// nothing may sleep: a sleeping hook misses rounds until it is woken by
  /// this call or by a spend of an outpoint it watches.
  void set_hook_awake(HookId id, bool awake) { awake_.at(id) = awake ? 1 : 0; }

  /// Wakes `id` in the first round whose hooks run after a confirmed
  /// transaction spends `op` (before any hook of that round).
  void watch_spend(HookId id, const tx::OutPoint& op) { watchers_.emplace(op, id); }

  /// Advances one round: ledger processing first, then the awake hooks.
  void advance_round() {
    ledger_.advance_round();
    rounds_->inc();
    if (tracer_.enabled())
      tracer_.emit(now(), obs::EventKind::kRoundAdvance, "sim", {}, {});
    wake_spent_watchers();
    // Indexed, not iterated: a hook may wake or put to sleep any hook,
    // itself included, and a later hook woken this way still runs now.
    std::uint64_t ran = 0;
    for (HookId i = 0, n = hooks_.size(); i < n; ++i) {
      if (!awake_[i]) continue;
      hooks_[i]();
      ++ran;
    }
    hooks_run_->inc(ran);
  }
  void advance_rounds(Round n) {
    for (Round i = 0; i < n; ++i) advance_round();
  }

  /// One delivery attempt of a protocol message. Consults the fault
  /// injector, enqueues the message, and advances the clock to its
  /// delivery round (1 + any injected delay; a drop still charges the
  /// transit round the sender spends discovering the loss).
  struct Delivery {
    int copies = 1;   // 0 = lost, 2 = duplicated
    Round delay = 0;  // extra rounds beyond the 1-round transit
  };
  Delivery transmit(PartyId from, std::string type) {
    MessageAction act;
    if (injector_) act = injector_->on_message(now(), from, type);
    Round extra = act.fate == MessageFate::kDelay
                      ? std::min(act.delay, message_delay_budget_)
                      : 0;
    if (extra < 0) extra = 0;
    const int copies = act.fate == MessageFate::kDrop    ? 0
                       : act.fate == MessageFate::kDuplicate ? 2
                                                             : 1;
    const Round sent = now();
    const Round deliver = sent + 1 + extra;
    const MessageFate fate = extra > 0 ? MessageFate::kDelay : act.fate;
    msg_sent_->inc();
    switch (fate) {
      case MessageFate::kDeliver: break;
      case MessageFate::kDrop: msg_dropped_->inc(); break;
      case MessageFate::kDelay: msg_delayed_->inc(); break;
      case MessageFate::kDuplicate: msg_duplicated_->inc(); break;
    }
    if (tracer_.enabled()) {
      tracer_.emit(sent, obs::EventKind::kMsgSend, "sim", {}, party_name(from),
                   {obs::Attr::s("type", type), obs::Attr::s("fate", message_fate_name(fate)),
                    obs::Attr::i("copies", copies), obs::Attr::i("extra_delay", extra)});
      if (fate != MessageFate::kDeliver)
        tracer_.emit(sent, obs::EventKind::kFaultInject, "sim", {}, party_name(from),
                     {obs::Attr::s("fate", message_fate_name(fate)),
                      obs::Attr::s("type", type)});
    }
    if (copies > 0) queue_.push({deliver, from, type, copies});
    log_.record({sent, deliver, from, type, fate, copies});
    int arrived = 0;
    while (now() < deliver) {
      advance_round();
      arrived += queue_.drain_due(now());
    }
    if (copies == 0) {
      if (tracer_.enabled())
        tracer_.emit(now(), obs::EventKind::kMsgDrop, "sim", {}, party_name(from),
                     {obs::Attr::s("type", type)});
      return {0, extra};
    }
    msg_delivered_->inc(static_cast<std::uint64_t>(arrived));
    msg_latency_->observe(1 + extra);
    if (tracer_.enabled())
      tracer_.emit(now(), obs::EventKind::kMsgDeliver, "sim", {}, party_name(from),
                   {obs::Attr::s("type", std::move(type)), obs::Attr::i("copies", arrived)});
    return {arrived, extra};
  }

  /// Charges one message round to the clock (off-chain traffic). Legacy
  /// entry point: delivery result intentionally ignored by callers that
  /// predate fault injection.
  void message_round(PartyId from, std::string type) { transmit(from, std::move(type)); }

 private:
  /// Scans the transactions confirmed since the last scan and wakes every
  /// hook watching an outpoint they spend. A spent outpoint stays spent, so
  /// its watches are dropped once they fire.
  void wake_spent_watchers() {
    const auto& accepted = ledger_.accepted();
    for (; scanned_ < accepted.size(); ++scanned_) {
      for (const tx::TxIn& in : accepted[scanned_].tx.inputs) {
        const auto [first, last] = watchers_.equal_range(in.prevout);
        for (auto it = first; it != last; ++it) awake_[it->second] = 1;
        watchers_.erase(first, last);
      }
    }
  }

  ledger::Ledger ledger_;
  MessageLog log_;
  DeliveryQueue queue_;
  FaultInjector* injector_ = nullptr;
  Round message_delay_budget_ = 3;
  std::vector<std::function<void()>> hooks_;
  std::vector<std::uint8_t> awake_;  // per hook, kept apart so the scan stays dense
  std::unordered_multimap<tx::OutPoint, HookId, tx::OutPointHasher> watchers_;
  std::size_t scanned_ = 0;  // accepted() entries already checked for watched spends
  obs::Tracer tracer_;
  obs::Registry metrics_;
  obs::Counter* msg_sent_;
  obs::Counter* msg_delivered_;
  obs::Counter* msg_dropped_;
  obs::Counter* msg_delayed_;
  obs::Counter* msg_duplicated_;
  obs::Counter* rounds_;
  obs::Counter* hooks_run_;
  obs::Histogram* msg_latency_;
};

}  // namespace daric::sim
