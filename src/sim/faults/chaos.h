// ChaosInjector: replays a FaultSchedule against the environment.
//
// The injector is a pure function of the schedule it was built from: the
// k-th transmit attempt always receives the same fate, and the adversarial
// ledger delay for the k-th post is a stateless hash of (seed, k). Running
// the same schedule twice therefore produces identical executions.
#pragma once

#include <unordered_map>

#include "src/sim/faults/schedule.h"
#include "src/sim/network.h"

namespace daric::sim::faults {

class ChaosInjector : public FaultInjector {
 public:
  explicit ChaosInjector(const FaultSchedule& schedule);

  MessageAction on_message(Round now, PartyId from, const std::string& type) override;

  /// Adversarial confirmation delay τ ∈ [1, Δ] when the schedule enables
  /// the ledger adversary; otherwise the ledger's default (worst-case Δ).
  Round post_delay(Round now, Round delta) override;

  // --- replay statistics --------------------------------------------------
  std::uint32_t dropped() const { return dropped_; }
  std::uint32_t delayed() const { return delayed_; }
  std::uint32_t duplicated() const { return duplicated_; }

 private:
  FaultSchedule schedule_;
  std::unordered_map<std::uint32_t, MessageRule> rules_;
  std::uint32_t next_index_ = 0;
  std::uint32_t posts_ = 0;
  std::uint32_t dropped_ = 0;
  std::uint32_t delayed_ = 0;
  std::uint32_t duplicated_ = 0;
};

}  // namespace daric::sim::faults
