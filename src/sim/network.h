// Authenticated message channel (the F_GDC of Appendix C). Delivery takes
// one round by default; a FaultInjector may additionally drop, delay
// (within a bounded budget) or duplicate any message. Without an injector
// the behavior is exactly the guaranteed 1-round delivery the protocol
// engines were written against.
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/party.h"
#include "src/util/bytes.h"

namespace daric::sim {

/// What the adversary does to one transmitted message.
enum class MessageFate : std::uint8_t { kDeliver, kDrop, kDelay, kDuplicate };

const char* message_fate_name(MessageFate f);

struct MessageAction {
  MessageFate fate = MessageFate::kDeliver;
  Round delay = 0;  // extra rounds on top of the 1-round transit (kDelay)
};

/// Per-run fault policy consulted by the environment. Implementations must
/// be deterministic functions of their construction state so that a run is
/// replayable from a serialized schedule.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Called once per transmit attempt, in global send order (re-sends of a
  /// dropped message consult the injector again under the next index).
  virtual MessageAction on_message(Round now, PartyId from, const std::string& type) = 0;
  /// Adversarial confirmation delay τ for an honest ledger post. Return
  /// value is clamped to [0, Δ] by the ledger.
  virtual Round post_delay(Round now, Round delta) = 0;
};

}  // namespace daric::sim
