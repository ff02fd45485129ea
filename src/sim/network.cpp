#include "src/sim/network.h"

namespace daric::sim {

const char* message_fate_name(MessageFate f) {
  switch (f) {
    case MessageFate::kDeliver: return "deliver";
    case MessageFate::kDrop: return "drop";
    case MessageFate::kDelay: return "delay";
    case MessageFate::kDuplicate: return "dup";
  }
  return "unknown";
}

}  // namespace daric::sim
