// Persistent-storage accounting.
//
// Table 1's storage column is measured, not asserted: every engine reports
// the bytes a party (or its watchtower) must retain to keep its channel
// safe. Retained transactions are charged at full wire size, signatures at
// wire size, secrets/keys at 32/33 bytes.
#pragma once

#include "src/script/standard.h"
#include "src/tx/serializer.h"
#include "src/tx/weight.h"

namespace daric::channel {

class StorageMeter {
 public:
  void add_tx(const tx::Transaction& t) { bytes_ += tx::serialize_full(t).size(); }
  void add_signature() { bytes_ += script::kWireSigSize; }
  void add_raw(std::size_t n) { bytes_ += n; }
  void reset() { bytes_ = 0; }

  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

}  // namespace daric::channel
