// The transaction tuple TX = (txid, Input, nLT, Output, Witness) of Sec. 2.1.
#pragma once

#include <optional>
#include <vector>

#include "src/tx/output.h"

namespace daric::tx {

struct TxIn {
  OutPoint prevout;
  bool operator==(const TxIn&) const = default;
};

/// Witness data for one input. For P2WSH the witness script rides along;
/// for P2WPKH the stack is [wire_sig, pubkey].
struct Witness {
  std::vector<Bytes> stack;
  std::optional<script::Script> witness_script;
};

class Transaction {
 public:
  std::uint32_t version = 2;
  std::vector<TxIn> inputs;
  std::vector<Output> outputs;
  std::uint32_t nlocktime = 0;  // TX.nLT
  std::vector<Witness> witnesses;  // parallel to inputs once signed

  /// txid = H([TX]) where [TX] = (Input, nLT, Output) — witness excluded.
  Hash256 txid() const;

  bool has_witness() const;

  Amount total_output_value() const;
};

}  // namespace daric::tx
