#include "src/tx/transaction.h"

#include "src/crypto/sha256.h"
#include "src/tx/serializer.h"

namespace daric::tx {

Hash256 Transaction::txid() const { return crypto::Sha256::double_hash(serialize_base(*this)); }

bool Transaction::has_witness() const {
  for (const Witness& w : witnesses) {
    if (!w.stack.empty() || w.witness_script) return true;
  }
  return false;
}

Amount Transaction::total_output_value() const {
  Amount sum = 0;
  for (const Output& out : outputs) sum += out.cash;
  return sum;
}

}  // namespace daric::tx
