#include "src/daric/fees.h"

#include <stdexcept>

#include "src/tx/sighash.h"

namespace daric::daricch {

void attach_fee(tx::Transaction& t, const FeeSource& fee_source, Amount fee,
                const crypto::SignatureScheme& scheme) {
  if (fee < 0 || fee > fee_source.value) throw std::invalid_argument("bad fee");
  t.inputs.push_back({fee_source.outpoint});
  const Amount change = fee_source.value - fee;
  if (change > 0) {
    t.outputs.push_back({change, tx::Condition::p2wpkh(fee_source.key.pk.compressed())});
  }
  t.witnesses.resize(t.inputs.size());
  const std::size_t idx = t.inputs.size() - 1;
  // SIGHASH_ALL on the fee input: the fee payer signs last and pins the
  // final shape; input 0's SINGLE|ANYPREVOUT signatures stay valid.
  const Bytes sig = tx::sign_input(t, idx, fee_source.key.sk, scheme,
                                   script::SighashFlag::kAll);
  t.witnesses[idx].stack = {sig, fee_source.key.pk.compressed()};
  t.witnesses[idx].witness_script.reset();
}

}  // namespace daric::daricch
