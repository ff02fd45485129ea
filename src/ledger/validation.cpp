#include "src/ledger/validation.h"

namespace daric::ledger {

const char* tx_error_name(TxError e) {
  switch (e) {
    case TxError::kOk: return "ok";
    case TxError::kDuplicateTxid: return "duplicate-txid";
    case TxError::kMissingInput: return "missing-input";
    case TxError::kBadWitness: return "bad-witness";
    case TxError::kBadOutputValue: return "bad-output-value";
    case TxError::kValueNotConserved: return "value-not-conserved";
    case TxError::kLocktimeInFuture: return "locktime-in-future";
    case TxError::kDuplicateInput: return "duplicate-input";
  }
  return "unknown";
}

TxError validate_transaction(const tx::Transaction& t, const Hash256& txid,
                             const ValidationContext& ctx) {
  // Rule 1: id uniqueness.
  if (ctx.seen_txids.contains(txid)) return TxError::kDuplicateTxid;

  // Rule 5: absolute timelock validity.
  if (static_cast<Round>(t.nlocktime) > ctx.now) return TxError::kLocktimeInFuture;

  // Rule 3: output validity.
  if (t.outputs.empty()) return TxError::kBadOutputValue;
  for (const tx::Output& out : t.outputs) {
    if (out.cash <= 0) return TxError::kBadOutputValue;
  }

  // Rule 2: input and witness validity. Sighash prefixes are shared across
  // inputs through a per-transaction cache.
  if (t.inputs.empty()) return TxError::kMissingInput;
  Amount in_sum = 0;
  std::unordered_set<tx::OutPoint, tx::OutPointHasher> spent;
  const tx::SighashCache sighash_cache(t);
  for (std::size_t i = 0; i < t.inputs.size(); ++i) {
    const tx::OutPoint& op = t.inputs[i].prevout;
    if (!spent.insert(op).second) return TxError::kDuplicateInput;
    const auto utxo = ctx.utxos.find(op);
    if (!utxo) return TxError::kMissingInput;
    const Round age = ctx.now - utxo->recorded_round;
    if (tx::verify_input(t, i, utxo->output, ctx.scheme, age, &sighash_cache, ctx.sigs) !=
        script::ScriptError::kOk)
      return TxError::kBadWitness;
    in_sum += utxo->output.cash;
  }

  // Rule 4: value validity.
  if (t.total_output_value() > in_sum) return TxError::kValueNotConserved;

  return TxError::kOk;
}

Amount transaction_fee(const tx::Transaction& t, const UtxoSet& utxos) {
  Amount in_sum = 0;
  for (const tx::TxIn& in : t.inputs) {
    const auto utxo = utxos.find(in.prevout);
    if (!utxo) return -1;
    in_sum += utxo->output.cash;
  }
  return in_sum - t.total_output_value();
}

}  // namespace daric::ledger
