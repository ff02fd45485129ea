// Transaction validity: the five checks of the ledger functionality
// L(Δ, Σ) in Appendix C.
#pragma once

#include <unordered_set>

#include "src/crypto/sig_scheme.h"
#include "src/ledger/utxo_set.h"
#include "src/tx/sighash.h"
#include "src/tx/transaction.h"

namespace daric::ledger {

enum class TxError {
  kOk,
  kDuplicateTxid,        // rule 1: id uniqueness
  kMissingInput,         // rule 2: input exists in UTXO
  kBadWitness,           // rule 2: witness satisfies θ.φ
  kBadOutputValue,       // rule 3: every output value > 0
  kValueNotConserved,    // rule 4: Σ out ≤ Σ in
  kLocktimeInFuture,     // rule 5: nLT ≤ current round
  kDuplicateInput,       // same outpoint spent twice within one tx
};

const char* tx_error_name(TxError e);

struct ValidationContext {
  const UtxoSet& utxos;
  const std::unordered_set<Hash256, Hash256Hasher>& seen_txids;
  Round now = 0;
  const crypto::SignatureScheme& scheme;
  /// Signature checks the caller records or has proved already (default:
  /// verify every one).
  tx::SigClaims sigs{};
};

/// `txid` is t.txid(), which the caller computes once per transaction.
TxError validate_transaction(const tx::Transaction& t, const Hash256& txid,
                             const ValidationContext& ctx);

/// Fee implied by rule 4 (Σ in − Σ out); requires all inputs present.
Amount transaction_fee(const tx::Transaction& t, const UtxoSet& utxos);

}  // namespace daric::ledger
