// Sec. 8 "Fee handling": revocation transactions have a single input and a
// single output, and because ANYPREVOUT may be combined with SINGLE, a
// party can graft a fee input/output pair onto the *already-signed*
// floating revocation before publishing — the channel signatures keep
// validating because they cover only (nLT, output[0]).
//
// The same machinery applies to any single-input floating transaction.
#pragma once

#include "src/crypto/sig_scheme.h"
#include "src/tx/transaction.h"

namespace daric::daricch {

/// A single-key wallet UTXO used to pay fees.
struct FeeSource {
  tx::OutPoint outpoint;
  Amount value = 0;
  crypto::KeyPair key;
};

/// Appends `fee_source` as a new input and a change output paying
/// `fee_source.value - fee` back to the wallet (omitted when zero), then
/// signs the new input with SIGHASH_ALL. Input 0's existing witness is
/// untouched. Throws if fee > fee_source.value.
void attach_fee(tx::Transaction& t, const FeeSource& fee_source, Amount fee,
                const crypto::SignatureScheme& scheme);

}  // namespace daric::daricch
