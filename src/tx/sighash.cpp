#include "src/tx/sighash.h"

#include <stdexcept>

#include "src/crypto/ripemd160.h"
#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace daric::tx {

namespace {

constexpr std::string_view kSighashTag = "daric/sighash";

bool is_single(script::SighashFlag flag) {
  return flag == script::SighashFlag::kSingle ||
         flag == script::SighashFlag::kSingleAnyPrevOut;
}

void write_output(Writer& w, const Output& out) {
  w.u64le(static_cast<std::uint64_t>(out.cash));
  const Bytes spk = out.cond.script_pubkey();
  w.varint(spk.size());
  w.bytes(spk);
}

// The input-independent part of the digest preimage: flag byte, inputs
// (unless ANYPREVOUT) and nLockTime. Everything after this depends on the
// input index only for the SINGLE flags.
void write_prefix(Writer& w, const Transaction& tx, script::SighashFlag flag) {
  w.u8(static_cast<std::uint8_t>(flag));
  if (!script::is_anyprevout(flag)) {
    // Inputs are covered (the f(TX) form).
    w.varint(tx.inputs.size());
    for (const TxIn& in : tx.inputs) {
      w.bytes(in.prevout.txid.view());
      w.u32le(in.prevout.vout);
    }
  }
  w.u32le(tx.nlocktime);
}

void write_single_output(Writer& w, const Transaction& tx, std::size_t input_index) {
  if (input_index >= tx.outputs.size())
    throw std::out_of_range("SIGHASH_SINGLE with no matching output");
  write_output(w, tx.outputs[input_index]);
}

}  // namespace

Hash256 sighash_digest(const Transaction& tx, std::size_t input_index,
                       script::SighashFlag flag) {
  Writer w;
  write_prefix(w, tx, flag);
  if (is_single(flag)) {
    write_single_output(w, tx, input_index);
  } else {
    w.varint(tx.outputs.size());
    for (const Output& out : tx.outputs) write_output(w, out);
  }
  return crypto::Sha256::tagged(kSighashTag, w.data());
}

Hash256 SighashCache::digest(std::size_t input_index, script::SighashFlag flag) const {
  auto it = entries_.find(flag);
  if (it == entries_.end()) {
    Entry e;
    Writer w;
    w.reserve(128);
    write_prefix(w, tx_, flag);
    if (is_single(flag)) {
      e.midstate = crypto::Sha256::tagged_init(kSighashTag);
      e.midstate.update(w.data());
    } else {
      w.varint(tx_.outputs.size());
      for (const Output& out : tx_.outputs) write_output(w, out);
      e.whole = true;
      e.full = crypto::Sha256::tagged(kSighashTag, w.data());
    }
    it = entries_.emplace(flag, std::move(e)).first;
  }
  const Entry& e = it->second;
  Hash256 result;
  if (e.whole) {
    result = e.full;
  } else {
    Writer w;
    write_single_output(w, tx_, input_index);
    crypto::Sha256 h = e.midstate;  // copy: the cached midstate stays pristine
    h.update(w.data());
    result = h.finalize();
  }
#ifndef NDEBUG
  // Staleness tripwire: a cached entry must always agree with a from-scratch
  // serialization of the transaction as it is NOW. Trips when a caller
  // mutated the transaction without invalidate().
  if (!(result == sighash_digest(tx_, input_index, flag)))
    throw std::logic_error("SighashCache: stale entry (missing invalidate()?)");
#endif
  return result;
}

namespace {

std::string proven_key(BytesView pubkey, const Hash256& digest, BytesView sig) {
  std::string k;
  k.reserve(pubkey.size() + 32 + sig.size());
  for (BytesView part : {pubkey, digest.view(), sig}) k.append(part.begin(), part.end());
  return k;
}

}  // namespace

void ProvenSigs::insert(const crypto::SigBatchItem& claim) {
  keys_.insert(proven_key(claim.pk.compressed(), claim.msg, claim.sig));
}

bool ProvenSigs::contains(BytesView pubkey, const Hash256& digest, BytesView sig) const {
  return !keys_.empty() && keys_.contains(proven_key(pubkey, digest, sig));
}

bool TxSigChecker::check_sig(BytesView wire_sig, BytesView pubkey) const {
  if (pubkey.size() != script::kPubKeySize) return false;
  const auto decoded = script::decode_wire_sig(wire_sig, scheme_.signature_size());
  if (!decoded) return false;
  // SIGHASH_SINGLE with no matching output has no digest. An adversarial
  // witness must fail validation here, not throw out of it (the historic
  // Bitcoin "SIGHASH_SINGLE bug" surface the static analyzer lints as DA011).
  if (is_single(decoded->flag) && input_index_ >= tx_.outputs.size()) return false;
  const Hash256 digest = cache_ ? cache_->digest(input_index_, decoded->flag)
                                : sighash_digest(tx_, input_index_, decoded->flag);
  if (claims_.proven && claims_.proven->contains(pubkey, digest, decoded->raw)) return true;
  const auto pk = crypto::Point::from_compressed(pubkey);
  if (!pk) return false;
  if (claims_.record) {
    claims_.record->push_back({*pk, digest, decoded->raw});
    return true;
  }
  return scheme_.verify(*pk, digest, decoded->raw);
}

bool TxSigChecker::check_locktime(std::uint32_t lock) const { return tx_.nlocktime >= lock; }

bool TxSigChecker::check_sequence(std::uint32_t age) const {
  return utxo_age_ >= static_cast<Round>(age);
}

script::ScriptError verify_input(const Transaction& tx, std::size_t input_index,
                                 const Output& spent, const crypto::SignatureScheme& scheme,
                                 Round utxo_age, const SighashCache* cache,
                                 SigClaims claims) {
  using script::ScriptError;
  if (input_index >= tx.inputs.size() || input_index >= tx.witnesses.size())
    return ScriptError::kStackUnderflow;
  const Witness& wit = tx.witnesses[input_index];
  const TxSigChecker checker(tx, input_index, scheme, utxo_age, cache, claims);

  switch (spent.cond.type) {
    case Condition::Type::kP2WPKH: {
      if (wit.stack.size() != 2 || wit.witness_script) return ScriptError::kBadSignature;
      const Bytes& sig = wit.stack[0];
      const Bytes& pubkey = wit.stack[1];
      const crypto::Hash160 h = crypto::hash160(pubkey);
      if (Bytes(h.view().begin(), h.view().end()) != spent.cond.program)
        return ScriptError::kEqualVerifyFailed;
      return checker.check_sig(sig, pubkey) ? ScriptError::kOk : ScriptError::kBadSignature;
    }
    case Condition::Type::kP2WSH: {
      if (!wit.witness_script) return ScriptError::kBadSignature;
      const Hash256 h = wit.witness_script->wsh_program();
      if (Bytes(h.view().begin(), h.view().end()) != spent.cond.program)
        return ScriptError::kEqualVerifyFailed;
      std::vector<Bytes> stack = wit.stack;
      return script::eval_script(*wit.witness_script, stack, checker);
    }
  }
  return ScriptError::kBadOpcode;
}

Bytes sign_input(const Transaction& tx, std::size_t input_index, const crypto::Scalar& sk,
                 const crypto::SignatureScheme& scheme, script::SighashFlag flag) {
  const Hash256 digest = sighash_digest(tx, input_index, flag);
  return script::encode_wire_sig(scheme.sign(sk, digest), flag);
}

Bytes sign_input(const Transaction& tx, std::size_t input_index, const crypto::KeyPair& kp,
                 const crypto::SignatureScheme& scheme, script::SighashFlag flag,
                 const SighashCache* cache) {
  const Hash256 digest = cache ? cache->digest(input_index, flag)
                               : sighash_digest(tx, input_index, flag);
  return script::encode_wire_sig(scheme.sign_with(kp, digest), flag);
}

}  // namespace daric::tx
