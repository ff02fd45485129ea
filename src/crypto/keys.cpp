#include "src/crypto/keys.h"

#include "src/crypto/ct.h"
#include "src/crypto/sha256.h"

namespace daric::crypto {

KeyPair derive_keypair(std::string_view label) {
  static const Sha256 kTagged = Sha256::tagged_init("daric/keygen");  // copied per call
  Sha256 hasher = kTagged;
  hasher.update({reinterpret_cast<const Byte*>(label.data()), label.size()});
  const Hash256 h = hasher.finalize();
  Scalar sk = Scalar::from_be_bytes_reduce(h.view());
  if (ct_is_zero(sk.to_be_bytes())) sk = Scalar(1);  // astronomically unlikely; keep keys valid
  return {sk, Point::mul_gen(sk)};
}

}  // namespace daric::crypto
