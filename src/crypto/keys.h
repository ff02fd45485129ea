// Key pairs and deterministic key derivation for the simulation.
//
// Keys are derived from string seeds so that test and benchmark runs are
// reproducible without an OS entropy source (there is no real adversary in
// a simulation; unpredictability is not required, unforgeability is — and
// that comes from the scheme, not the seed).
#pragma once

#include <string_view>

#include "src/crypto/point.h"
#include "src/crypto/scalar.h"

namespace daric::crypto {

struct KeyPair {
  Scalar sk;
  Point pk;
};

/// Derives a keypair from an arbitrary label, e.g. "alice/rv/0".
KeyPair derive_keypair(std::string_view label);

}  // namespace daric::crypto
