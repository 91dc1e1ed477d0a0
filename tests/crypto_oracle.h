// Reference verifiers for Ed25519 and ECVRF, used only by tests and the
// accept-set generator. Each evaluates its verification equation with
// independent textbook double-and-add multiplications (GeScalarMult) instead
// of the interleaved and fixed-base tables of src/crypto, so any two paths
// that must share one accept set (one-shot, prepared, reference) are checked
// against code that shares none of their scalar-multiplication machinery.
#ifndef ALGORAND_TESTS_CRYPTO_ORACLE_H_
#define ALGORAND_TESTS_CRYPTO_ORACLE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bytes.h"

namespace algorand {

// RFC 8032 verification as [S]B == R + [k]A, both sides computed separately
// and compared as group elements. Rejects non-canonical S and encodings of A
// or R that do not decode.
bool Ed25519VerifyLegacy(const PublicKey& pk, std::span<const uint8_t> message,
                         const Signature& sig);

// ECVRF-ED25519-SHA512-TAI verification with U = [s]B - [c]Y and
// V = [s]H - [c]Gamma from four independent multiplications.
std::optional<VrfOutput> EcVrfVerifyLegacy(const PublicKey& pk, std::span<const uint8_t> alpha,
                                           const VrfProof& proof);

}  // namespace algorand

#endif  // ALGORAND_TESTS_CRYPTO_ORACLE_H_
