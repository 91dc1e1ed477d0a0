// Scalar arithmetic modulo the Ed25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
#ifndef ALGORAND_SRC_CRYPTO_INTERNAL_SC25519_H_
#define ALGORAND_SRC_CRYPTO_INTERNAL_SC25519_H_

#include <cstdint>

#include "src/crypto/internal/u256.h"

namespace algorand {
namespace internal {

// The group order L.
const U256& ScOrder();

// Reduces a 512-bit little-endian value (e.g. a SHA-512 digest) mod L and
// writes the 32-byte little-endian result.
void ScReduce64(uint8_t out[32], const uint8_t in[64]);

// out = (a*b + c) mod L; inputs are 32-byte little-endian scalars (a and c
// may be >= L; they are reduced).
void ScMulAdd(uint8_t out[32], const uint8_t a[32], const uint8_t b[32], const uint8_t c[32]);

// Returns true iff the 32-byte little-endian value is < L (canonical).
bool ScIsCanonical(const uint8_t s[32]);

// Helpers between byte strings and U256.
U256 ScFromBytes(const uint8_t in[32]);
void ScToBytes(uint8_t out[32], const U256& s);

// Maximum digit count of a width-w NAF of a 256-bit scalar (the borrow of
// the top window can carry one position past bit 255).
constexpr int kWNafMaxDigits = 257;

// Width-`width` non-adjacent form: writes little-endian digits such that
// s = sum_i out[i] * 2^i, each digit zero or odd in
// [-(2^(width-1) - 1), 2^(width-1) - 1], with at least width-1 zeros after
// every nonzero digit. Returns the number of significant digits (index of
// the highest nonzero digit + 1; 0 for s = 0). width must be in [2, 8].
// Variable time — verification-side use only.
int ScWNaf(int8_t out[kWNafMaxDigits], const uint8_t s[32], int width);

// Signed radix-16 digits: s = sum_i out[i] * 16^i with out[i] in [-8, 7] for
// i < 63 and the top digit out[63] in [0, 16]. The top digit exceeds 8 only
// for s >= 2^255, which no reduced scalar, clamped Ed25519 secret scalar or
// scalar below L reaches. The digits of the fixed-base tables in ge25519.h.
void ScRadix16(int8_t out[64], const uint8_t s[32]);

}  // namespace internal
}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_INTERNAL_SC25519_H_
