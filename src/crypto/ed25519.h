// Ed25519 signatures (RFC 8032), implemented from scratch on the internal
// Curve25519 arithmetic. Used to sign every gossip message in Algorand.
#ifndef ALGORAND_SRC_CRYPTO_ED25519_H_
#define ALGORAND_SRC_CRYPTO_ED25519_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/common/bytes.h"

namespace algorand {
namespace internal {
struct GeFixedBaseTable;
}  // namespace internal

// A key pair expanded from a 32-byte seed. The expanded fields are cached so
// repeated signing does not re-derive them.
struct Ed25519KeyPair {
  FixedBytes<32> seed;
  PublicKey public_key;
  // SHA-512(seed): low half clamped is the scalar, high half is the prefix.
  FixedBytes<32> scalar;
  FixedBytes<32> prefix;
};

// Derives a key pair from a seed.
Ed25519KeyPair Ed25519KeyFromSeed(const FixedBytes<32>& seed);

// Signs `message` with the key pair.
Signature Ed25519Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message);

// Verifies; rejects malformed points and non-canonical scalars. Evaluates
// [k](-A) + [S]B with one interleaved w-NAF double-scalar multiplication and
// compares against R as group elements — the exact accept set of the
// textbook [S]B == R + [k]A check, at under half the cost.
bool Ed25519Verify(const PublicKey& pk, std::span<const uint8_t> message, const Signature& sig);

// A public key prepared for repeated verification: the key's 32 bytes and a
// fixed-base table of -A (internal/ge25519.h, ~30 KB, about two one-shot
// verifications to build). Immutable once built, so one prepared key may be
// shared by any number of verifying threads. Ed25519Signer (signer.h)
// prepares a key on its second sighting and holds at most
// PreparedKeyCache::kCapacity of them, never evicting one; keys beyond the
// bound verify one-shot.
class Ed25519PreparedKey {
 public:
  // Decodes `pk` and builds its table; nullptr when `pk` does not decode to
  // a curve point, a key under which every signature is rejected anyway.
  static std::shared_ptr<const Ed25519PreparedKey> Prepare(const PublicKey& pk);
  ~Ed25519PreparedKey();

  const PublicKey& public_key() const { return pk_; }
  const internal::GeFixedBaseTable& neg_a_table() const { return *neg_a_table_; }

 private:
  Ed25519PreparedKey(const PublicKey& pk, std::unique_ptr<const internal::GeFixedBaseTable> table);

  PublicKey pk_;
  std::unique_ptr<const internal::GeFixedBaseTable> neg_a_table_;
};

// Verifies against a prepared key, with the same accept set as the one-shot
// Ed25519Verify(key.public_key(), message, sig): the same canonical-S check,
// R decoding and k = SHA-512(R || A || M) over the key's original bytes, and
// the same [k](-A) + [S]B == R comparison through GeEq. Only the evaluation
// differs: signed radix-16 digits of k and S against the tables of -A and B,
// about 120 mixed additions and no doubling chain (about half the cost).
bool Ed25519Verify(const Ed25519PreparedKey& key, std::span<const uint8_t> message,
                   const Signature& sig);

}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_ED25519_H_
