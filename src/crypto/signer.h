// Signature backend abstraction (real Ed25519 vs. cheap simulation signer).
//
// Every gossip message in Algorand is signed by its originator and verified
// before relay (§4, §8.4). For very large simulations the signing/verifying
// cost can be replaced by a keyed hash, mirroring the paper's own 500k-user
// methodology; the default everywhere is the real Ed25519.
#ifndef ALGORAND_SRC_CRYPTO_SIGNER_H_
#define ALGORAND_SRC_CRYPTO_SIGNER_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "src/common/bytes.h"
#include "src/crypto/ed25519.h"

namespace algorand {

class SignerBackend {
 public:
  virtual ~SignerBackend() = default;
  virtual Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const = 0;
  virtual bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
                      const Signature& sig) const = 0;
  virtual const char* name() const = 0;
};

// Prepared keys (Ed25519PreparedKey) of repeat signers. A key is prepared on
// its second sighting: the first only records it, so a stream of one-time
// keys (which any sender can make up, one per message) costs a set insert
// per verification and takes no room in the cache. At most kCapacity tables
// are held (~30 KB each, so ~31 MB at the bound) and none is ever evicted:
// once the cache is full, every key without a table verifies one-shot, at
// the cost it has without a cache. Replacing tables instead would, with more
// repeat signers than kCapacity taking turns, drop each table before it has
// paid for its build (about two one-shot verifications); see
// BM_Ed25519_SignerVerify_RecurringKeys in bench/bench_costs_micro.cpp.
// Keys seen once are remembered up to kSeenCapacity, then forgotten all at
// once (a key whose second sighting comes after that many other first
// sightings starts over). Verdicts never depend on what the cache holds: a
// prepared key has the accept set of the one-shot path.
//
// Thread-safe. Lookup and insertion run under one mutex; building a table
// and verifying against it do not (a prepared key is immutable).
class PreparedKeyCache {
 public:
  static constexpr size_t kCapacity = 1024;
  static constexpr size_t kSeenCapacity = 4 * kCapacity;

  // The prepared key for `pk`, building it on the key's second sighting;
  // nullptr on a first sighting and for a key that does not decode (which
  // never gets a table).
  std::shared_ptr<const Ed25519PreparedKey> Get(const PublicKey& pk);

  // Tables currently held.
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<PublicKey, std::shared_ptr<const Ed25519PreparedKey>, FixedBytesHasher>
      prepared_;
  std::unordered_set<PublicKey, FixedBytesHasher> seen_once_;
};

// Real Ed25519. Verification goes through the signer's own PreparedKeyCache,
// so each harness or cluster holding a signer keeps its own tables.
class Ed25519Signer : public SignerBackend {
 public:
  Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const override {
    return Ed25519Sign(key, message);
  }
  bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
              const Signature& sig) const override;
  const char* name() const override { return "ed25519"; }

  const PreparedKeyCache& prepared_keys() const { return prepared_keys_; }

 private:
  mutable PreparedKeyCache prepared_keys_;
};

// sig = SHA512("simsig" || pk || message) truncated to 64 bytes: forgeable by
// anyone who can hash, so only valid for honest-performance simulations.
class SimSigner : public SignerBackend {
 public:
  Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const override;
  bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
              const Signature& sig) const override;
  const char* name() const override { return "simsig"; }
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_SIGNER_H_
