#include "src/crypto/signer.h"

#include <cstring>

#include "src/crypto/sha512.h"

namespace algorand {

std::shared_ptr<const Ed25519PreparedKey> PreparedKeyCache::Get(const PublicKey& pk) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = prepared_.find(pk); it != prepared_.end()) {
      return it->second;
    }
    if (prepared_.size() >= kCapacity) {
      return nullptr;
    }
    if (seen_once_.erase(pk) == 0) {
      if (seen_once_.size() >= kSeenCapacity) {
        seen_once_.clear();
      }
      seen_once_.insert(pk);
      return nullptr;
    }
  }
  auto prepared = Ed25519PreparedKey::Prepare(pk);
  if (prepared == nullptr) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (prepared_.size() >= kCapacity) {
    return prepared;  // Filled while this table was built: used once, not kept.
  }
  return prepared_.emplace(pk, prepared).first->second;
}

size_t PreparedKeyCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_.size();
}

bool Ed25519Signer::Verify(const PublicKey& pk, std::span<const uint8_t> message,
                           const Signature& sig) const {
  std::shared_ptr<const Ed25519PreparedKey> prepared = prepared_keys_.Get(pk);
  return prepared != nullptr ? Ed25519Verify(*prepared, message, sig)
                             : Ed25519Verify(pk, message, sig);
}

Signature SimSigner::Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const {
  Hash512 h = Sha512().Update("simsig").Update(key.public_key.span()).Update(message).Finish();
  Signature sig;
  std::memcpy(sig.data(), h.data(), 64);
  return sig;
}

bool SimSigner::Verify(const PublicKey& pk, std::span<const uint8_t> message,
                       const Signature& sig) const {
  Hash512 h = Sha512().Update("simsig").Update(pk.span()).Update(message).Finish();
  return std::memcmp(sig.data(), h.data(), 64) == 0;
}

}  // namespace algorand
