#include "src/crypto/ed25519.h"

#include <cstring>

#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/sha512.h"

namespace algorand {

using internal::GeBuildFixedBaseTable;
using internal::GeDoubleScalarMultFixed;
using internal::GeDoubleScalarMultVartime;
using internal::GeEq;
using internal::GeFixedBaseTable;
using internal::GeFromBytes;
using internal::GeNeg;
using internal::GePoint;
using internal::GeScalarMultBase;
using internal::GeToBytes;
using internal::ScIsCanonical;
using internal::ScMulAdd;
using internal::ScReduce64;

Ed25519KeyPair Ed25519KeyFromSeed(const FixedBytes<32>& seed) {
  Ed25519KeyPair kp;
  kp.seed = seed;
  Hash512 h = Sha512::Hash(seed.span());
  std::memcpy(kp.scalar.data(), h.data(), 32);
  std::memcpy(kp.prefix.data(), h.data() + 32, 32);
  // Clamp per RFC 8032.
  kp.scalar[0] &= 248;
  kp.scalar[31] &= 127;
  kp.scalar[31] |= 64;

  GePoint a = GeScalarMultBase(kp.scalar.data());
  GeToBytes(kp.public_key.data(), a);
  return kp;
}

Signature Ed25519Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) {
  // r = SHA512(prefix || M) mod L.
  Hash512 rh = Sha512().Update(key.prefix.span()).Update(message).Finish();
  uint8_t r[32];
  ScReduce64(r, rh.data());

  GePoint rp = GeScalarMultBase(r);
  Signature sig;
  GeToBytes(sig.data(), rp);  // R in the first 32 bytes.

  // k = SHA512(R || A || M) mod L.
  Hash512 kh = Sha512()
                   .Update(std::span<const uint8_t>(sig.data(), 32))
                   .Update(key.public_key.span())
                   .Update(message)
                   .Finish();
  uint8_t k[32];
  ScReduce64(k, kh.data());

  // S = k*a + r mod L.
  ScMulAdd(sig.data() + 32, k, key.scalar.data(), r);
  return sig;
}

namespace {

// The preamble both verify paths share after the key is decoded: S must be
// canonical and R must decode, then k = SHA-512(R || A || M) mod L over the
// key's original bytes. Returns false on malformed input.
bool VerifyPreamble(const PublicKey& pk, std::span<const uint8_t> message, const Signature& sig,
                    GePoint* r, uint8_t k[32]) {
  const uint8_t* r_bytes = sig.data();
  const uint8_t* s_bytes = sig.data() + 32;
  if (!ScIsCanonical(s_bytes)) {
    return false;
  }
  auto r_opt = GeFromBytes(r_bytes);
  if (!r_opt) {
    return false;
  }
  *r = *r_opt;
  Hash512 kh = Sha512()
                   .Update(std::span<const uint8_t>(r_bytes, 32))
                   .Update(pk.span())
                   .Update(message)
                   .Finish();
  ScReduce64(k, kh.data());
  return true;
}

}  // namespace

bool Ed25519Verify(const PublicKey& pk, std::span<const uint8_t> message, const Signature& sig) {
  auto a = GeFromBytes(pk.data());
  GePoint r;
  uint8_t k[32];
  if (!a || !VerifyPreamble(pk, message, sig, &r, k)) {
    return false;
  }
  // [S]B == R + [k]A  <=>  [k](-A) + [S]B == R, one Straus pass.
  GePoint check = GeDoubleScalarMultVartime(k, GeNeg(*a), sig.data() + 32);
  return GeEq(check, r);
}

Ed25519PreparedKey::Ed25519PreparedKey(const PublicKey& pk,
                                       std::unique_ptr<const GeFixedBaseTable> table)
    : pk_(pk), neg_a_table_(std::move(table)) {}

Ed25519PreparedKey::~Ed25519PreparedKey() = default;

std::shared_ptr<const Ed25519PreparedKey> Ed25519PreparedKey::Prepare(const PublicKey& pk) {
  auto a = GeFromBytes(pk.data());
  if (!a) {
    return nullptr;
  }
  auto table = std::make_unique<GeFixedBaseTable>();
  GeBuildFixedBaseTable(GeNeg(*a), table.get());
  return std::shared_ptr<const Ed25519PreparedKey>(new Ed25519PreparedKey(pk, std::move(table)));
}

bool Ed25519Verify(const Ed25519PreparedKey& key, std::span<const uint8_t> message,
                   const Signature& sig) {
  GePoint r;
  uint8_t k[32];
  if (!VerifyPreamble(key.public_key(), message, sig, &r, k)) {
    return false;
  }
  GePoint check = GeDoubleScalarMultFixed(k, key.neg_a_table(), sig.data() + 32);
  return GeEq(check, r);
}

}  // namespace algorand
