#include "tests/crypto_oracle.h"

#include <cstring>

#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/sha512.h"

namespace algorand {
namespace {

using internal::GeAdd;
using internal::GeBasePoint;
using internal::GeEq;
using internal::GeFromBytes;
using internal::GeMulByCofactor;
using internal::GePoint;
using internal::GeScalarMult;
using internal::GeSub;
using internal::GeToBytes;
using internal::ScIsCanonical;
using internal::ScReduce64;

constexpr uint8_t kSuite = 0x03;  // ECVRF-ED25519-SHA512-TAI.
constexpr uint8_t kDomainHashToCurve = 0x01;
constexpr uint8_t kDomainChallenge = 0x02;
constexpr uint8_t kDomainProofToHash = 0x03;

std::span<const uint8_t> Byte(const uint8_t& b) { return std::span<const uint8_t>(&b, 1); }
std::span<const uint8_t> Bytes32(const uint8_t* p) { return std::span<const uint8_t>(p, 32); }

// Try-and-increment: the first counter whose digest decodes as a point,
// times the cofactor.
std::optional<GePoint> HashToCurve(const PublicKey& pk, std::span<const uint8_t> alpha) {
  for (int ctr = 0; ctr < 256; ++ctr) {
    const uint8_t ctr_byte = static_cast<uint8_t>(ctr);
    Hash512 h = Sha512()
                    .Update(Byte(kSuite))
                    .Update(Byte(kDomainHashToCurve))
                    .Update(pk.span())
                    .Update(alpha)
                    .Update(Byte(ctr_byte))
                    .Finish();
    if (auto p = GeFromBytes(h.data())) {
      return GeMulByCofactor(*p);
    }
  }
  return std::nullopt;
}

}  // namespace

bool Ed25519VerifyLegacy(const PublicKey& pk, std::span<const uint8_t> message,
                         const Signature& sig) {
  const uint8_t* s = sig.data() + 32;
  auto a = GeFromBytes(pk.data());
  auto r = GeFromBytes(sig.data());
  if (!ScIsCanonical(s) || !a || !r) {
    return false;
  }
  Hash512 kh = Sha512().Update(Bytes32(sig.data())).Update(pk.span()).Update(message).Finish();
  uint8_t k[32];
  ScReduce64(k, kh.data());
  return GeEq(GeScalarMult(s, GeBasePoint()), GeAdd(*r, GeScalarMult(k, *a)));
}

std::optional<VrfOutput> EcVrfVerifyLegacy(const PublicKey& pk, std::span<const uint8_t> alpha,
                                           const VrfProof& proof) {
  const uint8_t* gamma_bytes = proof.data();
  const uint8_t* c16 = proof.data() + 32;
  const uint8_t* s = proof.data() + 48;
  auto gamma = GeFromBytes(gamma_bytes);
  auto y = GeFromBytes(pk.data());
  if (!ScIsCanonical(s) || !gamma || !y) {
    return std::nullopt;
  }
  auto h = HashToCurve(pk, alpha);
  if (!h) {
    return std::nullopt;
  }
  uint8_t c[32] = {};
  std::memcpy(c, c16, 16);
  GePoint u = GeSub(GeScalarMult(s, GeBasePoint()), GeScalarMult(c, *y));
  GePoint v = GeSub(GeScalarMult(s, *h), GeScalarMult(c, *gamma));
  uint8_t h_bytes[32], u_bytes[32], v_bytes[32];
  GeToBytes(h_bytes, *h);
  GeToBytes(u_bytes, u);
  GeToBytes(v_bytes, v);
  Hash512 challenge = Sha512()
                          .Update(Byte(kSuite))
                          .Update(Byte(kDomainChallenge))
                          .Update(Bytes32(h_bytes))
                          .Update(Bytes32(gamma_bytes))
                          .Update(Bytes32(u_bytes))
                          .Update(Bytes32(v_bytes))
                          .Finish();
  if (std::memcmp(challenge.data(), c16, 16) != 0) {
    return std::nullopt;
  }
  uint8_t cofactor_gamma[32];
  GeToBytes(cofactor_gamma, GeMulByCofactor(*gamma));
  return Sha512()
      .Update(Byte(kSuite))
      .Update(Byte(kDomainProofToHash))
      .Update(Bytes32(cofactor_gamma))
      .Finish();
}

}  // namespace algorand
