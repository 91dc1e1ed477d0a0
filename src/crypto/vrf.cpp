#include "src/crypto/vrf.h"

#include <cstring>

#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/sha512.h"

namespace algorand {
namespace {

using internal::GeFromBytes;
using internal::GeMulByCofactor;
using internal::GePoint;
using internal::GeScalarMult;
using internal::GeScalarMultBase;
using internal::GeToBytes;
using internal::ScIsCanonical;
using internal::ScMulAdd;
using internal::ScReduce64;

constexpr uint8_t kSuite = 0x03;  // ECVRF-ED25519-SHA512-TAI.
constexpr uint8_t kDomainHashToCurve = 0x01;
constexpr uint8_t kDomainChallenge = 0x02;
constexpr uint8_t kDomainProofToHash = 0x03;

// Try-and-increment hash to curve: hash (suite || 0x01 || pk || alpha || ctr)
// until the first 32 bytes decode as a point, then clear the cofactor.
std::optional<GePoint> HashToCurveTai(const PublicKey& pk, std::span<const uint8_t> alpha) {
  for (int ctr = 0; ctr < 256; ++ctr) {
    uint8_t ctr_byte = static_cast<uint8_t>(ctr);
    Hash512 h = Sha512()
                    .Update(std::span<const uint8_t>(&kSuite, 1))
                    .Update(std::span<const uint8_t>(&kDomainHashToCurve, 1))
                    .Update(pk.span())
                    .Update(alpha)
                    .Update(std::span<const uint8_t>(&ctr_byte, 1))
                    .Finish();
    uint8_t candidate[32];
    std::memcpy(candidate, h.data(), 32);
    auto p = GeFromBytes(candidate);
    if (p) {
      return GeMulByCofactor(*p);
    }
  }
  return std::nullopt;  // Probability ~2^-256; treated as malformed input.
}

// c = first 16 bytes of SHA512(suite || 0x02 || H || Gamma || U || V), widened
// to a 32-byte scalar (little-endian, high 16 bytes zero).
void ChallengeScalar(uint8_t c_out16[16], uint8_t c_scalar32[32], const uint8_t h_bytes[32],
                     const uint8_t gamma_bytes[32], const uint8_t u_bytes[32],
                     const uint8_t v_bytes[32]) {
  Hash512 ch = Sha512()
                   .Update(std::span<const uint8_t>(&kSuite, 1))
                   .Update(std::span<const uint8_t>(&kDomainChallenge, 1))
                   .Update(std::span<const uint8_t>(h_bytes, 32))
                   .Update(std::span<const uint8_t>(gamma_bytes, 32))
                   .Update(std::span<const uint8_t>(u_bytes, 32))
                   .Update(std::span<const uint8_t>(v_bytes, 32))
                   .Finish();
  std::memcpy(c_out16, ch.data(), 16);
  std::memset(c_scalar32, 0, 32);
  std::memcpy(c_scalar32, ch.data(), 16);
}

VrfOutput GammaToHash(const GePoint& gamma) {
  GePoint cg = GeMulByCofactor(gamma);
  uint8_t cg_bytes[32];
  GeToBytes(cg_bytes, cg);
  Hash512 beta = Sha512()
                     .Update(std::span<const uint8_t>(&kSuite, 1))
                     .Update(std::span<const uint8_t>(&kDomainProofToHash, 1))
                     .Update(std::span<const uint8_t>(cg_bytes, 32))
                     .Finish();
  return beta;
}

}  // namespace

VrfResult EcVrfProve(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) {
  VrfResult out;
  auto h_point = HashToCurveTai(key.public_key, alpha);
  if (!h_point) {
    return out;  // All-zero result; unreachable in practice.
  }
  uint8_t h_bytes[32];
  GeToBytes(h_bytes, *h_point);

  // Gamma = x * H.
  GePoint gamma = GeScalarMult(key.scalar.data(), *h_point);
  uint8_t gamma_bytes[32];
  GeToBytes(gamma_bytes, gamma);

  // Nonce k = SHA512(prefix || H) mod L (RFC 8032 style generation).
  Hash512 kh =
      Sha512().Update(key.prefix.span()).Update(std::span<const uint8_t>(h_bytes, 32)).Finish();
  uint8_t k[32];
  ScReduce64(k, kh.data());

  GePoint u = GeScalarMultBase(k);
  GePoint v = GeScalarMult(k, *h_point);
  uint8_t u_bytes[32], v_bytes[32];
  GeToBytes(u_bytes, u);
  GeToBytes(v_bytes, v);

  uint8_t c16[16], c_scalar[32];
  ChallengeScalar(c16, c_scalar, h_bytes, gamma_bytes, u_bytes, v_bytes);

  // s = c*x + k mod L.
  uint8_t s[32];
  ScMulAdd(s, c_scalar, key.scalar.data(), k);

  std::memcpy(out.proof.data(), gamma_bytes, 32);
  std::memcpy(out.proof.data() + 32, c16, 16);
  std::memcpy(out.proof.data() + 48, s, 32);
  out.output = GammaToHash(gamma);
  return out;
}

std::optional<VrfOutput> EcVrfVerify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                     const VrfProof& proof) {
  const uint8_t* gamma_bytes = proof.data();
  const uint8_t* c16 = proof.data() + 32;
  const uint8_t* s_bytes = proof.data() + 48;

  if (!ScIsCanonical(s_bytes)) {
    return std::nullopt;
  }
  auto gamma = GeFromBytes(gamma_bytes);
  if (!gamma) {
    return std::nullopt;
  }
  auto y = GeFromBytes(pk.data());
  if (!y) {
    return std::nullopt;
  }
  auto h_point = HashToCurveTai(pk, alpha);
  if (!h_point) {
    return std::nullopt;
  }
  uint8_t h_bytes[32];
  GeToBytes(h_bytes, *h_point);

  uint8_t c_scalar[32];
  std::memset(c_scalar, 0, 32);
  std::memcpy(c_scalar, c16, 16);

  // U = s*B - c*Y ; V = s*H - c*Gamma.
  GePoint u = internal::GeDoubleScalarMultVartime(c_scalar, internal::GeNeg(*y), s_bytes);
  GePoint v =
      internal::GeTwoScalarMultVartime(s_bytes, *h_point, c_scalar, internal::GeNeg(*gamma));
  uint8_t u_bytes[32], v_bytes[32];
  GeToBytes(u_bytes, u);
  GeToBytes(v_bytes, v);

  uint8_t c_check16[16], c_check_scalar[32];
  ChallengeScalar(c_check16, c_check_scalar, h_bytes, gamma_bytes, u_bytes, v_bytes);
  if (std::memcmp(c_check16, c16, 16) != 0) {
    return std::nullopt;
  }
  return GammaToHash(*gamma);
}

VrfResult EcVrf::Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const {
  return EcVrfProve(key, alpha);
}

std::optional<VrfOutput> EcVrf::Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                       const VrfProof& proof) const {
  return EcVrfVerify(pk, alpha, proof);
}

VrfResult SimVrf::Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const {
  VrfResult out;
  Hash512 h = Sha512().Update("simvrf").Update(key.public_key.span()).Update(alpha).Finish();
  out.output = h;
  // Proof carries the output so Verify can check it byte-for-byte; the
  // remaining 16 bytes tag the backend.
  std::memcpy(out.proof.data(), h.data(), 64);
  std::memset(out.proof.data() + 64, 0x5a, 16);
  return out;
}

std::optional<VrfOutput> SimVrf::Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                        const VrfProof& proof) const {
  Hash512 h = Sha512().Update("simvrf").Update(pk.span()).Update(alpha).Finish();
  if (std::memcmp(proof.data(), h.data(), 64) != 0) {
    return std::nullopt;
  }
  for (int i = 64; i < 80; ++i) {
    if (proof.data()[i] != 0x5a) {
      return std::nullopt;
    }
  }
  return h;
}

}  // namespace algorand
