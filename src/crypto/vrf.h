// ECVRF-ED25519-SHA512-TAI (the Goldberg et al. construction the paper cites,
// as specified in draft-irtf-cfrg-vrf), plus the VrfBackend abstraction.
//
// The VRF is the heart of cryptographic sortition (§5): VRF_sk(x) returns a
// pseudo-random 64-byte output plus an 80-byte proof that anyone holding pk
// can check. EcVrf is the real construction; SimVrf is a keyed-hash stand-in
// with the same output distribution for very large simulations — the same
// substitution the paper makes when it replaces verifications with sleeps at
// 500,000 users (§10.1).
#ifndef ALGORAND_SRC_CRYPTO_VRF_H_
#define ALGORAND_SRC_CRYPTO_VRF_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "src/common/bytes.h"
#include "src/crypto/ed25519.h"

namespace algorand {

struct VrfResult {
  VrfOutput output;  // beta: the pseudo-random value.
  VrfProof proof;    // pi: proves output corresponds to (pk, alpha).
};

// ECVRF prove: requires the full key pair.
VrfResult EcVrfProve(const Ed25519KeyPair& key, std::span<const uint8_t> alpha);

// ECVRF verify: recomputes beta from (pk, alpha, proof); nullopt if invalid.
// The challenge equations U = [s]B - [c]Y and V = [s]H - [c]Gamma are
// evaluated with interleaved w-NAF double-scalar multiplications.
std::optional<VrfOutput> EcVrfVerify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                     const VrfProof& proof);

// Abstraction over the VRF so simulations can swap the real construction for
// a cheap deterministic stand-in.
class VrfBackend {
 public:
  virtual ~VrfBackend() = default;
  virtual VrfResult Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const = 0;
  virtual std::optional<VrfOutput> Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                          const VrfProof& proof) const = 0;
  virtual const char* name() const = 0;
};

// Real elliptic-curve VRF.
class EcVrf : public VrfBackend {
 public:
  VrfResult Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const override;
  std::optional<VrfOutput> Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                  const VrfProof& proof) const override;
  const char* name() const override { return "ecvrf"; }
};

// Keyed-hash stand-in: output = SHA512("simvrf" || pk || alpha). Verifiable by
// anyone (so it loses the privacy property — documented in DESIGN.md), but
// uniformly distributed and deterministic, which is all the performance
// simulations need.
class SimVrf : public VrfBackend {
 public:
  VrfResult Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const override;
  std::optional<VrfOutput> Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                  const VrfProof& proof) const override;
  const char* name() const override { return "simvrf"; }
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_VRF_H_
