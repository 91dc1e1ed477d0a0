// Generates tests/accept_set_vectors.inc: edge-case inputs to Ed25519 and
// ECVRF verification together with the verdicts the linked library gives.
//
//   ./build/tests/accept_set_gen > tests/accept_set_vectors.inc
//
// The committed table pins the accept set, which is a consensus property: a
// change to the curve or field code that flips one verdict lets a crafted
// vote split honest nodes. crypto_accept_set_test replays the table against
// Ed25519Verify (one-shot and prepared keys), EcVrfVerify and the reference
// verifiers Ed25519VerifyLegacy and EcVrfVerifyLegacy (tests/crypto_oracle.h).
// Regenerate only to add cases, and only from a library whose verdicts on the
// existing rows are unchanged.
//
// The cases cover the eight small-order points and their non-canonical and
// "-0" encodings, every non-canonical y in [p, 2^255), scalars >= L,
// mixed-order keys, nonces and Gammas, and a flipped bit in each field of a
// valid signature and proof.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/sha512.h"
#include "src/crypto/vrf.h"
#include "tests/crypto_oracle.h"

namespace algorand {
namespace {

using internal::GeAdd;
using internal::GeDouble;
using internal::GeFromBytes;
using internal::GeIdentity;
using internal::GeIsIdentity;
using internal::GeMulByCofactor;
using internal::GePoint;
using internal::GeScalarMult;
using internal::GeScalarMultBase;
using internal::GeToBytes;
using internal::ScMulAdd;
using internal::ScOrder;
using internal::ScReduce64;
using internal::ScToBytes;
using internal::U256;

using Bytes32 = std::array<uint8_t, 32>;

std::string Hex(const uint8_t* data, size_t n) {
  return HexEncode(std::span<const uint8_t>(data, n));
}

Bytes32 Encode(const GePoint& p) {
  Bytes32 out;
  GeToBytes(out.data(), p);
  return out;
}

Bytes32 U256Bytes(const U256& v) {
  Bytes32 out;
  ScToBytes(out.data(), v);
  return out;
}

// ---------------------------------------------------------------- points ---

// The torsion subgroup: [i]T for i in [0, 8) with T of order exactly 8,
// found as [L]P for decodable encodings P (the prime-order part vanishes).
std::vector<GePoint> SmallOrderPoints() {
  Bytes32 l_bytes = U256Bytes(ScOrder());
  for (uint8_t y = 2;; ++y) {
    Bytes32 enc{};
    enc[0] = y;
    auto p = GeFromBytes(enc.data());
    if (!p) {
      continue;
    }
    GePoint t = GeScalarMult(l_bytes.data(), *p);
    GePoint t4 = GeDouble(GeDouble(t));
    if (GeIsIdentity(t4)) {
      continue;  // Order below 8.
    }
    std::vector<GePoint> out;
    GePoint acc = GeIdentity();
    for (int i = 0; i < 8; ++i) {
      out.push_back(acc);
      acc = GeAdd(acc, t);
    }
    return out;
  }
}

// 2^255 - 19 + k with the given sign bit: the non-canonical encodings of
// y = k.
Bytes32 AbovePrimeEncoding(uint64_t k, bool sign) {
  U256 v = {0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
            0x7fffffffffffffffULL};
  internal::AddSmall(&v, v, k);
  Bytes32 out = U256Bytes(v);
  if (sign) {
    out[31] |= 0x80;
  }
  return out;
}

// Every encoding of a small-order point: the eight canonical ones, the sign
// flip of each (the negated point, or "-0" when x = 0), and y + p wherever
// y < 19.
std::vector<std::pair<std::string, Bytes32>> SmallOrderEncodings() {
  std::vector<std::pair<std::string, Bytes32>> out;
  std::set<Bytes32> seen;
  std::vector<GePoint> points = SmallOrderPoints();
  for (size_t i = 0; i < points.size(); ++i) {
    Bytes32 canonical = Encode(points[i]);
    Bytes32 flipped = canonical;
    flipped[31] ^= 0x80;
    std::vector<std::pair<std::string, Bytes32>> variants = {
        {"T" + std::to_string(i), canonical}, {"T" + std::to_string(i) + "^sign", flipped}};
    Bytes32 y = canonical;
    y[31] &= 0x7f;
    bool small_y =
        y[0] < 19 && std::all_of(y.begin() + 1, y.end(), [](uint8_t b) { return b == 0; });
    if (small_y) {
      for (bool sign : {false, true}) {
        variants.push_back({"T" + std::to_string(i) + "+p" + (sign ? "^sign" : ""),
                            AbovePrimeEncoding(y[0], sign)});
      }
    }
    for (auto& v : variants) {
      if (seen.insert(v.second).second) {
        out.push_back(v);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- output ---

void EmitCase(const char* kind, const std::string& name, const uint8_t* pk,
              std::span<const uint8_t> msg, const uint8_t* sig, size_t sig_len) {
  PublicKey pub;
  std::memcpy(pub.data(), pk, 32);
  std::string verdicts;
  std::string output;
  if (std::strcmp(kind, "ed25519") == 0) {
    Signature s;
    std::memcpy(s.data(), sig, 64);
    verdicts = std::to_string(Ed25519Verify(pub, msg, s)) + ", " +
               std::to_string(Ed25519VerifyLegacy(pub, msg, s));
  } else {
    VrfProof proof;
    std::memcpy(proof.data(), sig, 80);
    auto fast = EcVrfVerify(pub, msg, proof);
    auto legacy = EcVrfVerifyLegacy(pub, msg, proof);
    verdicts = std::to_string(fast.has_value()) + ", " + std::to_string(legacy.has_value());
    if (fast.has_value() || legacy.has_value()) {
      output = (fast.has_value() ? *fast : *legacy).ToHex();
    }
  }
  std::printf("{\"%s\", \"%s\",\n \"%s\",\n \"%s\",\n \"%s\",\n %s, \"%s\"},\n", kind,
              name.c_str(), Hex(pk, 32).c_str(), Hex(msg.data(), msg.size()).c_str(),
              Hex(sig, sig_len).c_str(), verdicts.c_str(), output.c_str());
}

// --------------------------------------------------------------- Ed25519 ---

// Deterministic nonce for the crafted signatures: SHA-512(prefix || msg).
Bytes32 Nonce(const Ed25519KeyPair& key, std::span<const uint8_t> msg) {
  Hash512 h = Sha512().Update(key.prefix.span()).Update(msg).Finish();
  Bytes32 r;
  ScReduce64(r.data(), h.data());
  return r;
}

// S = r + H(R || A || msg) * a for arbitrary R and A encodings: the honest
// signing equation with the encodings the verifier will hash.
Bytes32 SignWith(const Ed25519KeyPair& key, const Bytes32& r, const Bytes32& r_enc,
                 const Bytes32& a_enc, std::span<const uint8_t> msg) {
  Hash512 kh = Sha512()
                   .Update(std::span<const uint8_t>(r_enc.data(), 32))
                   .Update(std::span<const uint8_t>(a_enc.data(), 32))
                   .Update(msg)
                   .Finish();
  Bytes32 k, s;
  ScReduce64(k.data(), kh.data());
  ScMulAdd(s.data(), k.data(), key.scalar.data(), r.data());
  return s;
}

void EmitEd(const std::string& name, const Bytes32& pk, std::span<const uint8_t> msg,
            const Bytes32& r, const Bytes32& s) {
  uint8_t sig[64];
  std::memcpy(sig, r.data(), 32);
  std::memcpy(sig + 32, s.data(), 32);
  EmitCase("ed25519", name, pk.data(), msg, sig, 64);
}

std::vector<uint8_t> Msg(const std::string& s) { return BytesOfString(s); }

void Ed25519Cases(const Ed25519KeyPair& key) {
  const auto msg = Msg("accept-set");
  Signature sig = Ed25519Sign(key, msg);
  Bytes32 pk, r, s;
  std::memcpy(pk.data(), key.public_key.data(), 32);
  std::memcpy(r.data(), sig.data(), 32);
  std::memcpy(s.data(), sig.data() + 32, 32);
  EmitEd("valid", pk, msg, r, s);

  // A flipped bit in each field.
  for (int bit : {0, 1, 100, 254, 255}) {
    Bytes32 x = pk;
    x[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitEd("flip pk bit " + std::to_string(bit), x, msg, r, s);
    x = r;
    x[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitEd("flip R bit " + std::to_string(bit), pk, msg, x, s);
    x = s;
    x[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitEd("flip S bit " + std::to_string(bit), pk, msg, r, x);
  }
  for (int bit : {0, 7, 40}) {
    auto m = msg;
    m[static_cast<size_t>(bit / 8)] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitEd("flip msg bit " + std::to_string(bit), pk, m, r, s);
  }

  // S >= L.
  const U256& l = ScOrder();
  U256 s_int = internal::ScFromBytes(s.data());
  for (uint64_t mult : {1, 2, 15}) {
    U256 v = s_int;
    for (uint64_t i = 0; i < mult; ++i) {
      internal::Add(&v, v, l);
    }
    EmitEd("S + " + std::to_string(mult) + "L", pk, msg, r, U256Bytes(v));
  }
  U256 l_minus_1 = l;
  internal::Sub(&l_minus_1, l_minus_1, U256{1, 0, 0, 0});
  EmitEd("S = L", pk, msg, r, U256Bytes(l));
  EmitEd("S = L - 1", pk, msg, r, U256Bytes(l_minus_1));
  Bytes32 ones;
  ones.fill(0xff);
  EmitEd("S = 2^256 - 1", pk, msg, r, ones);
  Bytes32 top = s;
  top[31] |= 0x80;
  EmitEd("S | 2^255", pk, msg, r, top);

  // Small-order A and R with S = 0: accepted exactly when R + [k]A is the
  // identity under the cofactorless equation.
  std::vector<std::pair<std::string, Bytes32>> small = SmallOrderEncodings();
  Bytes32 zero{};
  for (const auto& a : small) {
    for (const auto& rr : small) {
      EmitEd("small A=" + a.first + " R=" + rr.first + " S=0", a.second, msg, rr.second, zero);
    }
  }

  // Mixed-order A = aB + T, R = rB + T', honestly signed over the encodings
  // the verifier hashes: accepted exactly when T' + [k]T is the identity.
  std::vector<GePoint> torsion = SmallOrderPoints();
  auto a_point = GeFromBytes(pk.data());
  for (size_t ta = 0; ta < torsion.size(); ++ta) {
    for (size_t tr = 0; tr < torsion.size(); ++tr) {
      for (int m = 0; m < (tr == 0 ? 3 : 1); ++m) {
        auto mm = Msg("mixed-order " + std::to_string(m));
        Bytes32 nonce = Nonce(key, mm);
        Bytes32 a_enc = Encode(GeAdd(*a_point, torsion[ta]));
        Bytes32 r_enc = Encode(GeAdd(GeScalarMultBase(nonce.data()), torsion[tr]));
        EmitEd("mixed A=aB+T" + std::to_string(ta) + " R=rB+T" + std::to_string(tr) + " m" +
                   std::to_string(m),
               a_enc, mm, r_enc, SignWith(key, nonce, r_enc, a_enc, mm));
      }
    }
  }

  // Every non-canonical y in [p, 2^255), both signs, as A, as R, and as both.
  for (uint64_t k = 0; k < 19; ++k) {
    for (bool sign : {false, true}) {
      Bytes32 enc = AbovePrimeEncoding(k, sign);
      std::string tag = "y=p+" + std::to_string(k) + (sign ? " sign" : "");
      EmitEd("noncanonical A " + tag, enc, msg, r, s);
      EmitEd("noncanonical R " + tag + " S=0", pk, msg, enc, zero);
      EmitEd("noncanonical A=R " + tag + " S=0", enc, msg, enc, zero);
      // Where the encoding decodes to the identity, sign over it with nonce
      // 0, so [S]B = R + [k]A holds for the decoded point.
      auto rp = GeFromBytes(enc.data());
      if (rp && GeIsIdentity(*rp)) {
        EmitEd("noncanonical R " + tag + " signed r=0", pk, msg, enc,
               SignWith(key, zero, enc, pk, msg));
      }
    }
  }
}

// ----------------------------------------------------------------- ECVRF ---

constexpr uint8_t kSuite = 0x03;

// ECVRF-ED25519-SHA512-TAI hash to curve over raw pk bytes.
std::optional<GePoint> HashToCurve(const Bytes32& pk, std::span<const uint8_t> alpha) {
  const uint8_t domain = 0x01;
  for (int ctr = 0; ctr < 256; ++ctr) {
    uint8_t ctr_byte = static_cast<uint8_t>(ctr);
    Hash512 h = Sha512()
                    .Update(std::span<const uint8_t>(&kSuite, 1))
                    .Update(std::span<const uint8_t>(&domain, 1))
                    .Update(std::span<const uint8_t>(pk.data(), 32))
                    .Update(alpha)
                    .Update(std::span<const uint8_t>(&ctr_byte, 1))
                    .Finish();
    auto p = GeFromBytes(h.data());
    if (p) {
      return GeMulByCofactor(*p);
    }
  }
  return std::nullopt;
}

// A proof for secret scalar x under an arbitrary pk encoding, with Gamma =
// [x]H + T_gamma encoded as `gamma_enc` when given: the honest prover's
// equations over the bytes the verifier will hash.
std::array<uint8_t, 80> ProveWith(const Bytes32& x, const Bytes32& pk,
                                  std::span<const uint8_t> alpha, const GePoint& t_gamma,
                                  const std::optional<Bytes32>& gamma_enc = std::nullopt) {
  std::array<uint8_t, 80> proof{};
  auto h = HashToCurve(pk, alpha);
  Bytes32 h_bytes = Encode(*h);
  Bytes32 gamma = gamma_enc ? *gamma_enc : Encode(GeAdd(GeScalarMult(x.data(), *h), t_gamma));
  Hash512 kh = Sha512().Update(std::span<const uint8_t>(x.data(), 32)).Update(alpha).Finish();
  Bytes32 k;
  ScReduce64(k.data(), kh.data());
  Bytes32 u = Encode(GeScalarMultBase(k.data()));
  Bytes32 v = Encode(GeScalarMult(k.data(), *h));
  const uint8_t domain = 0x02;
  Hash512 ch = Sha512()
                   .Update(std::span<const uint8_t>(&kSuite, 1))
                   .Update(std::span<const uint8_t>(&domain, 1))
                   .Update(std::span<const uint8_t>(h_bytes.data(), 32))
                   .Update(std::span<const uint8_t>(gamma.data(), 32))
                   .Update(std::span<const uint8_t>(u.data(), 32))
                   .Update(std::span<const uint8_t>(v.data(), 32))
                   .Finish();
  Bytes32 c{};
  std::memcpy(c.data(), ch.data(), 16);
  Bytes32 s;
  ScMulAdd(s.data(), c.data(), x.data(), k.data());
  std::memcpy(proof.data(), gamma.data(), 32);
  std::memcpy(proof.data() + 32, c.data(), 16);
  std::memcpy(proof.data() + 48, s.data(), 32);
  return proof;
}

void EmitVrf(const std::string& name, const Bytes32& pk, std::span<const uint8_t> alpha,
             const std::array<uint8_t, 80>& proof) {
  EmitCase("ecvrf", name, pk.data(), alpha, proof.data(), 80);
}

void VrfCases(const Ed25519KeyPair& key) {
  const auto alpha = Msg("accept-set");
  VrfResult res = EcVrfProve(key, alpha);
  Bytes32 pk;
  std::memcpy(pk.data(), key.public_key.data(), 32);
  std::array<uint8_t, 80> proof;
  std::memcpy(proof.data(), res.proof.data(), 80);
  EmitVrf("valid", pk, alpha, proof);

  // A flipped bit in each field: pk, Gamma, c, s, alpha.
  for (int bit : {0, 100, 254, 255}) {
    Bytes32 x = pk;
    x[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitVrf("flip pk bit " + std::to_string(bit), x, alpha, proof);
    auto p = proof;
    p[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitVrf("flip Gamma bit " + std::to_string(bit), pk, alpha, p);
    p = proof;
    p[48 + bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitVrf("flip s bit " + std::to_string(bit), pk, alpha, p);
  }
  for (int bit : {0, 64, 127}) {
    auto p = proof;
    p[32 + bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitVrf("flip c bit " + std::to_string(bit), pk, alpha, p);
  }
  for (int bit : {0, 7, 40}) {
    auto a = alpha;
    a[static_cast<size_t>(bit / 8)] ^= static_cast<uint8_t>(1 << (bit % 8));
    EmitVrf("flip alpha bit " + std::to_string(bit), pk, a, proof);
  }

  // s >= L.
  const U256& l = ScOrder();
  U256 s_int = internal::ScFromBytes(proof.data() + 48);
  for (uint64_t mult : {1, 15}) {
    U256 v = s_int;
    for (uint64_t i = 0; i < mult; ++i) {
      internal::Add(&v, v, l);
    }
    auto p = proof;
    Bytes32 vb = U256Bytes(v);
    std::memcpy(p.data() + 48, vb.data(), 32);
    EmitVrf("s + " + std::to_string(mult) + "L", pk, alpha, p);
  }
  {
    auto p = proof;
    Bytes32 lb = U256Bytes(l);
    std::memcpy(p.data() + 48, lb.data(), 32);
    EmitVrf("s = L", pk, alpha, p);
    p = proof;
    p[79] |= 0x80;
    EmitVrf("s | 2^255", pk, alpha, p);
  }

  std::vector<std::pair<std::string, Bytes32>> small = SmallOrderEncodings();
  std::vector<GePoint> torsion = SmallOrderPoints();
  Bytes32 zero{};
  // Small-order Gamma in an otherwise valid proof, and small-order pk.
  for (const auto& g : small) {
    auto p = proof;
    std::memcpy(p.data(), g.second.data(), 32);
    EmitVrf("small Gamma=" + g.first, pk, alpha, p);
    EmitVrf("small pk=" + g.first, g.second, alpha, proof);
    // x = 0 under a small-order pk: Gamma is the identity, U = [s]B - [c]T.
    EmitVrf("small pk=" + g.first + " proved x=0", g.second, alpha,
            ProveWith(zero, g.second, alpha, GeIdentity()));
  }
  // x = 0 with every encoding of the identity as Gamma, hashed as given.
  for (const auto& g : small) {
    auto gp = GeFromBytes(g.second.data());
    if (gp && GeIsIdentity(*gp)) {
      for (const auto& y : small) {
        EmitVrf("x=0 pk=" + y.first + " Gamma=" + g.first, y.second, alpha,
                ProveWith(zero, y.second, alpha, GeIdentity(), g.second));
      }
    }
  }

  // Mixed-order pk = xB + T and Gamma = xH + T', honestly proved: accepted
  // exactly when [c]T and [c]T' are both the identity.
  auto y_point = GeFromBytes(pk.data());
  for (size_t ty = 0; ty < torsion.size(); ++ty) {
    for (size_t tg = 0; tg < torsion.size(); ++tg) {
      if (ty != 0 && tg != 0 && ty != tg) {
        continue;
      }
      for (int m = 0; m < 2; ++m) {
        auto a = Msg("mixed-order " + std::to_string(m));
        Bytes32 y_enc = Encode(GeAdd(*y_point, torsion[ty]));
        Bytes32 x;
        std::memcpy(x.data(), key.scalar.data(), 32);
        EmitVrf("mixed pk=xB+T" + std::to_string(ty) + " Gamma=xH+T" + std::to_string(tg) +
                    " m" + std::to_string(m),
                y_enc, a, ProveWith(x, y_enc, a, torsion[tg]));
      }
    }
  }

  // Every non-canonical y in [p, 2^255), both signs, as pk and as Gamma.
  for (uint64_t k = 0; k < 19; ++k) {
    for (bool sign : {false, true}) {
      Bytes32 enc = AbovePrimeEncoding(k, sign);
      std::string tag = "y=p+" + std::to_string(k) + (sign ? " sign" : "");
      EmitVrf("noncanonical pk " + tag, enc, alpha, proof);
      auto p = proof;
      std::memcpy(p.data(), enc.data(), 32);
      EmitVrf("noncanonical Gamma " + tag, pk, alpha, p);
    }
  }
}

}  // namespace
}  // namespace algorand

int main() {
  using namespace algorand;
  FixedBytes<32> seed;
  DeterministicRng rng(2017);
  rng.FillBytes(seed.data(), 32);
  Ed25519KeyPair key = Ed25519KeyFromSeed(seed);
  std::printf(
      "// Generated by tests/accept_set_gen.cpp; see that file before editing.\n"
      "// {kind, name, pk, message or alpha, signature or proof, verdict,\n"
      "//  legacy verdict, VRF output when accepted}\n");
  Ed25519Cases(key);
  VrfCases(key);
  return 0;
}
