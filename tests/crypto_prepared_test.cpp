// Prepared Ed25519 public keys and the signer's cache of them. A prepared
// key must accept exactly what the one-shot Ed25519Verify accepts (a
// mismatch would let one crafted vote split honest nodes), and no verdict
// may depend on what the cache holds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/internal/u256.h"
#include "src/crypto/sha512.h"
#include "src/crypto/signer.h"
#include "tests/crypto_oracle.h"

namespace algorand {
namespace {

using internal::GeAdd;
using internal::GeDouble;
using internal::GeFromBytes;
using internal::GeIdentity;
using internal::GeIsIdentity;
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

Ed25519KeyPair KeyFromRng(DeterministicRng* rng) {
  FixedBytes<32> seed;
  rng->FillBytes(seed.data(), 32);
  return Ed25519KeyFromSeed(seed);
}

Bytes32 Encode(const GePoint& p) {
  Bytes32 out;
  GeToBytes(out.data(), p);
  return out;
}

PublicKey Key(const Bytes32& enc) {
  PublicKey pk;
  std::memcpy(pk.data(), enc.data(), 32);
  return pk;
}

Signature Sig(const Bytes32& r, const Bytes32& s) {
  Signature sig;
  std::memcpy(sig.data(), r.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

// S = nonce + SHA-512(R || A || M) * scalar mod L over the given encodings.
Bytes32 SignOver(const Bytes32& r_enc, const Bytes32& a_enc, std::span<const uint8_t> msg,
                 const uint8_t scalar[32], const Bytes32& nonce) {
  Hash512 kh = Sha512()
                   .Update(std::span<const uint8_t>(r_enc.data(), 32))
                   .Update(std::span<const uint8_t>(a_enc.data(), 32))
                   .Update(msg)
                   .Finish();
  Bytes32 k, s;
  ScReduce64(k.data(), kh.data());
  ScMulAdd(s.data(), k.data(), scalar, nonce.data());
  return s;
}

Bytes32 RandomScalar(DeterministicRng* rng) {
  uint8_t wide[64];
  rng->FillBytes(wide, 64);
  Bytes32 s;
  ScReduce64(s.data(), wide);
  return s;
}

// [i]T for i in [0, 8), T of order exactly 8: [L]P for a decodable P with a
// torsion component of full order.
std::vector<GePoint> TorsionPoints() {
  uint8_t l_bytes[32];
  ScToBytes(l_bytes, ScOrder());
  for (uint8_t y = 2;; ++y) {
    uint8_t enc[32] = {};
    enc[0] = y;
    auto p = GeFromBytes(enc);
    if (!p) {
      continue;
    }
    GePoint t = GeScalarMult(l_bytes, *p);
    if (GeIsIdentity(GeDouble(GeDouble(t)))) {
      continue;
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

// Encodings at the edges of decoding: every y + p < 2^255 (non-canonical,
// y in [0, 19)) and every canonical y < 19, each with both sign bits, which
// includes the "-0" encodings of the x = 0 points (y = 1 and y = p - 1 with
// the sign bit set).
std::vector<Bytes32> EdgeEncodings() {
  std::vector<Bytes32> out;
  for (uint64_t y = 0; y < 19; ++y) {
    for (bool sign : {false, true}) {
      U256 v = {0xffffffffffffffedULL, ~0ULL, ~0ULL, 0x7fffffffffffffffULL};  // p.
      internal::AddSmall(&v, v, y);
      Bytes32 above;
      ScToBytes(above.data(), v);
      Bytes32 small{};
      small[0] = static_cast<uint8_t>(y);
      for (Bytes32 enc : {above, small}) {
        enc[31] = static_cast<uint8_t>(enc[31] | (sign ? 0x80 : 0));
        out.push_back(enc);
      }
    }
  }
  Bytes32 minus_one = {0xec};  // p - 1: y = -1, x = 0.
  std::memset(minus_one.data() + 1, 0xff, 30);
  minus_one[31] = 0xff;  // Sign bit set: "-0".
  out.push_back(minus_one);
  return out;
}

// Runs every verification path on one input and tallies the verdict. The
// prepared key is built fresh for each input, so a key that fails to decode
// is checked to produce no table.
struct Differential {
  int accepted = 0;
  int rejected = 0;
  int no_table = 0;

  void Check(const PublicKey& pk, std::span<const uint8_t> msg, const Signature& sig,
             const std::string& what) {
    const bool one_shot = Ed25519Verify(pk, msg, sig);
    EXPECT_EQ(Ed25519VerifyLegacy(pk, msg, sig), one_shot) << what;
    auto prepared = Ed25519PreparedKey::Prepare(pk);
    EXPECT_EQ(prepared != nullptr, GeFromBytes(pk.data()).has_value()) << what;
    if (prepared != nullptr) {
      EXPECT_EQ(prepared->public_key(), pk) << what;
      EXPECT_EQ(Ed25519Verify(*prepared, msg, sig), one_shot) << what;
    } else {
      EXPECT_FALSE(one_shot) << what;
      ++no_table;
    }
    (one_shot ? accepted : rejected) += 1;
  }
};

TEST(PreparedKeyTest, DifferentialFuzzAgainstOneShot) {
  DeterministicRng rng(140);
  const std::vector<GePoint> torsion = TorsionPoints();
  const std::vector<Bytes32> edges = EdgeEncodings();
  const U256& l = ScOrder();
  Differential valid, small_order, mixed_order, edge;
  for (int iter = 0; iter < 16; ++iter) {
    const std::string tag = "iter " + std::to_string(iter);
    Ed25519KeyPair kp = KeyFromRng(&rng);
    std::vector<uint8_t> msg(rng.NextU64() % 97);
    rng.FillBytes(msg.data(), msg.size());
    Signature sig = Ed25519Sign(kp, msg);
    valid.Check(kp.public_key, msg, sig, tag + " valid");

    // Random single-bit flips in the signature, the key and the message.
    for (int f = 0; f < 6; ++f) {
      Signature bad_sig = sig;
      const uint64_t bit = rng.NextU64() % 512;
      bad_sig[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
      valid.Check(kp.public_key, msg, bad_sig, tag + " sig bit " + std::to_string(bit));
      PublicKey bad_pk = kp.public_key;
      const uint64_t pk_bit = rng.NextU64() % 256;
      bad_pk[pk_bit / 8] ^= static_cast<uint8_t>(1 << (pk_bit % 8));
      valid.Check(bad_pk, msg, sig, tag + " pk bit " + std::to_string(pk_bit));
      if (!msg.empty()) {
        std::vector<uint8_t> bad_msg = msg;
        const uint64_t m_bit = rng.NextU64() % (8 * msg.size());
        bad_msg[m_bit / 8] ^= static_cast<uint8_t>(1 << (m_bit % 8));
        valid.Check(kp.public_key, bad_msg, sig, tag + " msg bit " + std::to_string(m_bit));
      }
    }

    // S >= L: S + L, S = L, and S with bit 255 set.
    Bytes32 r_enc, s;
    std::memcpy(r_enc.data(), sig.data(), 32);
    std::memcpy(s.data(), sig.data() + 32, 32);
    U256 s_plus_l = internal::ScFromBytes(s.data());
    internal::Add(&s_plus_l, s_plus_l, l);
    Bytes32 high;
    ScToBytes(high.data(), s_plus_l);
    valid.Check(kp.public_key, msg, Sig(r_enc, high), tag + " S + L");
    ScToBytes(high.data(), l);
    valid.Check(kp.public_key, msg, Sig(r_enc, high), tag + " S = L");
    high = s;
    high[31] |= 0x80;
    valid.Check(kp.public_key, msg, Sig(r_enc, high), tag + " S | 2^255");

    // Small-order A with S = nonce and R = [nonce]B: accepted exactly when
    // [k]T is the identity.
    for (size_t t = 0; t < torsion.size(); ++t) {
      for (bool flip_sign : {false, true}) {
        Bytes32 a_enc = Encode(torsion[t]);
        a_enc[31] ^= flip_sign ? 0x80 : 0;
        Bytes32 nonce = RandomScalar(&rng);
        Bytes32 r = Encode(GeScalarMultBase(nonce.data()));
        const uint8_t zero[32] = {};
        small_order.Check(Key(a_enc), msg, Sig(r, SignOver(r, a_enc, msg, zero, nonce)),
                          tag + " small A=T" + std::to_string(t) + (flip_sign ? "^sign" : ""));
      }
    }

    // Mixed-order A = aB + T and R = rB + T', honestly signed over the
    // encodings the verifier hashes: accepted exactly when T' + [k]T is the
    // identity.
    auto a_point = GeFromBytes(kp.public_key.data());
    ASSERT_TRUE(a_point.has_value());
    for (size_t t = 0; t < torsion.size(); ++t) {
      const size_t t_r = (t == 0 ? 0 : rng.NextU64() % torsion.size());
      Bytes32 a_enc = Encode(GeAdd(*a_point, torsion[t]));
      Bytes32 nonce = RandomScalar(&rng);
      Bytes32 r = Encode(GeAdd(GeScalarMultBase(nonce.data()), torsion[t_r]));
      mixed_order.Check(Key(a_enc), msg,
                        Sig(r, SignOver(r, a_enc, msg, kp.scalar.data(), nonce)),
                        tag + " mixed A=aB+T" + std::to_string(t) + " R=rB+T" +
                            std::to_string(t_r));
    }

    // Edge encodings as A (under a valid signature and a zero one) and as R
    // (with S = 0, and signed with nonce 0 so a decoded identity verifies).
    const Bytes32 zero{};
    Bytes32 pk_enc;
    std::memcpy(pk_enc.data(), kp.public_key.data(), 32);
    for (size_t e = 0; e < edges.size(); ++e) {
      const std::string etag = tag + " edge " + std::to_string(e);
      edge.Check(Key(edges[e]), msg, sig, etag + " as A");
      edge.Check(Key(edges[e]), msg, Sig(edges[e], zero), etag + " as A and R, S=0");
      edge.Check(kp.public_key, msg, Sig(edges[e], zero), etag + " as R, S=0");
      edge.Check(kp.public_key, msg,
                 Sig(edges[e], SignOver(edges[e], pk_enc, msg, kp.scalar.data(), zero)),
                 etag + " as R, nonce 0");
    }
  }
  // Each family must exercise both verdicts (and undecodable keys), or the
  // fuzz compares nothing.
  for (const Differential* d : {&valid, &small_order, &mixed_order, &edge}) {
    EXPECT_GT(d->accepted, 0);
    EXPECT_GT(d->rejected, 0);
  }
  EXPECT_GT(valid.no_table, 0);
  EXPECT_GT(edge.no_table, 0);
}

TEST(PreparedKeyTest, UndecodableKeysNeverGetATable) {
  PublicKey off_curve;  // y = 2: x^2 = 3 / (4d + 1) is not a square.
  off_curve[0] = 2;
  PublicKey minus_zero;  // y = 1 with the sign bit: "-0".
  minus_zero[0] = 1;
  minus_zero[31] = 0x80;
  PreparedKeyCache cache;
  for (const PublicKey& pk : {off_curve, minus_zero}) {
    EXPECT_EQ(Ed25519PreparedKey::Prepare(pk), nullptr);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(cache.Get(pk), nullptr);
    }
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PreparedKeyCacheTest, SecondSightingBuildsTheTable) {
  DeterministicRng rng(141);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  PreparedKeyCache cache;
  EXPECT_EQ(cache.Get(kp.public_key), nullptr);  // First sighting: one-shot path.
  EXPECT_EQ(cache.size(), 0u);
  auto prepared = cache.Get(kp.public_key);  // Second: builds.
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->public_key(), kp.public_key);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(kp.public_key), prepared);  // Later: the same table.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PreparedKeyCacheTest, FullCacheKeepsItsTablesAndBuildsNoMore) {
  DeterministicRng rng(142);
  PreparedKeyCache cache;
  std::vector<PublicKey> keys;
  for (size_t i = 0; i < PreparedKeyCache::kCapacity; ++i) {
    keys.push_back(KeyFromRng(&rng).public_key);
    cache.Get(keys.back());
    ASSERT_NE(cache.Get(keys.back()), nullptr) << i;
  }
  EXPECT_EQ(cache.size(), PreparedKeyCache::kCapacity);
  // Past the bound no key gets a table, however often it is seen, and
  // every held table stays.
  const PublicKey late = KeyFromRng(&rng).public_key;
  for (int sighting = 0; sighting < 4; ++sighting) {
    EXPECT_EQ(cache.Get(late), nullptr) << sighting;
  }
  EXPECT_EQ(cache.size(), PreparedKeyCache::kCapacity);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto held = cache.Get(keys[i]);
    ASSERT_NE(held, nullptr) << i;
    EXPECT_EQ(held->public_key(), keys[i]);
  }
  EXPECT_EQ(cache.size(), PreparedKeyCache::kCapacity);
}

TEST(PreparedKeyCacheTest, VerdictsDoNotDependOnCacheState) {
  // One signer sees each input cold (first sighting), at the build (second)
  // and warm (third and later); a fresh signer per input sees it cold only.
  DeterministicRng rng(143);
  const Ed25519Signer warm;
  for (int i = 0; i < 6; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    auto msg = BytesOfString("cache state " + std::to_string(i));
    Signature sig = Ed25519Sign(kp, msg);
    Signature bad = sig;
    bad[static_cast<size_t>(rng.NextU64() % 64)] ^= 0x04;
    PublicKey bad_pk = kp.public_key;
    bad_pk[31] ^= 0x01;
    for (int sighting = 0; sighting < 4; ++sighting) {
      EXPECT_TRUE(warm.Verify(kp.public_key, msg, sig)) << i << " " << sighting;
      EXPECT_FALSE(warm.Verify(kp.public_key, msg, bad)) << i << " " << sighting;
      EXPECT_EQ(warm.Verify(bad_pk, msg, sig), Ed25519Verify(bad_pk, msg, sig)) << i;
      EXPECT_TRUE(Ed25519Signer().Verify(kp.public_key, msg, sig));
      EXPECT_FALSE(Ed25519Signer().Verify(kp.public_key, msg, bad));
    }
  }
  EXPECT_GE(warm.prepared_keys().size(), 6u);
}

TEST(PreparedKeyCacheTest, ConcurrentVerifiersShareOneCache) {
  // Several threads verify the same signers through one signer: lookups,
  // racing builds and inserts must agree with the one-shot verdicts (run
  // under TSan in CI).
  DeterministicRng rng(144);
  struct Input {
    PublicKey pk;
    std::vector<uint8_t> msg;
    Signature sig;
    bool expected;
  };
  std::vector<Input> inputs;
  for (int i = 0; i < 8; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    auto msg = BytesOfString("shared " + std::to_string(i));
    Signature sig = Ed25519Sign(kp, msg);
    inputs.push_back({kp.public_key, msg, sig, true});
    sig[40] ^= 0x10;
    inputs.push_back({kp.public_key, msg, sig, false});
  }
  const Ed25519Signer signer;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          const Input& in = inputs[(i + static_cast<size_t>(t)) % inputs.size()];
          if (signer.Verify(in.pk, in.msg, in.sig) != in.expected) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(signer.prepared_keys().size(), 8u);
}

}  // namespace
}  // namespace algorand
