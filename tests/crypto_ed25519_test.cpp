// Ed25519 tests: RFC 8032 known-answer vectors plus behavioural properties.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/internal/ge25519.h"
#include "tests/crypto_oracle.h"

namespace algorand {
namespace {

Ed25519KeyPair KeyFromRng(DeterministicRng* rng) {
  FixedBytes<32> seed;
  rng->FillBytes(seed.data(), 32);
  return Ed25519KeyFromSeed(seed);
}

// RFC 8032 §7.1 TEST 1, verification side: the published public key and
// signature over the empty message must verify (and reject perturbations).
TEST(Ed25519Test, Rfc8032Test1VerifyKat) {
  PublicKey pk =
      PublicKey::FromHex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  Signature sig =
      Signature::FromHex("e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
                         "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  ASSERT_FALSE(pk.is_zero());
  ASSERT_FALSE(sig.is_zero());
  EXPECT_TRUE(Ed25519Verify(pk, std::span<const uint8_t>(), sig));
  // The same signature must not verify for a non-empty message.
  EXPECT_FALSE(Ed25519Verify(pk, BytesOfString("x"), sig));
  Signature bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(Ed25519Verify(pk, std::span<const uint8_t>(), bad));
}

// RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
TEST(Ed25519Test, Rfc8032Test2) {
  FixedBytes<32> seed =
      FixedBytes<32>::FromHex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  Ed25519KeyPair kp = Ed25519KeyFromSeed(seed);
  EXPECT_EQ(kp.public_key.ToHex(),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  uint8_t msg[1] = {0x72};
  Signature sig = Ed25519Sign(kp, msg);
  EXPECT_EQ(sig.ToHex(),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(Ed25519Verify(kp.public_key, msg, sig));
}

TEST(Ed25519Test, SignVerifyRoundTrip) {
  DeterministicRng rng(100);
  for (int i = 0; i < 10; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    std::vector<uint8_t> msg(static_cast<size_t>(1 + i * 13));
    rng.FillBytes(msg.data(), msg.size());
    Signature sig = Ed25519Sign(kp, msg);
    EXPECT_TRUE(Ed25519Verify(kp.public_key, msg, sig));
  }
}

TEST(Ed25519Test, SigningIsDeterministic) {
  DeterministicRng rng(101);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto msg = BytesOfString("hello algorand");
  EXPECT_EQ(Ed25519Sign(kp, msg), Ed25519Sign(kp, msg));
}

TEST(Ed25519Test, VerifyRejectsWrongMessage) {
  DeterministicRng rng(102);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  Signature sig = Ed25519Sign(kp, BytesOfString("message A"));
  EXPECT_FALSE(Ed25519Verify(kp.public_key, BytesOfString("message B"), sig));
}

TEST(Ed25519Test, VerifyRejectsWrongKey) {
  DeterministicRng rng(103);
  Ed25519KeyPair kp1 = KeyFromRng(&rng);
  Ed25519KeyPair kp2 = KeyFromRng(&rng);
  auto msg = BytesOfString("message");
  Signature sig = Ed25519Sign(kp1, msg);
  EXPECT_FALSE(Ed25519Verify(kp2.public_key, msg, sig));
}

TEST(Ed25519Test, VerifyRejectsBitFlips) {
  DeterministicRng rng(104);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto msg = BytesOfString("flip test");
  Signature sig = Ed25519Sign(kp, msg);
  for (size_t i = 0; i < sig.size(); i += 7) {
    Signature bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(Ed25519Verify(kp.public_key, msg, bad)) << "flip at byte " << i;
  }
}

TEST(Ed25519Test, VerifyRejectsNonCanonicalS) {
  // S >= L must be rejected (malleability protection).
  DeterministicRng rng(105);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto msg = BytesOfString("canon");
  Signature sig = Ed25519Sign(kp, msg);
  Signature bad = sig;
  // Set S to L itself: bytes 32..63 little-endian.
  auto l_hex = HexDecode("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  ASSERT_TRUE(l_hex.has_value());
  for (int i = 0; i < 32; ++i) {
    bad[32 + static_cast<size_t>(i)] = (*l_hex)[static_cast<size_t>(i)];
  }
  EXPECT_FALSE(Ed25519Verify(kp.public_key, msg, bad));
}

TEST(Ed25519Test, VerifyRejectsGarbagePublicKey) {
  // A canonical y < p off the curve: (y^2 - 1) / (d y^2 + 1) has no square
  // root, so no x exists. Found by trying small y.
  PublicKey off_curve;
  bool found = false;
  for (uint8_t y = 2; y < 16 && !found; ++y) {
    off_curve[0] = y;
    found = !internal::GeFromBytes(off_curve.data()).has_value();
  }
  ASSERT_TRUE(found);
  // Under that key, an honest signature (made by another key) must fail, and
  // the key must not prepare.
  DeterministicRng rng(105);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  Signature sig = Ed25519Sign(kp, BytesOfString("x"));
  ASSERT_TRUE(Ed25519Verify(kp.public_key, BytesOfString("x"), sig));
  EXPECT_FALSE(Ed25519Verify(off_curve, BytesOfString("x"), sig));
  EXPECT_EQ(Ed25519PreparedKey::Prepare(off_curve), nullptr);

  // An all-0xff key does decode: y = 2^255 - 1 is the non-canonical
  // encoding of y = 18, which is on the curve. This only checks that a zero
  // signature fails under it.
  PublicKey all_ff;
  for (size_t i = 0; i < all_ff.size(); ++i) {
    all_ff[i] = 0xff;
  }
  EXPECT_FALSE(Ed25519Verify(all_ff, BytesOfString("x"), Signature()));
}

TEST(Ed25519Test, DistinctSeedsDistinctKeys) {
  DeterministicRng rng(106);
  std::vector<PublicKey> keys;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(KeyFromRng(&rng).public_key);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

// RFC 8032 §7.1 TEST 3 (two-byte message af82): full sign KAT plus agreement
// between the double-scalar verify and the legacy two-multiplication verify.
TEST(Ed25519Test, Rfc8032Test3) {
  FixedBytes<32> seed =
      FixedBytes<32>::FromHex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  Ed25519KeyPair kp = Ed25519KeyFromSeed(seed);
  EXPECT_EQ(kp.public_key.ToHex(),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  uint8_t msg[2] = {0xaf, 0x82};
  Signature sig = Ed25519Sign(kp, msg);
  EXPECT_EQ(sig.ToHex(),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(Ed25519Verify(kp.public_key, msg, sig));
  EXPECT_TRUE(Ed25519VerifyLegacy(kp.public_key, msg, sig));
}

// The w-NAF verify must make the same accept/reject decision as the legacy
// verify on every input: valid signatures, every single-byte corruption of
// the signature, and corrupted keys/messages.
TEST(Ed25519Test, LegacyDecisionParity) {
  DeterministicRng rng(108);
  for (int i = 0; i < 5; ++i) {
    Ed25519KeyPair kp = KeyFromRng(&rng);
    std::vector<uint8_t> msg(static_cast<size_t>(17 * i + 1));
    rng.FillBytes(msg.data(), msg.size());
    Signature sig = Ed25519Sign(kp, msg);
    EXPECT_TRUE(Ed25519Verify(kp.public_key, msg, sig));
    EXPECT_TRUE(Ed25519VerifyLegacy(kp.public_key, msg, sig));
    for (size_t b = 0; b < sig.size(); b += 5) {
      Signature bad = sig;
      bad[b] ^= static_cast<uint8_t>(1 + (b % 7));
      EXPECT_EQ(Ed25519Verify(kp.public_key, msg, bad),
                Ed25519VerifyLegacy(kp.public_key, msg, bad))
          << "sig corruption at byte " << b;
    }
    PublicKey bad_pk = kp.public_key;
    bad_pk[static_cast<size_t>(i) % 32] ^= 0x40;
    EXPECT_EQ(Ed25519Verify(bad_pk, msg, sig), Ed25519VerifyLegacy(bad_pk, msg, sig));
    std::vector<uint8_t> bad_msg = msg;
    bad_msg[0] ^= 1;
    EXPECT_EQ(Ed25519Verify(kp.public_key, bad_msg, sig),
              Ed25519VerifyLegacy(kp.public_key, bad_msg, sig));
  }
}

// Crafted point encodings substituted for R and for A. The two verifiers
// compare R differently (byte re-encoding vs projective GeEq), so these
// pin the decisions down AND assert parity for each encoding.
TEST(Ed25519Test, CraftedEncodingsRejectedIdentically) {
  const char* encodings[] = {
      // Canonical identity (y = 1).
      "0100000000000000000000000000000000000000000000000000000000000000",
      // Non-canonical identity: y = p + 1, decodes to the identity point.
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      // y = p: decodes to y = 0, a valid point of order 4.
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      // "-0": x sign bit set on y = 1; not a valid encoding at all.
      "0100000000000000000000000000000000000000000000000000000000000080",
  };
  DeterministicRng rng(109);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto msg = BytesOfString("crafted encodings");
  Signature sig = Ed25519Sign(kp, msg);
  for (const char* hex : encodings) {
    auto enc = HexDecode(hex);
    ASSERT_TRUE(enc.has_value());
    // Substituted for R: the challenge hash changes, so the equation cannot
    // hold; both paths must reject.
    Signature bad_r = sig;
    for (int i = 0; i < 32; ++i) {
      bad_r[static_cast<size_t>(i)] = (*enc)[static_cast<size_t>(i)];
    }
    EXPECT_FALSE(Ed25519Verify(kp.public_key, msg, bad_r)) << hex;
    EXPECT_FALSE(Ed25519VerifyLegacy(kp.public_key, msg, bad_r)) << hex;
    // Substituted for A: a small-order or invalid key with someone else's
    // signature; both paths must reject.
    PublicKey bad_pk;
    for (int i = 0; i < 32; ++i) {
      bad_pk[static_cast<size_t>(i)] = (*enc)[static_cast<size_t>(i)];
    }
    EXPECT_EQ(Ed25519Verify(bad_pk, msg, sig), Ed25519VerifyLegacy(bad_pk, msg, sig)) << hex;
    EXPECT_FALSE(Ed25519Verify(bad_pk, msg, sig)) << hex;
  }
}

TEST(Ed25519Test, VerifyRejectsHighBitS) {
  // S with the top bit forced (far above L) must be rejected by both paths.
  DeterministicRng rng(110);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  auto msg = BytesOfString("high S");
  Signature sig = Ed25519Sign(kp, msg);
  Signature bad = sig;
  bad[63] |= 0x80;
  EXPECT_FALSE(Ed25519Verify(kp.public_key, msg, bad));
  EXPECT_FALSE(Ed25519VerifyLegacy(kp.public_key, msg, bad));
}

TEST(Ed25519Test, EmptyAndLargeMessages) {
  DeterministicRng rng(107);
  Ed25519KeyPair kp = KeyFromRng(&rng);
  std::vector<uint8_t> empty;
  Signature s1 = Ed25519Sign(kp, empty);
  EXPECT_TRUE(Ed25519Verify(kp.public_key, empty, s1));

  std::vector<uint8_t> big(100 * 1024);
  rng.FillBytes(big.data(), big.size());
  Signature s2 = Ed25519Sign(kp, big);
  EXPECT_TRUE(Ed25519Verify(kp.public_key, big, s2));
  big[50000] ^= 1;
  EXPECT_FALSE(Ed25519Verify(kp.public_key, big, s2));
}

}  // namespace
}  // namespace algorand
