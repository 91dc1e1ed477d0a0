// Tests for the internal Curve25519 field/scalar/group arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hex.h"
#include "src/common/rng.h"
#include "src/crypto/internal/fe25519.h"
#include "src/crypto/internal/ge25519.h"
#include "src/crypto/internal/sc25519.h"
#include "src/crypto/internal/u256.h"
#include "tests/ref_fe25519.h"

namespace algorand {
namespace internal {
namespace {

// A random element over the whole reduced range (every limb < 2^52, so values
// up to ~2^256): the domain every field function accepts.
Fe RandomFe(DeterministicRng* rng) {
  Fe f;
  for (auto& limb : f.v) {
    limb = rng->NextU64() & (kFeReducedBound - 1);
  }
  return f;
}

// The integer a canonical element's limbs spell (each limb < 2^51).
U256 CanonicalLimbsToU256(const Fe& f) {
  uint8_t bytes[32] = {};
  for (int bit = 0; bit < 255; ++bit) {
    if ((f.v[bit / 51] >> (bit % 51)) & 1) {
      bytes[bit / 8] = static_cast<uint8_t>(bytes[bit / 8] | (1 << (bit % 8)));
    }
  }
  return ScFromBytes(bytes);
}

U256 RandomU256(DeterministicRng* rng) {
  U256 u;
  for (auto& limb : u) {
    limb = rng->NextU64();
  }
  return u;
}

TEST(U256Test, AddCarries) {
  U256 a{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  U256 b{1, 0, 0, 0};
  U256 r;
  uint64_t carry = Add(&r, a, b);
  EXPECT_EQ(carry, 1u);
  EXPECT_TRUE(IsZero(r));
}

TEST(U256Test, SubBorrows) {
  U256 a{0, 0, 0, 0};
  U256 b{1, 0, 0, 0};
  U256 r;
  uint64_t borrow = Sub(&r, a, b);
  EXPECT_EQ(borrow, 1u);
  EXPECT_EQ(r[0], ~0ULL);
  EXPECT_EQ(r[3], ~0ULL);
}

TEST(U256Test, AddSubRoundTrip) {
  DeterministicRng rng(42);
  for (int i = 0; i < 200; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    U256 sum, back;
    uint64_t carry = Add(&sum, a, b);
    uint64_t borrow = Sub(&back, sum, b);
    EXPECT_EQ(carry, borrow);  // Wrap in add shows up as wrap in sub.
    EXPECT_EQ(Cmp(back, a), 0);
  }
}

TEST(U256Test, MulWideSmall) {
  U256 a{7, 0, 0, 0};
  U256 b{6, 0, 0, 0};
  U512 r = MulWide(a, b);
  EXPECT_EQ(r[0], 42u);
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(r[static_cast<size_t>(i)], 0u);
  }
}

TEST(U256Test, MulWideCross) {
  // (2^64)(2^64) = 2^128.
  U256 a{0, 1, 0, 0};
  U512 r = MulWide(a, a);
  EXPECT_EQ(r[2], 1u);
  EXPECT_EQ(r[0], 0u);
}

TEST(U256Test, Mod512AgainstSmallModulus) {
  // 1000 mod 7 = 6.
  U512 n{1000, 0, 0, 0, 0, 0, 0, 0};
  U256 m{7, 0, 0, 0};
  U256 r = Mod512(n, m);
  EXPECT_EQ(r[0], 6u);
  EXPECT_TRUE(IsZero(U256{r[1], r[2], r[3], 0}));
}

TEST(U256Test, Mod512Identity) {
  // n < m: result is n.
  U512 n{123456789, 0, 0, 0, 0, 0, 0, 0};
  U256 m{0, 0, 0, 1};  // 2^192.
  U256 r = Mod512(n, m);
  EXPECT_EQ(r[0], 123456789u);
}

TEST(U256Test, BitExtraction) {
  U256 a{0b1010, 0, 0, 1};
  EXPECT_EQ(Bit(a, 0), 0);
  EXPECT_EQ(Bit(a, 1), 1);
  EXPECT_EQ(Bit(a, 3), 1);
  EXPECT_EQ(Bit(a, 192), 1);
  EXPECT_EQ(Bit(a, 193), 0);
}

TEST(Fe25519Test, AddCommutes) {
  DeterministicRng rng(1);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng), b = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeAdd(a, b), FeAdd(b, a)));
  }
}

TEST(Fe25519Test, MulCommutesAndAssociates) {
  DeterministicRng rng(2);
  for (int i = 0; i < 50; ++i) {
    Fe a = RandomFe(&rng), b = RandomFe(&rng), c = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeMul(a, b), FeMul(b, a)));
    EXPECT_TRUE(FeEq(FeMul(FeMul(a, b), c), FeMul(a, FeMul(b, c))));
  }
}

TEST(Fe25519Test, Distributive) {
  DeterministicRng rng(3);
  for (int i = 0; i < 50; ++i) {
    Fe a = RandomFe(&rng), b = RandomFe(&rng), c = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeMul(a, FeAdd(b, c)), FeAdd(FeMul(a, b), FeMul(a, c))));
  }
}

TEST(Fe25519Test, SubInverseOfAdd) {
  DeterministicRng rng(4);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng), b = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeSub(FeAdd(a, b), b), a));
  }
}

TEST(Fe25519Test, NegAddsToZero) {
  DeterministicRng rng(5);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng);
    EXPECT_TRUE(FeIsZero(FeAdd(a, FeNeg(a))));
  }
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  DeterministicRng rng(6);
  for (int i = 0; i < 20; ++i) {
    Fe a = RandomFe(&rng);
    if (FeIsZero(a)) {
      continue;
    }
    EXPECT_TRUE(FeEq(FeMul(a, FeInvert(a)), FeOne()));
  }
}

TEST(Fe25519Test, InvertZeroIsZero) { EXPECT_TRUE(FeIsZero(FeInvert(FeZero()))); }

TEST(Fe25519Test, SqMatchesMul) {
  DeterministicRng rng(7);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeSq(a), FeMul(a, a)));
  }
}

TEST(Fe25519Test, BytesRoundTrip) {
  DeterministicRng rng(8);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng);
    uint8_t buf[32];
    FeToBytes(buf, a);
    Fe b = FeFromBytes(buf);
    EXPECT_TRUE(FeEq(a, b));
  }
}

TEST(Fe25519Test, CanonicalizeBelowPrime) {
  DeterministicRng rng(9);
  for (int i = 0; i < 100; ++i) {
    Fe a = RandomFe(&rng);
    FeCanonicalize(&a);
    for (uint64_t limb : a.v) {
      EXPECT_LT(limb, uint64_t{1} << 51);
    }
    EXPECT_LT(Cmp(CanonicalLimbsToU256(a), FieldPrime()), 0);
  }
}

TEST(Fe25519Test, SqrtM1Squared) {
  Fe i = FeSqrtM1();
  EXPECT_TRUE(FeEq(FeSq(i), FeNeg(FeOne())));
}

TEST(Fe25519Test, PrimeEquivalences) {
  // p = 0 in the field; 2^255 = 19. p arrives through its byte encoding, and
  // 2^255 (which no 255-bit encoding can carry) as a top limb of 2^51.
  uint8_t p_bytes[32];
  ScToBytes(p_bytes, FieldPrime());
  Fe p = FeFromBytes(p_bytes);
  EXPECT_TRUE(FeIsZero(p));
  Fe two255;
  two255.v[4] = uint64_t{1} << 51;
  EXPECT_TRUE(FeEq(two255, FeFromU64(19)));
}

TEST(Fe25519Test, PowMatchesRepeatedMul) {
  Fe a = FeFromU64(3);
  U256 e{13, 0, 0, 0};
  Fe expected = FeOne();
  for (int i = 0; i < 13; ++i) {
    expected = FeMul(expected, a);
  }
  EXPECT_TRUE(FeEq(FePow(a, e), expected));
}

TEST(Sc25519Test, ReduceBelowOrderIsIdentity) {
  uint8_t in[64] = {};
  in[0] = 42;
  uint8_t out[32];
  ScReduce64(out, in);
  EXPECT_EQ(out[0], 42);
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(Sc25519Test, ReduceOrderIsZero) {
  uint8_t in[64] = {};
  ScToBytes(in, ScOrder());
  uint8_t out[32];
  ScReduce64(out, in);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(Sc25519Test, ReducedValuesAreCanonical) {
  DeterministicRng rng(10);
  for (int i = 0; i < 100; ++i) {
    uint8_t in[64];
    rng.FillBytes(in, sizeof(in));
    uint8_t out[32];
    ScReduce64(out, in);
    EXPECT_TRUE(ScIsCanonical(out));
  }
}

TEST(Sc25519Test, MulAddSmallValues) {
  uint8_t a[32] = {}, b[32] = {}, c[32] = {}, out[32];
  a[0] = 5;
  b[0] = 7;
  c[0] = 3;
  ScMulAdd(out, a, b, c);
  EXPECT_EQ(out[0], 38);
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(Sc25519Test, MulAddReducesModOrder) {
  // (L-1)*1 + 1 = L = 0 mod L.
  uint8_t a[32], b[32] = {}, c[32] = {}, out[32];
  U256 l_minus_1 = ScOrder();
  U256 one{1, 0, 0, 0};
  Sub(&l_minus_1, l_minus_1, one);
  ScToBytes(a, l_minus_1);
  b[0] = 1;
  c[0] = 1;
  ScMulAdd(out, a, b, c);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(Ge25519Test, BasePointOnCurve) {
  // Encode/decode round trip through the canonical encoding.
  uint8_t enc[32];
  GeToBytes(enc, GeBasePoint());
  auto p = GeFromBytes(enc);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(GeEq(*p, GeBasePoint()));
}

TEST(Ge25519Test, BasePointEncodingIsStandard) {
  // The canonical Ed25519 base point encoding: 0x58 followed by 31 0x66 bytes
  // read back from hex (little-endian y = 4/5).
  uint8_t enc[32];
  GeToBytes(enc, GeBasePoint());
  algorand::PublicKey expected = algorand::PublicKey::FromHex(
      "5866666666666666666666666666666666666666666666666666666666666666");
  EXPECT_EQ(0, memcmp(enc, expected.data(), 32));
}

TEST(Ge25519Test, IdentityProperties) {
  GePoint id = GeIdentity();
  EXPECT_TRUE(GeIsIdentity(id));
  EXPECT_TRUE(GeEq(GeAdd(id, GeBasePoint()), GeBasePoint()));
  EXPECT_TRUE(GeEq(GeDouble(id), id));
}

TEST(Ge25519Test, DoubleMatchesAdd) {
  GePoint b = GeBasePoint();
  EXPECT_TRUE(GeEq(GeDouble(b), GeAdd(b, b)));
  GePoint b2 = GeDouble(b);
  EXPECT_TRUE(GeEq(GeDouble(b2), GeAdd(b2, b2)));
}

TEST(Ge25519Test, AddCommutesAndAssociates) {
  GePoint b = GeBasePoint();
  GePoint p = GeDouble(b);            // 2B
  GePoint q = GeAdd(GeDouble(p), b);  // 5B
  EXPECT_TRUE(GeEq(GeAdd(p, q), GeAdd(q, p)));
  EXPECT_TRUE(GeEq(GeAdd(GeAdd(p, q), b), GeAdd(p, GeAdd(q, b))));
}

TEST(Ge25519Test, SubIsInverseOfAdd) {
  GePoint b = GeBasePoint();
  GePoint p = GeDouble(GeDouble(b));  // 4B
  EXPECT_TRUE(GeEq(GeSub(GeAdd(p, b), b), p));
}

TEST(Ge25519Test, NegAddsToIdentity) {
  GePoint b = GeBasePoint();
  EXPECT_TRUE(GeIsIdentity(GeAdd(b, GeNeg(b))));
}

TEST(Ge25519Test, ScalarMultSmall) {
  uint8_t three[32] = {};
  three[0] = 3;
  GePoint b = GeBasePoint();
  GePoint expected = GeAdd(GeDouble(b), b);
  EXPECT_TRUE(GeEq(GeScalarMult(three, b), expected));
}

TEST(Ge25519Test, ScalarMultZeroIsIdentity) {
  uint8_t zero[32] = {};
  EXPECT_TRUE(GeIsIdentity(GeScalarMult(zero, GeBasePoint())));
}

TEST(Ge25519Test, OrderTimesBaseIsIdentity) {
  uint8_t l_bytes[32];
  ScToBytes(l_bytes, ScOrder());
  EXPECT_TRUE(GeIsIdentity(GeScalarMult(l_bytes, GeBasePoint())));
}

TEST(Ge25519Test, ScalarMultDistributesOverScalarAdd) {
  // (a+b)P == aP + bP for random reduced scalars.
  DeterministicRng rng(20);
  for (int i = 0; i < 5; ++i) {
    uint8_t wide_a[64], wide_b[64], a[32], b[32], zero[32] = {}, one[32] = {};
    one[0] = 1;
    rng.FillBytes(wide_a, 64);
    rng.FillBytes(wide_b, 64);
    ScReduce64(a, wide_a);
    ScReduce64(b, wide_b);
    uint8_t sum[32];
    ScMulAdd(sum, a, one, b);  // a*1 + b mod L.
    (void)zero;
    GePoint lhs = GeScalarMultBase(sum);
    GePoint rhs = GeAdd(GeScalarMultBase(a), GeScalarMultBase(b));
    EXPECT_TRUE(GeEq(lhs, rhs));
  }
}

TEST(Ge25519Test, CompressionRoundTrip) {
  DeterministicRng rng(21);
  for (int i = 0; i < 10; ++i) {
    uint8_t wide[64], s[32];
    rng.FillBytes(wide, 64);
    ScReduce64(s, wide);
    GePoint p = GeScalarMultBase(s);
    uint8_t enc[32];
    GeToBytes(enc, p);
    auto q = GeFromBytes(enc);
    ASSERT_TRUE(q.has_value());
    EXPECT_TRUE(GeEq(p, *q));
  }
}

TEST(Ge25519Test, FromBytesRejectsNonCurve) {
  // y = 2 gives x^2 = 3/(4d+1), which happens to be a non-square; count a few
  // known-bad encodings among random ones: at least some random 32-byte
  // strings must fail decompression (about half).
  DeterministicRng rng(22);
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    uint8_t enc[32];
    rng.FillBytes(enc, 32);
    enc[31] &= 0x7f;
    if (!GeFromBytes(enc).has_value()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 10);
  EXPECT_LT(failures, 40);
}

TEST(Ge25519Test, TableBaseMultMatchesGenericScalarMult) {
  // The windowed fixed-base path must agree with plain double-and-add for
  // random reduced scalars and edge scalars.
  DeterministicRng rng(23);
  for (int i = 0; i < 10; ++i) {
    uint8_t wide[64], s[32];
    rng.FillBytes(wide, 64);
    ScReduce64(s, wide);
    EXPECT_TRUE(GeEq(GeScalarMultBase(s), GeScalarMult(s, GeBasePoint()))) << "iter " << i;
  }
  uint8_t zero[32] = {};
  EXPECT_TRUE(GeIsIdentity(GeScalarMultBase(zero)));
  uint8_t one[32] = {};
  one[0] = 1;
  EXPECT_TRUE(GeEq(GeScalarMultBase(one), GeBasePoint()));
  uint8_t top[32] = {};
  top[31] = 0x10;  // 2^252, exercising the highest table window.
  EXPECT_TRUE(GeEq(GeScalarMultBase(top), GeScalarMult(top, GeBasePoint())));
  // Unreduced scalars up to 2^256 - 1: top radix-16 digits 9 to 16.
  for (uint8_t high : {0x80, 0x8f, 0xef, 0xf7, 0xff}) {
    uint8_t s[32];
    memset(s, 0xff, 32);
    s[31] = high;
    EXPECT_TRUE(GeEq(GeScalarMultBase(s), GeScalarMult(s, GeBasePoint()))) << int{high};
    rng.FillBytes(s, 31);
    EXPECT_TRUE(GeEq(GeScalarMultBase(s), GeScalarMult(s, GeBasePoint()))) << int{high};
  }
}

TEST(Ge25519Test, MulByCofactorIsEightTimes) {
  uint8_t eight[32] = {};
  eight[0] = 8;
  GePoint b = GeBasePoint();
  EXPECT_TRUE(GeEq(GeMulByCofactor(b), GeScalarMult(eight, b)));
}

TEST(Fe25519Test, Pow22523MatchesGenericPow) {
  // The addition chain for the decompression exponent 2^252 - 3 against the
  // generic square-and-multiply ladder.
  U256 e{0xFFFFFFFFFFFFFFFDULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
         0x0FFFFFFFFFFFFFFFULL};
  DeterministicRng rng(24);
  for (int i = 0; i < 5; ++i) {
    Fe a = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FePow22523(a), FePow(a, e))) << "iter " << i;
  }
}

TEST(Fe25519Test, InvertMatchesGenericPow) {
  // FeInvert's addition chain against a^(p-2) through FePow. p - 2 =
  // 2^255 - 21.
  U256 e{0xFFFFFFFFFFFFFFEBULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
         0x7FFFFFFFFFFFFFFFULL};
  DeterministicRng rng(25);
  for (int i = 0; i < 5; ++i) {
    Fe a = RandomFe(&rng);
    EXPECT_TRUE(FeEq(FeInvert(a), FePow(a, e))) << "iter " << i;
  }
}

// Random point distinct from the base point, for the vartime cross-checks.
GePoint RandomPoint(DeterministicRng* rng) {
  uint8_t wide[64], s[32];
  rng->FillBytes(wide, 64);
  ScReduce64(s, wide);
  return GeScalarMultBase(s);
}

TEST(Ge25519Test, DoubleScalarMultVartimeMatchesComposition) {
  // [a]A + [b]B against the composed textbook computation, including the
  // degenerate scalar pairs that skip one side of the interleaving.
  DeterministicRng rng(27);
  for (int i = 0; i < 8; ++i) {
    GePoint A = RandomPoint(&rng);
    uint8_t a[32], b[32];
    rng.FillBytes(a, 32);
    rng.FillBytes(b, 32);
    if (i == 6) {
      memset(a, 0, 32);  // [0]A + [b]B: pure base-point table walk.
    }
    if (i == 7) {
      memset(b, 0, 32);  // [a]A + [0]B: pure odd-multiples walk.
    }
    GePoint expected = GeAdd(GeScalarMult(a, A), GeScalarMult(b, GeBasePoint()));
    GePoint got = GeDoubleScalarMultVartime(a, A, b);
    EXPECT_TRUE(GeEq(got, expected)) << "iter " << i;
    EXPECT_TRUE(GeEq(GeAdd(got, A), GeAdd(expected, A))) << "iter " << i;
  }
  // The w-NAF edge scalars on each side: 0 (no digits), 1 (one digit) and
  // 2^256 - 1 (the recoding carries past bit 255).
  std::array<std::array<uint8_t, 32>, 3> edges{};
  edges[1][0] = 1;
  edges[2].fill(0xff);
  GePoint A = RandomPoint(&rng);
  for (size_t i = 0; i < edges.size(); ++i) {
    for (size_t j = 0; j < edges.size(); ++j) {
      const uint8_t* a = edges[i].data();
      const uint8_t* b = edges[j].data();
      GePoint expected = GeAdd(GeScalarMult(a, A), GeScalarMult(b, GeBasePoint()));
      GePoint got = GeDoubleScalarMultVartime(a, A, b);
      EXPECT_TRUE(GeEq(got, expected)) << "edge " << i << "," << j;
      EXPECT_TRUE(GeEq(GeAdd(got, A), GeAdd(expected, A))) << "edge " << i << "," << j;
    }
  }
}

TEST(Ge25519Test, TwoScalarMultVartimeMatchesComposition) {
  DeterministicRng rng(28);
  for (int i = 0; i < 8; ++i) {
    GePoint A = RandomPoint(&rng);
    GePoint B = RandomPoint(&rng);
    uint8_t a[32], b[32];
    rng.FillBytes(a, 32);
    rng.FillBytes(b, 32);
    GePoint expected = GeAdd(GeScalarMult(a, A), GeScalarMult(b, B));
    GePoint got = GeTwoScalarMultVartime(a, A, b, B);
    EXPECT_TRUE(GeEq(got, expected)) << "iter " << i;
    EXPECT_TRUE(GeEq(GeAdd(got, A), GeAdd(expected, A))) << "iter " << i;
  }
}

TEST(Sc25519Test, Radix16DigitsReconstructTheScalar) {
  // sum_i d_i 16^i == s over all 32-byte scalars, with every digit in
  // [-8, 7] except the top one: in [0, 8] below 2^255 (8 at 2^255 - 1), in
  // [8, 16] from 2^255 on (16 at 2^256 - 1).
  DeterministicRng rng(29);
  std::vector<std::array<uint8_t, 32>> scalars;
  for (int i = 0; i < 20; ++i) {
    std::array<uint8_t, 32> s;
    rng.FillBytes(s.data(), 32);
    if (i < 10) {
      s[31] &= 0x7f;
    } else {
      s[31] |= 0x80;
    }
    scalars.push_back(s);
  }
  std::array<uint8_t, 32> edge{};
  scalars.push_back(edge);  // 0.
  edge.fill(0xff);
  edge[31] = 0x7f;
  scalars.push_back(edge);  // 2^255 - 1.
  edge.fill(0x88);
  edge[31] = 0x78;
  scalars.push_back(edge);  // Every nibble 8: maximal carries.
  edge.fill(0xff);
  scalars.push_back(edge);  // 2^256 - 1.
  edge.fill(0);
  edge[31] = 0x80;
  scalars.push_back(edge);  // 2^255.
  for (const auto& s : scalars) {
    int8_t digits[64];
    ScRadix16(digits, s.data());
    for (int i = 0; i < 63; ++i) {
      EXPECT_GE(digits[i], -8);
      EXPECT_LE(digits[i], 7);
    }
    if (s[31] < 0x80) {
      EXPECT_GE(digits[63], 0);
      EXPECT_LE(digits[63], 8);
    } else {
      EXPECT_GE(digits[63], 8);
      EXPECT_LE(digits[63], 16);
    }
    // Horner from the top digit, in two's complement over 256 bits (the
    // sum is s itself, below 2^256, so nothing wraps).
    U256 acc{};
    for (int i = 63; i >= 0; --i) {
      for (int k = 0; k < 4; ++k) {
        Add(&acc, acc, acc);
      }
      U256 d{static_cast<uint64_t>(static_cast<int64_t>(digits[i])), 0, 0, 0};
      if (digits[i] < 0) {
        d = {d[0], ~0ULL, ~0ULL, ~0ULL};  // Sign extension.
      }
      Add(&acc, acc, d);
    }
    EXPECT_EQ(acc, ScFromBytes(s.data()));
  }
}

TEST(Ge25519Test, FixedBaseTableHoldsTheDocumentedMultiples) {
  // entry[j][k] == (k + 1) * 256^j * P: check the corner rows against the
  // ladder by adding each affine entry to the identity.
  DeterministicRng rng(30);
  GePoint p = RandomPoint(&rng);
  GeFixedBaseTable table;
  GeBuildFixedBaseTable(p, &table);
  for (int j : {0, 1, 17, 31}) {
    for (int k = 0; k < 8; ++k) {
      uint8_t s[32] = {};
      s[j] = static_cast<uint8_t>(k + 1);  // (k + 1) * 256^j.
      GePrecomp e = table.entry[j][k];
      // Recover the affine point: y = ((y+x) + (y-x)) / 2, x = ((y+x) - (y-x)) / 2.
      Fe half = FeInvert(FeFromU64(2));
      GePoint q;
      q.X = FeMul(FeSub(e.YplusX, e.YminusX), half);
      q.Y = FeMul(FeAdd(e.YplusX, e.YminusX), half);
      q.Z = FeOne();
      q.T = FeMul(q.X, q.Y);
      EXPECT_TRUE(GeEq(q, GeScalarMult(s, p))) << "row " << j << " col " << k;
      EXPECT_TRUE(FeEq(e.XY2d, FeMul(FeAdd(GeConstD(), GeConstD()), q.T)))
          << "row " << j << " col " << k;
    }
  }
}

TEST(Ge25519Test, DoubleScalarMultFixedMatchesComposition) {
  // [a]P + [b]B from P's fixed-base table against the textbook composition,
  // over scalars < 2^255 including the top digit 8 and zero on either side,
  // and unreduced scalars >= 2^255 (top digits 9 to 16) on either side; P
  // random, small-order, and mixed-order.
  DeterministicRng rng(31);
  uint8_t l_bytes[32];
  ScToBytes(l_bytes, ScOrder());
  std::vector<GePoint> points;
  for (int i = 0; i < 3; ++i) {
    points.push_back(RandomPoint(&rng));
  }
  for (uint8_t y = 2; points.size() < 5; ++y) {
    uint8_t enc[32] = {};
    enc[0] = y;
    if (auto q = GeFromBytes(enc)) {
      GePoint torsion = GeScalarMult(l_bytes, *q);
      points.push_back(torsion);                              // Small order.
      points.push_back(GeAdd(RandomPoint(&rng), torsion));  // Mixed order.
    }
  }
  GeFixedBaseTable table;
  for (size_t n = 0; n < points.size(); ++n) {
    const GePoint& p = points[n];
    GeBuildFixedBaseTable(p, &table);
    for (int i = 0; i < 9; ++i) {
      uint8_t a[32], b[32];
      rng.FillBytes(a, 32);
      rng.FillBytes(b, 32);
      a[31] &= 0x7f;
      b[31] &= 0x7f;
      if (i == 6) {
        a[31] |= 0x80;
      }
      if (i == 7) {
        b[31] |= 0x80;
      }
      if (i == 8) {
        memset(a, 0xff, 32);  // 2^256 - 1 on both sides: top digit 16.
        memset(b, 0xff, 32);
      }
      if (i == 3) {
        memset(a, 0xff, 32);
        a[31] = 0x7f;  // 2^255 - 1: top digit 8.
      }
      if (i == 4) {
        memset(a, 0, 32);
      }
      if (i == 5) {
        memset(b, 0, 32);
      }
      GePoint expected = GeAdd(GeScalarMult(a, p), GeScalarMult(b, GeBasePoint()));
      GePoint got = GeDoubleScalarMultFixed(a, table, b);
      EXPECT_TRUE(GeEq(got, expected)) << "point " << n << " iter " << i;
      EXPECT_TRUE(GeEq(GeAdd(got, p), GeAdd(expected, p))) << "point " << n << " iter " << i;
    }
  }
  uint8_t top[32];
  memset(top, 0xff, 32);
  top[31] = 0x7f;
  EXPECT_TRUE(GeEq(GeScalarMultBase(top), GeScalarMult(top, GeBasePoint())));
}

// --- Differential tests: the radix-2^51 field against the reference field ---
//
// Every comparison goes through the canonical 32-byte encoding, so it checks
// the residue, not the (lazy) representation.

// The residue the limbs of `f` spell, evaluated in the reference field.
RefFe ToRef(const Fe& f) {
  RefFe acc;
  for (int i = 0; i < 5; ++i) {
    RefFe radix;
    radix.v[static_cast<size_t>(51 * i / 64)] = uint64_t{1} << (51 * i % 64);  // 2^(51 i)
    acc = RefAdd(acc, RefMul(RefFromU64(f.v[i]), radix));
  }
  return acc;
}

std::string Hex32(const uint8_t* b) { return HexEncode(std::span<const uint8_t>(b, 32)); }

::testing::AssertionResult SameResidue(const Fe& f, const RefFe& r) {
  uint8_t fb[32], rb[32];
  FeToBytes(fb, f);
  RefToBytes(rb, r);
  if (memcmp(fb, rb, 32) != 0) {
    return ::testing::AssertionFailure() << "field " << Hex32(fb)
                                         << " != reference "
                                         << Hex32(rb);
  }
  return ::testing::AssertionSuccess();
}

bool LimbsBelow(const Fe& f, uint64_t bound) {
  for (uint64_t limb : f.v) {
    if (limb >= bound) {
      return false;
    }
  }
  return true;
}

Fe RandomFeBelow(DeterministicRng* rng, uint64_t bound) {
  Fe f;
  for (auto& limb : f.v) {
    limb = rng->NextU64() % bound;
  }
  return f;
}

Fe AllLimbs(uint64_t limb) { return Fe{{limb, limb, limb, limb, limb}}; }

// The values 2^255 - 19 + k for k in [0, 19): every encoding of a
// non-canonical y, i.e. the whole interval [p, 2^255).
std::vector<Fe> AbovePrime() {
  std::vector<Fe> out;
  for (uint64_t k = 0; k < 19; ++k) {
    U256 v = FieldPrime();
    AddSmall(&v, v, k);
    uint8_t bytes[32];
    ScToBytes(bytes, v);
    out.push_back(FeFromBytes(bytes));
  }
  return out;
}

// Edge inputs for a given per-limb bound: all-ones limbs at the maximum, the
// maximum in one limb at a time, zero, p, and [p, 2^255).
std::vector<Fe> EdgeInputs(uint64_t bound) {
  std::vector<Fe> out = AbovePrime();
  out.push_back(AllLimbs(bound - 1));
  out.push_back(AllLimbs(kFeLimbMask));
  out.push_back(FeZero());
  out.push_back(FeOne());
  for (int i = 0; i < 5; ++i) {
    Fe one_limb;
    one_limb.v[i] = bound - 1;
    out.push_back(one_limb);
  }
  return out;
}

constexpr int kDiffIters = 2000;

TEST(FeDifferentialTest, MulMatchesReferenceUpToInputBound) {
  DeterministicRng rng(101);
  std::vector<Fe> edges = EdgeInputs(kFeMulInBound);
  for (const Fe& a : edges) {
    for (const Fe& b : edges) {
      Fe r = FeMul(a, b);
      EXPECT_TRUE(SameResidue(r, RefMul(ToRef(a), ToRef(b))));
      EXPECT_TRUE(LimbsBelow(r, kFeReducedBound));
    }
  }
  for (int i = 0; i < kDiffIters; ++i) {
    Fe a = RandomFeBelow(&rng, kFeMulInBound), b = RandomFeBelow(&rng, kFeMulInBound);
    Fe r = FeMul(a, b);
    ASSERT_TRUE(SameResidue(r, RefMul(ToRef(a), ToRef(b)))) << "iter " << i;
    ASSERT_TRUE(LimbsBelow(r, kFeReducedBound)) << "iter " << i;
  }
}

TEST(FeDifferentialTest, SqMatchesReferenceUpToInputBound) {
  DeterministicRng rng(102);
  for (const Fe& a : EdgeInputs(kFeMulInBound)) {
    Fe r = FeSq(a);
    EXPECT_TRUE(SameResidue(r, RefSq(ToRef(a))));
    EXPECT_TRUE(LimbsBelow(r, kFeReducedBound));
  }
  for (int i = 0; i < kDiffIters; ++i) {
    Fe a = RandomFeBelow(&rng, kFeMulInBound);
    Fe r = FeSq(a);
    ASSERT_TRUE(SameResidue(r, RefSq(ToRef(a)))) << "iter " << i;
    ASSERT_TRUE(LimbsBelow(r, kFeReducedBound)) << "iter " << i;
  }
}

TEST(FeDifferentialTest, AddMatchesReferenceUpToInputBound) {
  DeterministicRng rng(103);
  std::vector<Fe> edges = EdgeInputs(kFeAddInBound);
  for (const Fe& a : edges) {
    for (const Fe& b : edges) {
      Fe r = FeAdd(a, b);
      EXPECT_TRUE(SameResidue(r, RefAdd(ToRef(a), ToRef(b))));
      EXPECT_TRUE(LimbsBelow(r, kFeMulInBound));
    }
  }
  for (int i = 0; i < kDiffIters; ++i) {
    Fe a = RandomFeBelow(&rng, kFeAddInBound), b = RandomFeBelow(&rng, kFeAddInBound);
    Fe r = FeAdd(a, b);
    ASSERT_TRUE(SameResidue(r, RefAdd(ToRef(a), ToRef(b)))) << "iter " << i;
    ASSERT_TRUE(LimbsBelow(r, kFeMulInBound)) << "iter " << i;
  }
}

TEST(FeDifferentialTest, SubAndNegMatchReferenceUpToInputBounds) {
  DeterministicRng rng(104);
  std::vector<Fe> minuends = EdgeInputs(kFeMulInBound);
  std::vector<Fe> subtrahends = EdgeInputs(kFeSubInBound);
  for (const Fe& a : minuends) {
    for (const Fe& b : subtrahends) {
      Fe r = FeSub(a, b);
      EXPECT_TRUE(SameResidue(r, RefSub(ToRef(a), ToRef(b))));
      EXPECT_TRUE(LimbsBelow(r, kFeReducedBound));
    }
  }
  for (const Fe& b : subtrahends) {
    Fe r = FeNeg(b);
    EXPECT_TRUE(SameResidue(r, RefNeg(ToRef(b))));
    EXPECT_TRUE(LimbsBelow(r, kFeReducedBound));
  }
  for (int i = 0; i < kDiffIters; ++i) {
    Fe a = RandomFeBelow(&rng, kFeMulInBound), b = RandomFeBelow(&rng, kFeSubInBound);
    Fe r = FeSub(a, b);
    ASSERT_TRUE(SameResidue(r, RefSub(ToRef(a), ToRef(b)))) << "iter " << i;
    ASSERT_TRUE(LimbsBelow(r, kFeReducedBound)) << "iter " << i;
    ASSERT_TRUE(SameResidue(FeNeg(b), RefNeg(ToRef(b)))) << "iter " << i;
  }
}

TEST(FeDifferentialTest, InvertAndPow22523MatchReference) {
  DeterministicRng rng(105);
  std::vector<Fe> inputs = EdgeInputs(kFeMulInBound);
  for (int i = 0; i < 20; ++i) {
    inputs.push_back(RandomFeBelow(&rng, kFeMulInBound));
  }
  for (const Fe& a : inputs) {
    EXPECT_TRUE(SameResidue(FeInvert(a), RefInvert(ToRef(a))));
    EXPECT_TRUE(SameResidue(FePow22523(a), RefPow22523(ToRef(a))));
    EXPECT_TRUE(LimbsBelow(FeInvert(a), kFeReducedBound));
  }
}

TEST(FeDifferentialTest, BytesMatchReference) {
  DeterministicRng rng(106);
  // FromBytes: random encodings with and without the ignored top bit, and
  // every encoding in [p, 2^255) with both top-bit values.
  std::vector<std::array<uint8_t, 32>> encodings;
  for (int i = 0; i < kDiffIters; ++i) {
    std::array<uint8_t, 32> e;
    rng.FillBytes(e.data(), 32);
    encodings.push_back(e);
  }
  for (uint64_t k = 0; k < 19; ++k) {
    U256 v = FieldPrime();
    AddSmall(&v, v, k);
    std::array<uint8_t, 32> e;
    ScToBytes(e.data(), v);
    encodings.push_back(e);
    e[31] |= 0x80;
    encodings.push_back(e);
  }
  std::array<uint8_t, 32> ones;
  ones.fill(0xff);
  encodings.push_back(ones);
  for (const auto& e : encodings) {
    Fe f = FeFromBytes(e.data());
    RefFe r = RefFromBytes(e.data());
    ASSERT_TRUE(SameResidue(f, r)) << Hex32(e.data());
    ASSERT_TRUE(LimbsBelow(f, uint64_t{1} << 51));
    EXPECT_EQ(FeIsNegative(f), RefIsNegative(r));
    EXPECT_EQ(FeIsZero(f), RefIsZero(r));
  }
  // ToBytes / canonical predicates over loose limbs up to the widest bound.
  std::vector<Fe> inputs = EdgeInputs(kFeMulInBound);
  for (int i = 0; i < kDiffIters; ++i) {
    inputs.push_back(RandomFeBelow(&rng, kFeMulInBound));
  }
  for (const Fe& f : inputs) {
    RefFe r = ToRef(f);
    ASSERT_TRUE(SameResidue(f, r));
    EXPECT_EQ(FeIsNegative(f), RefIsNegative(r));
    EXPECT_EQ(FeIsZero(f), RefIsZero(r));
    Fe c = f;
    FeCanonicalize(&c);
    EXPECT_TRUE(LimbsBelow(c, uint64_t{1} << 51));
    EXPECT_LT(Cmp(CanonicalLimbsToU256(c), FieldPrime()), 0);
    EXPECT_TRUE(SameResidue(c, r));
  }
}

TEST(FeDifferentialTest, EqAgreesWithReferenceAcrossRepresentations) {
  // p + k and k are the same element; p + k and k + 1 are not.
  std::vector<Fe> above = AbovePrime();
  for (uint64_t k = 0; k < 19; ++k) {
    EXPECT_TRUE(FeEq(above[k], FeFromU64(k)));
    EXPECT_FALSE(FeEq(above[k], FeFromU64(k + 1)));
    EXPECT_EQ(FeIsZero(above[k]), k == 0);
  }
  // 2^255 + 2^255 spelled with an oversized top limb equals 38.
  Fe two256;
  two256.v[4] = (uint64_t{1} << 52);
  EXPECT_TRUE(FeEq(two256, FeFromU64(38)));
}

// The lazy chains ge25519.cpp builds, replayed with every input at the limb
// maximum a point coordinate or product may carry (reduced: < 2^52), against
// the same formulas in the reference field.
struct PointInputs {
  Fe x, y, z, t, q_a, q_b, q_c;
};

PointInputs MaxedInputs(uint64_t limb) {
  Fe m = AllLimbs(limb);
  return {m, m, m, m, m, m, m};
}

void CheckDoubleChain(const PointInputs& in) {
  // GeDouble: F = (Z^2 + Z^2) + (X^2 - Y^2) is the deepest carry-free sum.
  Fe a = FeSq(in.x), b = FeSq(in.y), zz = FeSq(in.z);
  Fe c = FeAdd(zz, zz);
  Fe h = FeAdd(a, b);
  Fe e = FeSub(h, FeSq(FeAdd(in.x, in.y)));
  Fe g = FeSub(a, b);
  Fe f = FeAdd(c, g);
  ASSERT_TRUE(LimbsBelow(c, kFeAddInBound));
  ASSERT_TRUE(LimbsBelow(f, kFeMulInBound));
  RefFe rx = ToRef(in.x), ry = ToRef(in.y), rz = ToRef(in.z);
  RefFe ra = RefSq(rx), rb = RefSq(ry), rzz = RefSq(rz);
  RefFe rh = RefAdd(ra, rb);
  RefFe re = RefSub(rh, RefSq(RefAdd(rx, ry)));
  RefFe rg = RefSub(ra, rb);
  RefFe rf = RefAdd(RefAdd(rzz, rzz), rg);
  EXPECT_TRUE(SameResidue(FeMul(e, f), RefMul(re, rf)));
  EXPECT_TRUE(SameResidue(FeMul(g, h), RefMul(rg, rh)));
  EXPECT_TRUE(SameResidue(FeMul(e, h), RefMul(re, rh)));
  EXPECT_TRUE(SameResidue(FeMul(f, g), RefMul(rf, rg)));
}

void CheckAddChains(const PointInputs& in) {
  // GeAdd / GeAddCached / GeSubCached: sums of two reduced values into
  // FeMul, a stored Y+X, and G/H sums of products.
  Fe ypx = FeAdd(in.y, in.x);  // GeToCached's YplusX, stored.
  Fe ymx = FeSub(in.y, in.x);
  Fe a = FeMul(ymx, in.q_a);
  Fe b = FeMul(ypx, FeAdd(in.q_b, in.q_a));
  Fe c = FeMul(FeMul(in.t, FeAdd(in.q_c, in.q_c)), in.q_c);  // T * 2d * T'.
  Fe d = FeMul(FeAdd(in.z, in.z), in.q_b);
  Fe e = FeSub(b, a), f = FeSub(d, c), g = FeAdd(d, c), h = FeAdd(b, a);
  RefFe rx = ToRef(in.x), ry = ToRef(in.y), rz = ToRef(in.z), rt = ToRef(in.t);
  RefFe rqa = ToRef(in.q_a), rqb = ToRef(in.q_b), rqc = ToRef(in.q_c);
  RefFe ra = RefMul(RefSub(ry, rx), rqa);
  RefFe rb = RefMul(RefAdd(ry, rx), RefAdd(rqb, rqa));
  RefFe rc = RefMul(RefMul(rt, RefAdd(rqc, rqc)), rqc);
  RefFe rd = RefMul(RefAdd(rz, rz), rqb);
  RefFe re = RefSub(rb, ra), rf = RefSub(rd, rc), rg = RefAdd(rd, rc), rh = RefAdd(rb, ra);
  EXPECT_TRUE(SameResidue(FeMul(e, f), RefMul(re, rf)));
  EXPECT_TRUE(SameResidue(FeMul(g, h), RefMul(rg, rh)));
  EXPECT_TRUE(SameResidue(FeMul(e, h), RefMul(re, rh)));
  EXPECT_TRUE(SameResidue(FeMul(f, g), RefMul(rf, rg)));
  // GeAddPrecomp: D = Z + Z, then G = D + C and F = D - C.
  Fe dp = FeAdd(in.z, in.z);
  Fe gp = FeAdd(dp, c), fp = FeSub(dp, c);
  ASSERT_TRUE(LimbsBelow(gp, kFeMulInBound));
  RefFe rdp = RefAdd(rz, rz);
  EXPECT_TRUE(SameResidue(FeMul(fp, gp), RefMul(RefSub(rdp, rc), RefAdd(rdp, rc))));
  // GeFromBytes: u = y^2 - 1, v = d y^2 + 1, -u.
  Fe y2 = FeSq(in.y);
  Fe u = FeSub(y2, FeOne());
  Fe v = FeAdd(FeMul(in.q_c, y2), FeOne());
  RefFe ry2 = RefSq(ry);
  RefFe ru = RefSub(ry2, RefFromU64(1));
  EXPECT_TRUE(SameResidue(FeMul(u, v), RefMul(ru, RefAdd(RefMul(rqc, ry2), RefFromU64(1)))));
  EXPECT_TRUE(SameResidue(FeNeg(u), RefNeg(ru)));
}

TEST(FeDifferentialTest, CurveChainsAtLimbMaximaMatchReference) {
  for (uint64_t limb : {kFeReducedBound - 1, kFeLimbMask, uint64_t{1} << 51,
                        (uint64_t{1} << 51) + (uint64_t{1} << 13)}) {
    SCOPED_TRACE(limb);
    CheckDoubleChain(MaxedInputs(limb));
    CheckAddChains(MaxedInputs(limb));
  }
  DeterministicRng rng(107);
  for (int i = 0; i < 300; ++i) {
    PointInputs in;
    for (Fe* f : {&in.x, &in.y, &in.z, &in.t, &in.q_a, &in.q_b, &in.q_c}) {
      *f = RandomFeBelow(&rng, kFeReducedBound);
    }
    CheckDoubleChain(in);
    CheckAddChains(in);
  }
}

TEST(FeDifferentialTest, SqrtM1MatchesReference) {
  U256 e = FieldPrime();
  U256 one{1, 0, 0, 0};
  Sub(&e, e, one);
  Shr1(&e);
  Shr1(&e);
  EXPECT_TRUE(SameResidue(FeSqrtM1(), RefPow(RefFromU64(2), e)));
}

}  // namespace
}  // namespace internal
}  // namespace algorand
