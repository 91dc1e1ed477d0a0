#include "src/crypto/internal/fe25519.h"

namespace algorand {
namespace internal {

const U256& FieldPrime() {
  static const U256 kP = {0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                          0x7fffffffffffffffULL};
  return kP;
}

Fe FePow(const Fe& a, const U256& e) {
  Fe result = FeOne();
  Fe base = a;
  for (int i = 0; i < 256; ++i) {
    if (Bit(e, i)) {
      result = FeMul(result, base);
    }
    base = FeSq(base);
  }
  return result;
}

namespace {

// a^(2^n), n repeated squarings.
Fe FeSqN(Fe a, int n) {
  for (int i = 0; i < n; ++i) {
    a = FeSq(a);
  }
  return a;
}

// The shared prefix of the inversion and decompression chains: returns
// (a^(2^250 - 1), a^11). Classic curve25519 ladder: build a^(2^k - 1) for
// k = 5, 10, 20, 40, 50, 100, 200, 250 by square-and-merge.
struct ChainPrefix {
  Fe t250;  // a^(2^250 - 1)
  Fe t11;   // a^11
};

ChainPrefix FeChain250(const Fe& a) {
  Fe a2 = FeSq(a);                      // a^2
  Fe a9 = FeMul(FeSqN(a2, 2), a);       // a^9
  Fe a11 = FeMul(a9, a2);               // a^11
  Fe t5 = FeMul(FeSq(a11), a9);         // a^31 = a^(2^5 - 1)
  Fe t10 = FeMul(FeSqN(t5, 5), t5);     // a^(2^10 - 1)
  Fe t20 = FeMul(FeSqN(t10, 10), t10);  // a^(2^20 - 1)
  Fe t40 = FeMul(FeSqN(t20, 20), t20);  // a^(2^40 - 1)
  Fe t50 = FeMul(FeSqN(t40, 10), t10);  // a^(2^50 - 1)
  Fe t100 = FeMul(FeSqN(t50, 50), t50);    // a^(2^100 - 1)
  Fe t200 = FeMul(FeSqN(t100, 100), t100);  // a^(2^200 - 1)
  Fe t250 = FeMul(FeSqN(t200, 50), t50);    // a^(2^250 - 1)
  return {t250, a11};
}

// One carry pass: every limb ends < 2^51 except limb 0, which takes 19 times
// the carry out of limb 4.
void CarryPass(uint64_t t[5]) {
  t[1] += t[0] >> 51;
  t[0] &= kFeLimbMask;
  t[2] += t[1] >> 51;
  t[1] &= kFeLimbMask;
  t[3] += t[2] >> 51;
  t[2] &= kFeLimbMask;
  t[4] += t[3] >> 51;
  t[3] &= kFeLimbMask;
  t[0] += 19 * (t[4] >> 51);
  t[4] &= kFeLimbMask;
}

}  // namespace

Fe FeInvert(const Fe& a) {
  // a^(p-2) by Fermat; p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  ChainPrefix c = FeChain250(a);
  return FeMul(FeSqN(c.t250, 5), c.t11);
}

Fe FePow22523(const Fe& a) {
  // 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  ChainPrefix c = FeChain250(a);
  return FeMul(FeSqN(c.t250, 2), a);
}

void FeCanonicalize(Fe* a) {
  uint64_t* t = a->v;
  // Limbs below 2^54 carry at most 8 out of limb 4, so one pass leaves limbs
  // 1..4 < 2^51, limb 0 < 2^51 + 152, and a value h < 2^255 + 152 < 2p.
  CarryPass(t);
  // h >= p exactly when h + 19 carries out of 2^255: compute h + 19, then
  // add 2^255 - 19 more and drop bit 255, which leaves h + 19 - 19 = h when
  // there was no carry and h - p when there was.
  t[0] += 19;
  CarryPass(t);
  t[0] += (uint64_t{1} << 51) - 19;
  t[1] += (uint64_t{1} << 51) - 1;
  t[2] += (uint64_t{1} << 51) - 1;
  t[3] += (uint64_t{1} << 51) - 1;
  t[4] += (uint64_t{1} << 51) - 1;
  t[1] += t[0] >> 51;
  t[0] &= kFeLimbMask;
  t[2] += t[1] >> 51;
  t[1] &= kFeLimbMask;
  t[3] += t[2] >> 51;
  t[2] &= kFeLimbMask;
  t[4] += t[3] >> 51;
  t[3] &= kFeLimbMask;
  t[4] &= kFeLimbMask;
}

bool FeEq(const Fe& a, const Fe& b) {
  Fe x = a, y = b;
  FeCanonicalize(&x);
  FeCanonicalize(&y);
  return ((x.v[0] ^ y.v[0]) | (x.v[1] ^ y.v[1]) | (x.v[2] ^ y.v[2]) | (x.v[3] ^ y.v[3]) |
          (x.v[4] ^ y.v[4])) == 0;
}

bool FeIsZero(const Fe& a) {
  Fe x = a;
  FeCanonicalize(&x);
  return (x.v[0] | x.v[1] | x.v[2] | x.v[3] | x.v[4]) == 0;
}

int FeIsNegative(const Fe& a) {
  Fe x = a;
  FeCanonicalize(&x);
  return static_cast<int>(x.v[0] & 1);
}

void FeToBytes(uint8_t out[32], const Fe& a) {
  Fe x = a;
  FeCanonicalize(&x);
  // Pack the 255 bits into four 64-bit words, then store little-endian.
  const uint64_t words[4] = {x.v[0] | (x.v[1] << 51), (x.v[1] >> 13) | (x.v[2] << 38),
                             (x.v[2] >> 26) | (x.v[3] << 25), (x.v[3] >> 39) | (x.v[4] << 12)};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(words[i] >> (8 * j));
    }
  }
}

Fe FeFromBytes(const uint8_t in[32]) {
  uint64_t words[4];
  for (int i = 0; i < 4; ++i) {
    uint64_t w = 0;
    for (int j = 7; j >= 0; --j) {
      w = (w << 8) | in[8 * i + j];
    }
    words[i] = w;
  }
  // Bit 255 (the sign bit) falls off the top of limb 4.
  return Fe{{words[0] & kFeLimbMask, ((words[0] >> 51) | (words[1] << 13)) & kFeLimbMask,
             ((words[1] >> 38) | (words[2] << 26)) & kFeLimbMask,
             ((words[2] >> 25) | (words[3] << 39)) & kFeLimbMask, (words[3] >> 12) & kFeLimbMask}};
}

const Fe& FeSqrtM1() {
  static const Fe kSqrtM1 = [] {
    // 2^((p-1)/4) is a square root of -1 because 2 is a non-square mod p.
    U256 e = FieldPrime();
    U256 one{1, 0, 0, 0};
    Sub(&e, e, one);
    Shr1(&e);
    Shr1(&e);
    return FePow(FeFromU64(2), e);
  }();
  return kSqrtM1;
}

}  // namespace internal
}  // namespace algorand
