// Field arithmetic modulo p = 2^255 - 19.
//
// Representation: five unsigned 64-bit limbs in radix 2^51,
//   value = v[0] + v[1]*2^51 + v[2]*2^102 + v[3]*2^153 + v[4]*2^204,
// the representation of Bernstein et al., "High-speed high-security
// signatures" (2012). Elements are kept only weakly reduced between
// operations: a limb may exceed 51 bits, and the value may be any
// representative of its residue class. Reduction folds the carry out of the
// top limb back into the bottom one with 2^255 = 19 (mod p). Only FeToBytes,
// FeEq, FeIsZero, FeIsNegative and FeCanonicalize compute the canonical
// representative in [0, p).
//
// Limb-bound contract. "Reduced" means every limb < 2^52 (kFeReducedBound).
// - FeMul, FeSq:        inputs < 2^54 per limb; output reduced (in fact
//                       every limb < 2^51 + 2^13).
// - FeAdd:              inputs < 2^53 per limb; output < 2^54 per limb. It
//                       does no carrying, so its output is a valid FeMul/FeSq
//                       input or FeSub minuend but not a FeAdd input or FeSub
//                       subtrahend — except that the sum of two reduced
//                       elements is < 2^53 and may be added once more.
// - FeSub(a, b):        a < 2^54, b < 2^53 per limb; output reduced. FeNeg
//                       is FeSub(0, a).
// - Everything else (constants, FeFromU64, FeFromBytes, FeInvert, FePow*)
//                       returns reduced elements; every function that takes
//                       an element accepts the FeMul input bound.
//
// Every add/sub chain in ge25519.cpp stays inside the contract. Point
// coordinates (X, Y, Z, T) are always reduced: they come from FeMul,
// FeFromBytes, FeNeg or the constants. The deepest chains are
//   GeDouble:            F = FeAdd(FeAdd(Z^2, Z^2), G)   < 2^53 + 2^52 into FeMul
//   GeAdd/GeAddCached:   G, H = FeAdd(reduced, reduced)  < 2^53 into FeMul
//   GeAddPrecomp:        D = FeAdd(Z, Z); G = FeAdd(D, C) < 2^54 into FeMul
//   GeToCached/ToPrecomp: Y+X = FeAdd(Y, X)              < 2^53, stored, into FeMul
//   GeConst2D:           FeAdd(d, d)                      < 2^53, into FeMul
// and every FeSub subtrahend is reduced (an FeMul/FeSq/FeSub output or a
// point coordinate). tests/crypto_field_test.cpp replays each of these chains
// at the limb maxima against the reference field.
//
// These routines are variable-time. That is acceptable for this research
// reproduction (documented in README): the simulator's security analysis does
// not model local side channels.
#ifndef ALGORAND_SRC_CRYPTO_INTERNAL_FE25519_H_
#define ALGORAND_SRC_CRYPTO_INTERNAL_FE25519_H_

#include <cstdint>

#include "src/crypto/internal/u256.h"

namespace algorand {
namespace internal {

struct Fe {
  uint64_t v[5]{};
};

inline constexpr uint64_t kFeLimbMask = (uint64_t{1} << 51) - 1;
inline constexpr uint64_t kFeReducedBound = uint64_t{1} << 52;
inline constexpr uint64_t kFeAddInBound = uint64_t{1} << 53;
inline constexpr uint64_t kFeSubInBound = uint64_t{1} << 53;  // Subtrahend.
inline constexpr uint64_t kFeMulInBound = uint64_t{1} << 54;

namespace fe_detail {

using u128 = unsigned __int128;

// 8p in radix 2^51: FeSub adds it so no limb of a - b goes negative for a
// subtrahend below kFeSubInBound.
inline constexpr uint64_t kEightP0 = (uint64_t{1} << 54) - 152;  // 8 * (2^51 - 19)
inline constexpr uint64_t kEightPi = (uint64_t{1} << 54) - 8;    // 8 * (2^51 - 1)

// The headroom the contract relies on, checked at compile time.
static_assert(2 * (kFeAddInBound - 1) < kFeMulInBound, "FeAdd output must be a FeMul input");
static_assert(2 * (kFeReducedBound - 1) < kFeAddInBound, "reduced + reduced may be added again");
static_assert(kEightP0 >= kFeSubInBound && kEightPi >= kFeSubInBound, "FeSub bias too small");
static_assert(kFeMulInBound - 1 + kEightPi < (uint64_t{1} << 63), "FeSub minuend overflows");
// FeMul/FeSq: 19 * b fits in a limb, each column (at most 1 + 4*19 products)
// fits in 128 bits, and 19 times the carry out of the top column fits in 64.
static_assert(19 * (kFeMulInBound - 1) < (uint64_t{1} << 59), "19*b overflows a limb");
static_assert(u128{77} * (kFeMulInBound - 1) * (kFeMulInBound - 1) < (u128{1} << 115),
              "FeMul column overflows");
inline constexpr u128 kMaxTopColumn =  // Five products plus the carry in.
    u128{5} * (kFeMulInBound - 1) * (kFeMulInBound - 1) + (u128{1} << 64);
static_assert(19 * (kMaxTopColumn >> 51) + kFeLimbMask < (u128{1} << 64),
              "FeMul top carry overflows");

// Carries five 128-bit column sums down to 51-bit limbs, folding the carry
// out of the top limb back into limb 0 with 2^255 = 19.
inline Fe CarryWide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  r1 += static_cast<uint64_t>(r0 >> 51);
  r2 += static_cast<uint64_t>(r1 >> 51);
  r3 += static_cast<uint64_t>(r2 >> 51);
  r4 += static_cast<uint64_t>(r3 >> 51);
  Fe out;
  uint64_t l0 = (static_cast<uint64_t>(r0) & kFeLimbMask) + 19 * static_cast<uint64_t>(r4 >> 51);
  out.v[1] = (static_cast<uint64_t>(r1) & kFeLimbMask) + (l0 >> 51);
  out.v[0] = l0 & kFeLimbMask;
  out.v[2] = static_cast<uint64_t>(r2) & kFeLimbMask;
  out.v[3] = static_cast<uint64_t>(r3) & kFeLimbMask;
  out.v[4] = static_cast<uint64_t>(r4) & kFeLimbMask;
  return out;
}

}  // namespace fe_detail

// p = 2^255 - 19, as an integer.
const U256& FieldPrime();

inline Fe FeZero() { return Fe{}; }
inline Fe FeOne() { return Fe{{1, 0, 0, 0, 0}}; }
inline Fe FeFromU64(uint64_t x) { return Fe{{x & kFeLimbMask, x >> 51, 0, 0, 0}}; }

// Carry-free limb-wise sum.
inline Fe FeAdd(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

// a + 8p - b, then one weak carry pass.
inline Fe FeSub(const Fe& a, const Fe& b) {
  using fe_detail::kEightP0;
  using fe_detail::kEightPi;
  uint64_t t0 = a.v[0] + kEightP0 - b.v[0];
  uint64_t t1 = a.v[1] + kEightPi - b.v[1];
  uint64_t t2 = a.v[2] + kEightPi - b.v[2];
  uint64_t t3 = a.v[3] + kEightPi - b.v[3];
  uint64_t t4 = a.v[4] + kEightPi - b.v[4];
  t1 += t0 >> 51;
  t2 += t1 >> 51;
  t3 += t2 >> 51;
  t4 += t3 >> 51;
  return Fe{{(t0 & kFeLimbMask) + 19 * (t4 >> 51), t1 & kFeLimbMask, t2 & kFeLimbMask,
             t3 & kFeLimbMask, t4 & kFeLimbMask}};
}

inline Fe FeNeg(const Fe& a) { return FeSub(FeZero(), a); }

// 25-product schoolbook; the products that land at 2^255 and above are
// folded back by multiplying the b limb by 19 up front.
inline Fe FeMul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;
  u128 r0 = u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 + u128{a3} * b2_19 +
            u128{a4} * b1_19;
  u128 r1 = u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 + u128{a3} * b3_19 +
            u128{a4} * b2_19;
  u128 r2 =
      u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 + u128{a3} * b4_19 + u128{a4} * b3_19;
  u128 r3 = u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 + u128{a3} * b0 + u128{a4} * b4_19;
  u128 r4 = u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 + u128{a3} * b1 + u128{a4} * b0;
  return fe_detail::CarryWide(r0, r1, r2, r3, r4);
}

// 15-product square: each cross product is computed once and doubled.
inline Fe FeSq(const Fe& a) {
  using fe_detail::u128;
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  u128 r0 = u128{a0} * a0 + u128{d1} * a4_19 + u128{d2} * a3_19;
  u128 r1 = u128{d0} * a1 + u128{d2} * a4_19 + u128{a3} * a3_19;
  u128 r2 = u128{d0} * a2 + u128{a1} * a1 + u128{d3} * a4_19;
  u128 r3 = u128{d0} * a3 + u128{d1} * a2 + u128{a4} * a4_19;
  u128 r4 = u128{d0} * a4 + u128{d1} * a3 + u128{a2} * a2;
  return fe_detail::CarryWide(r0, r1, r2, r3, r4);
}

// a^e (mod p), e an arbitrary 256-bit exponent. Variable time.
Fe FePow(const Fe& a, const U256& e);

// a^(2^252 - 3): the fixed exponent of RFC 8032 point decompression
// (x = uv^3 * (uv^7)^(2^252-3)), via an addition chain (~254 squarings +
// 11 multiplies instead of ~250 multiplies through the generic FePow).
Fe FePow22523(const Fe& a);

// Multiplicative inverse; FeInvert(0) == 0. Addition chain for a^(p-2).
Fe FeInvert(const Fe& a);

// Reduces to the canonical representative in [0, p): every limb < 2^51.
void FeCanonicalize(Fe* a);

bool FeEq(const Fe& a, const Fe& b);
bool FeIsZero(const Fe& a);
// Least significant bit of the canonical representative ("sign" in RFC 8032).
int FeIsNegative(const Fe& a);

// Little-endian 32-byte encoding of the canonical representative.
void FeToBytes(uint8_t out[32], const Fe& a);
// Interprets 32 little-endian bytes, ignoring the top bit (RFC 8032 style).
// Values in [p, 2^255) are kept as they are (reduced, not canonical).
Fe FeFromBytes(const uint8_t in[32]);

// sqrt(-1) mod p, computed once as 2^((p-1)/4).
const Fe& FeSqrtM1();

}  // namespace internal
}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_INTERNAL_FE25519_H_
