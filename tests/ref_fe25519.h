// Reference field arithmetic modulo p = 2^255 - 19, for differential tests.
//
// This is the packed-U256 field that src/crypto/internal/fe25519 used before
// the radix-2^51 representation: a 256-bit value kept < 2^256 between
// operations, reduced with 2^256 = 38 (mod p) and canonicalized only when
// serialized or compared. It stays here, outside src/, as the oracle the
// production field is checked against.
#ifndef ALGORAND_TESTS_REF_FE25519_H_
#define ALGORAND_TESTS_REF_FE25519_H_

#include <cstdint>

#include "src/crypto/internal/u256.h"

namespace algorand {
namespace internal {

struct RefFe {
  U256 v{};
};

namespace ref_detail {

using u128 = unsigned __int128;

// Folds `carry` (value carried out past 2^256) back in using 2^256 = 38 mod p.
inline void FoldCarry(U256* v, uint64_t carry) {
  while (carry != 0) {
    u128 c = static_cast<u128>(carry) * 38;
    U256 add{static_cast<uint64_t>(c), static_cast<uint64_t>(c >> 64), 0, 0};
    carry = Add(v, *v, add);
  }
}

inline const U256& Prime() {
  static const U256 kP = {0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                          0x7fffffffffffffffULL};
  return kP;
}

}  // namespace ref_detail

inline RefFe RefFromU64(uint64_t x) { return RefFe{{x, 0, 0, 0}}; }

inline RefFe RefAdd(const RefFe& a, const RefFe& b) {
  RefFe r;
  uint64_t carry = Add(&r.v, a.v, b.v);
  ref_detail::FoldCarry(&r.v, carry);
  return r;
}

inline RefFe RefSub(const RefFe& a, const RefFe& b) {
  // a - b (mod p): compute the 2^256 wraparound, then correct by 38 per wrap.
  RefFe r;
  uint64_t borrow = Sub(&r.v, a.v, b.v);
  while (borrow != 0) {
    U256 thirty_eight{38, 0, 0, 0};
    borrow = Sub(&r.v, r.v, thirty_eight);
  }
  return r;
}

inline RefFe RefMul(const RefFe& a, const RefFe& b) {
  // 512-bit product, then r = lo + 38 * hi with the carry folded again.
  U512 w = MulWide(a.v, b.v);
  RefFe r;
  ref_detail::u128 s = 0;
  for (size_t i = 0; i < 4; ++i) {
    s = static_cast<ref_detail::u128>(w[i]) + static_cast<ref_detail::u128>(w[i + 4]) * 38 +
        static_cast<uint64_t>(s >> 64);
    r.v[i] = static_cast<uint64_t>(s);
  }
  ref_detail::FoldCarry(&r.v, static_cast<uint64_t>(s >> 64));
  return r;
}

inline RefFe RefSq(const RefFe& a) { return RefMul(a, a); }

inline RefFe RefNeg(const RefFe& a) { return RefSub(RefFe{}, a); }

inline RefFe RefPow(const RefFe& a, const U256& e) {
  RefFe result = RefFromU64(1);
  RefFe base = a;
  for (int i = 0; i < 256; ++i) {
    if (Bit(e, i)) {
      result = RefMul(result, base);
    }
    base = RefSq(base);
  }
  return result;
}

// a^(p-2) and a^(2^252-3) through the generic ladder: the oracle for the
// production addition chains.
inline RefFe RefInvert(const RefFe& a) {
  U256 e = ref_detail::Prime();
  U256 two{2, 0, 0, 0};
  Sub(&e, e, two);
  return RefPow(a, e);
}

inline RefFe RefPow22523(const RefFe& a) {
  const U256 e{0xFFFFFFFFFFFFFFFDULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
               0x0FFFFFFFFFFFFFFFULL};
  return RefPow(a, e);
}

inline void RefCanonicalize(RefFe* a) {
  // v < 2^256 and 2^256 < 4p, so at most 3 subtractions.
  while (Cmp(a->v, ref_detail::Prime()) >= 0) {
    Sub(&a->v, a->v, ref_detail::Prime());
  }
}

inline bool RefEq(const RefFe& a, const RefFe& b) {
  RefFe x = a, y = b;
  RefCanonicalize(&x);
  RefCanonicalize(&y);
  return Cmp(x.v, y.v) == 0;
}

inline bool RefIsZero(const RefFe& a) {
  RefFe x = a;
  RefCanonicalize(&x);
  return IsZero(x.v);
}

inline int RefIsNegative(const RefFe& a) {
  RefFe x = a;
  RefCanonicalize(&x);
  return static_cast<int>(x.v[0] & 1);
}

inline void RefToBytes(uint8_t out[32], const RefFe& a) {
  RefFe x = a;
  RefCanonicalize(&x);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(x.v[i] >> (8 * j));
    }
  }
}

inline RefFe RefFromBytes(const uint8_t in[32]) {
  RefFe r;
  for (size_t i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int j = 7; j >= 0; --j) {
      limb = (limb << 8) | in[8 * i + static_cast<size_t>(j)];
    }
    r.v[i] = limb;
  }
  r.v[3] &= 0x7fffffffffffffffULL;  // Clear the sign bit.
  return r;
}

}  // namespace internal
}  // namespace algorand

#endif  // ALGORAND_TESTS_REF_FE25519_H_
