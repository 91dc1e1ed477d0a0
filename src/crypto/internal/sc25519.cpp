#include "src/crypto/internal/sc25519.h"

namespace algorand {
namespace internal {

const U256& ScOrder() {
  static const U256 kL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL};
  return kL;
}

U256 ScFromBytes(const uint8_t in[32]) {
  U256 r{};
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int j = 7; j >= 0; --j) {
      limb = (limb << 8) | in[8 * i + j];
    }
    r[static_cast<size_t>(i)] = limb;
  }
  return r;
}

void ScToBytes(uint8_t out[32], const U256& s) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(s[static_cast<size_t>(i)] >> (8 * j));
    }
  }
}

void ScReduce64(uint8_t out[32], const uint8_t in[64]) {
  U512 n{};
  for (int i = 0; i < 8; ++i) {
    uint64_t limb = 0;
    for (int j = 7; j >= 0; --j) {
      limb = (limb << 8) | in[8 * i + j];
    }
    n[static_cast<size_t>(i)] = limb;
  }
  U256 r = Mod512(n, ScOrder());
  ScToBytes(out, r);
}

void ScMulAdd(uint8_t out[32], const uint8_t a[32], const uint8_t b[32], const uint8_t c[32]) {
  U256 ua = ScFromBytes(a);
  U256 ub = ScFromBytes(b);
  U256 uc = ScFromBytes(c);
  U512 prod = MulWide(ua, ub);
  // prod += c (c < 2^256, so it only touches the low limbs plus carries).
  unsigned __int128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    unsigned __int128 add = (i < 4) ? uc[static_cast<size_t>(i)] : 0;
    unsigned __int128 cur =
        static_cast<unsigned __int128>(prod[static_cast<size_t>(i)]) + add + carry;
    prod[static_cast<size_t>(i)] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  // a*b + c < 2^512 + 2^256, and carry out of the top limb is impossible:
  // (2^256-1)^2 + (2^256-1) = 2^512 - 2^256 < 2^512.
  U256 r = Mod512(prod, ScOrder());
  ScToBytes(out, r);
}

bool ScIsCanonical(const uint8_t s[32]) { return Cmp(ScFromBytes(s), ScOrder()) < 0; }

int ScWNaf(int8_t out[kWNafMaxDigits], const uint8_t s[32], int width) {
  // Work on the bit expansion; a window whose value exceeds 2^(width-1) is
  // replaced by its (odd, negative) complement and a borrow carried upward.
  // The carry can ripple through runs of set bits, but never past index 256.
  int8_t bits[kWNafMaxDigits + 8] = {0};
  for (int i = 0; i < 256; ++i) {
    bits[i] = static_cast<int8_t>((s[i / 8] >> (i % 8)) & 1);
  }
  for (int i = 0; i < kWNafMaxDigits; ++i) {
    out[i] = 0;
  }
  const int full = 1 << width;
  const int half = full >> 1;
  int len = 0;
  for (int i = 0; i < kWNafMaxDigits;) {
    if (bits[i] == 0) {
      ++i;
      continue;
    }
    int window = 0;
    for (int j = 0; j < width; ++j) {
      window |= bits[i + j] << j;
    }
    for (int j = 0; j < width; ++j) {
      bits[i + j] = 0;
    }
    int digit = window;
    if (digit >= half) {
      digit -= full;
      // Borrow: add 1 at position i + width, rippling over set bits.
      int k = i + width;
      while (bits[k] == 1) {
        bits[k] = 0;
        ++k;
      }
      bits[k] = 1;
    }
    out[i] = static_cast<int8_t>(digit);
    len = i + 1;
    i += width;
  }
  return len;
}

void ScRadix16(int8_t out[64], const uint8_t s[32]) {
  for (int i = 0; i < 32; ++i) {
    out[2 * i] = static_cast<int8_t>(s[i] & 15);
    out[2 * i + 1] = static_cast<int8_t>(s[i] >> 4);
  }
  // Recenter each digit from [0, 15] to [-8, 7], carrying into the next.
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    out[i] = static_cast<int8_t>(out[i] + carry);
    carry = static_cast<int8_t>((out[i] + 8) >> 4);
    out[i] = static_cast<int8_t>(out[i] - (carry << 4));
  }
  out[63] = static_cast<int8_t>(out[63] + carry);
}

}  // namespace internal
}  // namespace algorand
