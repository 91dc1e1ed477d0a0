// Edwards curve group operations for edwards25519:
//   -x^2 + y^2 = 1 + d x^2 y^2  over GF(2^255 - 19),
// in extended homogeneous coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z,
// xy = T/Z.
//
// d and the standard base point are derived at startup (d = -121665/121666,
// base point y = 4/5 with even x) rather than transcribed, to remove a class
// of constant-entry mistakes.
#ifndef ALGORAND_SRC_CRYPTO_INTERNAL_GE25519_H_
#define ALGORAND_SRC_CRYPTO_INTERNAL_GE25519_H_

#include <cstdint>
#include <optional>

#include "src/crypto/internal/fe25519.h"

namespace algorand {
namespace internal {

struct GePoint {
  Fe X, Y, Z, T;
};

// The neutral element (0, 1).
GePoint GeIdentity();

// The standard base point B (y = 4/5, x even).
const GePoint& GeBasePoint();

// The curve constant d, and 2d used by the addition formulas.
const Fe& GeConstD();

// Complete point addition / subtraction / doubling.
GePoint GeAdd(const GePoint& p, const GePoint& q);
GePoint GeSub(const GePoint& p, const GePoint& q);
GePoint GeDouble(const GePoint& p);
GePoint GeNeg(const GePoint& p);

// A point preprocessed for repeated addition: the sums/differences and the
// 2d-scaled T that GeAdd would otherwise recompute per call (Hisil et al.
// "cached" form). Saves one field multiply and two adds per addition.
struct GeCached {
  Fe YplusX, YminusX, Z, T2d;
};
GeCached GeToCached(const GePoint& p);
GePoint GeAddCached(const GePoint& p, const GeCached& q);
GePoint GeSubCached(const GePoint& p, const GeCached& q);

// A point in affine form (Z == 1), stored as y+x, y-x and 2d*x*y. Adding
// one to an extended point skips the Z multiplication (7 multiplies).
struct GePrecomp {
  Fe YplusX, YminusX, XY2d;
};

// Fixed-base table of a point P (ref10's layout, Bernstein et al. 2012):
//   entry[j][k] = (k + 1) * 256^j * P,   j in [0, 32), k in [0, 8),
// all 256 multiples in affine GePrecomp form (~30 KB). Scalar digit i of
// the signed radix-16 expansion (ScRadix16) weighs 16^i = 16^(i%2) * 256^(i/2)
// and has |digit| <= 8, so row i/2 serves it: the odd-position digits are
// summed first, the sum is multiplied by 16 (four doublings), and the
// even-position digits are added. Any 32-byte scalar is accepted: only the
// top digit can exceed 8 (up to 16, for scalars >= 2^255), and it is then
// added as 8 plus the rest, one more mixed addition.
struct GeFixedBaseTable {
  GePrecomp entry[32][8];
};

// Builds the table of p: 224 additions and 155 doublings in extended
// coordinates, then one batched inversion (Montgomery's trick) of all 256 Z
// coordinates.
void GeBuildFixedBaseTable(const GePoint& p, GeFixedBaseTable* out);

// scalar * point, scalar given as 32 little-endian bytes. Variable time.
// The textbook MSB-first double-and-add ladder, kept as the reference
// implementation the windowed paths are cross-checked against.
GePoint GeScalarMult(const uint8_t scalar[32], const GePoint& p);

// scalar * B for the standard base point, over a static fixed-base table of
// B: at most 65 mixed additions and 4 doublings. Signing, key generation
// and VRF proving; variable time like everything here.
GePoint GeScalarMultBase(const uint8_t scalar[32]);

// --- Verification fast paths (variable time, public inputs only) ---
//
// [a]A + [b]B for the standard base point B (Straus/Shamir interleaving):
// one shared doubling chain, w-NAF(5) digits of `a` against the per-call
// table of odd multiples {1,3,...,15}*A, w-NAF(7) digits of `b` against a
// static affine table of odd base-point multiples. The workhorse of Ed25519
// and ECVRF verification.
GePoint GeDoubleScalarMultVartime(const uint8_t a[32], const GePoint& A, const uint8_t b[32]);

// [a]P + [b]B from P's fixed-base table and the static table of B: the
// odd-position radix-16 digits of both scalars, four doublings, then the
// even-position digits; about 120 mixed additions and no doubling chain.
// Verification against a prepared Ed25519 public key.
GePoint GeDoubleScalarMultFixed(const uint8_t a[32], const GeFixedBaseTable& p_table,
                                const uint8_t b[32]);

// [a]A + [b]B for two arbitrary points (ECVRF's V = [s]H - [c]Gamma with
// B = -Gamma): same interleaving, both tables built per call.
GePoint GeTwoScalarMultVartime(const uint8_t a[32], const GePoint& A, const uint8_t b[32],
                               const GePoint& B);

// Multiplies by the cofactor 8 (three doublings).
GePoint GeMulByCofactor(const GePoint& p);

bool GeIsIdentity(const GePoint& p);
// Projective equality: same affine point.
bool GeEq(const GePoint& p, const GePoint& q);

// RFC 8032 point compression: 32 bytes, y with the sign of x in the top bit.
void GeToBytes(uint8_t out[32], const GePoint& p);
// Decompression; rejects non-curve encodings. Accepts non-canonical y
// values only if they decode to a curve point (matching common practice).
std::optional<GePoint> GeFromBytes(const uint8_t in[32]);

}  // namespace internal
}  // namespace algorand

#endif  // ALGORAND_SRC_CRYPTO_INTERNAL_GE25519_H_
