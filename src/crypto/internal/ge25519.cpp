#include "src/crypto/internal/ge25519.h"

#include <algorithm>
#include <vector>

#include "src/crypto/internal/sc25519.h"

namespace algorand {
namespace internal {
namespace {

const Fe& GeConst2D() {
  static const Fe k2D = [] {
    Fe d = GeConstD();
    return FeAdd(d, d);
  }();
  return k2D;
}

}  // namespace

const Fe& GeConstD() {
  static const Fe kD = [] {
    // d = -121665/121666 mod p.
    Fe num = FeNeg(FeFromU64(121665));
    Fe den = FeFromU64(121666);
    return FeMul(num, FeInvert(den));
  }();
  return kD;
}

GePoint GeIdentity() {
  GePoint p;
  p.X = FeZero();
  p.Y = FeOne();
  p.Z = FeOne();
  p.T = FeZero();
  return p;
}

const GePoint& GeBasePoint() {
  static const GePoint kBase = [] {
    // y = 4/5, x even: the canonical encoding is y with sign bit 0.
    Fe y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
    uint8_t enc[32];
    FeToBytes(enc, y);  // Sign bit is already 0.
    auto p = GeFromBytes(enc);
    // The base point always decodes; dereference is safe.
    return *p;
  }();
  return kBase;
}

GePoint GeAdd(const GePoint& p, const GePoint& q) {
  // add-2008-hwcd-3 (a = -1), complete.
  Fe a = FeMul(FeSub(p.Y, p.X), FeSub(q.Y, q.X));
  Fe b = FeMul(FeAdd(p.Y, p.X), FeAdd(q.Y, q.X));
  Fe c = FeMul(FeMul(p.T, GeConst2D()), q.T);
  Fe d = FeMul(FeAdd(p.Z, p.Z), q.Z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(d, c);
  Fe g = FeAdd(d, c);
  Fe h = FeAdd(b, a);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  r.T = FeMul(e, h);
  r.Z = FeMul(f, g);
  return r;
}

GePoint GeNeg(const GePoint& p) {
  GePoint r = p;
  r.X = FeNeg(p.X);
  r.T = FeNeg(p.T);
  return r;
}

GePoint GeSub(const GePoint& p, const GePoint& q) { return GeAdd(p, GeNeg(q)); }

GeCached GeToCached(const GePoint& p) {
  GeCached c;
  c.YplusX = FeAdd(p.Y, p.X);
  c.YminusX = FeSub(p.Y, p.X);
  c.Z = p.Z;
  c.T2d = FeMul(p.T, GeConst2D());
  return c;
}

GePoint GeAddCached(const GePoint& p, const GeCached& q) {
  // GeAdd with q's sums and 2d*T precomputed: 8 multiplies instead of 9.
  Fe a = FeMul(FeSub(p.Y, p.X), q.YminusX);
  Fe b = FeMul(FeAdd(p.Y, p.X), q.YplusX);
  Fe c = FeMul(p.T, q.T2d);
  Fe d = FeMul(FeAdd(p.Z, p.Z), q.Z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(d, c);
  Fe g = FeAdd(d, c);
  Fe h = FeAdd(b, a);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  r.T = FeMul(e, h);
  r.Z = FeMul(f, g);
  return r;
}

GePoint GeSubCached(const GePoint& p, const GeCached& q) {
  // Adding -q swaps q's Y±X and negates its T, so C changes sign and F/G swap.
  Fe a = FeMul(FeSub(p.Y, p.X), q.YplusX);
  Fe b = FeMul(FeAdd(p.Y, p.X), q.YminusX);
  Fe c = FeMul(p.T, q.T2d);
  Fe d = FeMul(FeAdd(p.Z, p.Z), q.Z);
  Fe e = FeSub(b, a);
  Fe f = FeAdd(d, c);
  Fe g = FeSub(d, c);
  Fe h = FeAdd(b, a);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  r.T = FeMul(e, h);
  r.Z = FeMul(f, g);
  return r;
}

namespace {

// dbl-2008-hwcd specialized to a = -1 (signs folded; see fe tests). Doubling
// never reads T, so a doubling whose result only feeds another doubling may
// skip the T = E*H product (ref10's p1p1 -> p2 conversion).
template <bool kWithT>
GePoint Double(const GePoint& p) {
  Fe a = FeSq(p.X);
  Fe b = FeSq(p.Y);
  Fe zz = FeSq(p.Z);
  Fe c = FeAdd(zz, zz);
  Fe h = FeAdd(a, b);
  Fe xy = FeAdd(p.X, p.Y);
  Fe e = FeSub(h, FeSq(xy));
  Fe g = FeSub(a, b);
  Fe f = FeAdd(c, g);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  if constexpr (kWithT) {
    r.T = FeMul(e, h);
  }
  r.Z = FeMul(f, g);
  return r;
}

}  // namespace

GePoint GeDouble(const GePoint& p) { return Double<true>(p); }

GePoint GeScalarMult(const uint8_t scalar[32], const GePoint& p) {
  GePoint r = GeIdentity();
  // MSB-first double-and-add, variable time.
  for (int i = 255; i >= 0; --i) {
    r = GeDouble(r);
    if ((scalar[i / 8] >> (i % 8)) & 1) {
      r = GeAdd(r, p);
    }
  }
  return r;
}

namespace {

// Table of the odd multiples {1, 3, 5, ..., 15} * p in cached form, for
// width-5 w-NAF evaluation. Costs one doubling plus seven additions.
struct OddTable {
  GeCached entry[8];
};

OddTable BuildOddTable(const GePoint& p) {
  OddTable table;
  GeCached twice = GeToCached(GeDouble(p));
  GePoint cur = p;
  table.entry[0] = GeToCached(cur);
  for (int i = 1; i < 8; ++i) {
    cur = GeAddCached(cur, twice);
    table.entry[i] = GeToCached(cur);
  }
  return table;
}

// Affine form of p given 1/Z.
GePrecomp ToPrecomp(const GePoint& p, const Fe& zinv) {
  Fe x = FeMul(p.X, zinv);
  Fe y = FeMul(p.Y, zinv);
  GePrecomp q;
  q.YplusX = FeAdd(y, x);
  q.YminusX = FeSub(y, x);
  q.XY2d = FeMul(FeMul(x, y), GeConst2D());
  return q;
}

GePoint GeAddPrecomp(const GePoint& p, const GePrecomp& q) {
  Fe a = FeMul(FeSub(p.Y, p.X), q.YminusX);
  Fe b = FeMul(FeAdd(p.Y, p.X), q.YplusX);
  Fe c = FeMul(p.T, q.XY2d);
  Fe d = FeAdd(p.Z, p.Z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(d, c);
  Fe g = FeAdd(d, c);
  Fe h = FeAdd(b, a);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  r.T = FeMul(e, h);
  r.Z = FeMul(f, g);
  return r;
}

GePoint GeSubPrecomp(const GePoint& p, const GePrecomp& q) {
  Fe a = FeMul(FeSub(p.Y, p.X), q.YplusX);
  Fe b = FeMul(FeAdd(p.Y, p.X), q.YminusX);
  Fe c = FeMul(p.T, q.XY2d);
  Fe d = FeAdd(p.Z, p.Z);
  Fe e = FeSub(b, a);
  Fe f = FeAdd(d, c);
  Fe g = FeSub(d, c);
  Fe h = FeAdd(b, a);
  GePoint r;
  r.X = FeMul(e, f);
  r.Y = FeMul(g, h);
  r.T = FeMul(e, h);
  r.Z = FeMul(f, g);
  return r;
}

// w-NAF window width for the static base-point table: odd multiples
// {1, 3, ..., 2^(kBaseWNafWidth-1) - 1} * B in affine form.
constexpr int kBaseWNafWidth = 7;
constexpr int kBaseWNafTableSize = 1 << (kBaseWNafWidth - 2);  // 32 entries.

struct BaseWNafTable {
  GePrecomp entry[kBaseWNafTableSize];
};

const BaseWNafTable& GetBaseWNafTable() {
  static const BaseWNafTable* kTable = [] {
    auto* table = new BaseWNafTable;
    GePoint twice = GeDouble(GeBasePoint());
    GePoint cur = GeBasePoint();
    table->entry[0] = ToPrecomp(cur, FeInvert(cur.Z));
    for (int i = 1; i < kBaseWNafTableSize; ++i) {
      cur = GeAdd(cur, twice);
      table->entry[i] = ToPrecomp(cur, FeInvert(cur.Z));
    }
    return table;
  }();
  return *kTable;
}

// Shared Straus/Shamir loop: one doubling chain, `naf_a` digits applied
// against `ta`, optional `naf_b` digits against either a cached table `tb`
// or the static base table (when `tb` is null). Digit d indexes entry
// (|d| - 1) / 2 == |d| >> 1 for odd d.
GePoint WNafEvaluate(const int8_t* naf_a, int len_a, const OddTable& ta, const int8_t* naf_b,
                     int len_b, const OddTable* tb) {
  const BaseWNafTable* base = tb == nullptr ? &GetBaseWNafTable() : nullptr;
  GePoint r = GeIdentity();
  for (int i = std::max(len_a, len_b) - 1; i >= 0; --i) {
    // T is needed only by an addition at this position or by the caller.
    const bool adds = (i < len_a && naf_a[i] != 0) || (i < len_b && naf_b[i] != 0);
    r = adds || i == 0 ? Double<true>(r) : Double<false>(r);
    if (i < len_a && naf_a[i] != 0) {
      r = naf_a[i] > 0 ? GeAddCached(r, ta.entry[naf_a[i] >> 1])
                       : GeSubCached(r, ta.entry[(-naf_a[i]) >> 1]);
    }
    if (i < len_b && naf_b[i] != 0) {
      if (base != nullptr) {
        r = naf_b[i] > 0 ? GeAddPrecomp(r, base->entry[naf_b[i] >> 1])
                         : GeSubPrecomp(r, base->entry[(-naf_b[i]) >> 1]);
      } else {
        r = naf_b[i] > 0 ? GeAddCached(r, tb->entry[naf_b[i] >> 1])
                         : GeSubCached(r, tb->entry[(-naf_b[i]) >> 1]);
      }
    }
  }
  return r;
}

// Adds digit * row[|digit| - 1] for a signed radix-16 digit in [-8, 16]; a
// top digit above 8 (scalars >= 2^255) goes in as 8 plus the rest.
GePoint AddDigit(GePoint r, int8_t digit, const GePrecomp row[8]) {
  if (digit > 8) {
    r = GeAddPrecomp(r, row[7]);
    digit = static_cast<int8_t>(digit - 8);
  }
  if (digit > 0) {
    return GeAddPrecomp(r, row[digit - 1]);
  }
  if (digit < 0) {
    return GeSubPrecomp(r, row[-digit - 1]);
  }
  return r;
}

// Sum of digits_a against table_a and, when table_b is non-null, digits_b
// against table_b (64 signed radix-16 digits each; layout in ge25519.h).
GePoint FixedBaseEvaluate(const int8_t digits_a[64], const GeFixedBaseTable& table_a,
                          const int8_t digits_b[64], const GeFixedBaseTable* table_b) {
  GePoint r = GeIdentity();
  for (int i = 1; i < 64; i += 2) {
    r = AddDigit(r, digits_a[i], table_a.entry[i / 2]);
    if (table_b != nullptr) {
      r = AddDigit(r, digits_b[i], table_b->entry[i / 2]);
    }
  }
  r = Double<true>(Double<false>(Double<false>(Double<false>(r))));
  for (int i = 0; i < 64; i += 2) {
    r = AddDigit(r, digits_a[i], table_a.entry[i / 2]);
    if (table_b != nullptr) {
      r = AddDigit(r, digits_b[i], table_b->entry[i / 2]);
    }
  }
  return r;
}

// In static storage, not on the heap: as a 30 KB heap block allocated at
// first use and never freed, it left a heap layout that cost payments-1m
// seed 7 ~5 MB of peak RSS (1009 vs 1003 MB).
const GeFixedBaseTable& BaseFixedTable() {
  static const GeFixedBaseTable kTable = [] {
    GeFixedBaseTable table;
    GeBuildFixedBaseTable(GeBasePoint(), &table);
    return table;
  }();
  return kTable;
}

}  // namespace

void GeBuildFixedBaseTable(const GePoint& p, GeFixedBaseTable* out) {
  constexpr int kRows = 32, kCols = 8;
  std::vector<GePoint> multiples(kRows * kCols);
  GePoint row_base = p;  // 256^j * p.
  for (int j = 0; j < kRows; ++j) {
    GePoint* row = &multiples[j * kCols];
    const GeCached step = GeToCached(row_base);
    row[0] = row_base;
    for (int k = 1; k < kCols; ++k) {
      row[k] = GeAddCached(row[k - 1], step);
    }
    if (j + 1 < kRows) {
      // 256 * row_base = 32 * row[7]: five doublings.
      GePoint next = row[kCols - 1];
      for (int d = 0; d < 4; ++d) {
        next = Double<false>(next);
      }
      row_base = Double<true>(next);
    }
  }
  // Montgomery's trick: one inversion of the product of every Z, then each
  // 1/Z from the running prefix products, walking back down.
  std::vector<Fe> prefix(multiples.size());
  Fe acc = FeOne();
  for (size_t i = 0; i < multiples.size(); ++i) {
    prefix[i] = acc;  // Z_0 * ... * Z_{i-1}.
    acc = FeMul(acc, multiples[i].Z);
  }
  Fe inv = FeInvert(acc);  // 1 / (Z_0 * ... * Z_i) at step i below.
  for (size_t i = multiples.size(); i-- > 0;) {
    out->entry[i / kCols][i % kCols] = ToPrecomp(multiples[i], FeMul(inv, prefix[i]));
    inv = FeMul(inv, multiples[i].Z);
  }
}

GePoint GeScalarMultBase(const uint8_t scalar[32]) {
  int8_t digits[64];
  ScRadix16(digits, scalar);
  return FixedBaseEvaluate(digits, BaseFixedTable(), nullptr, nullptr);
}

GePoint GeDoubleScalarMultFixed(const uint8_t a[32], const GeFixedBaseTable& p_table,
                                const uint8_t b[32]) {
  int8_t digits_a[64];
  int8_t digits_b[64];
  ScRadix16(digits_a, a);
  ScRadix16(digits_b, b);
  return FixedBaseEvaluate(digits_a, p_table, digits_b, &BaseFixedTable());
}

GePoint GeDoubleScalarMultVartime(const uint8_t a[32], const GePoint& A, const uint8_t b[32]) {
  int8_t naf_a[kWNafMaxDigits];
  int8_t naf_b[kWNafMaxDigits];
  int len_a = ScWNaf(naf_a, a, 5);
  int len_b = ScWNaf(naf_b, b, kBaseWNafWidth);
  OddTable table = BuildOddTable(A);
  return WNafEvaluate(naf_a, len_a, table, naf_b, len_b, nullptr);
}

GePoint GeTwoScalarMultVartime(const uint8_t a[32], const GePoint& A, const uint8_t b[32],
                               const GePoint& B) {
  int8_t naf_a[kWNafMaxDigits];
  int8_t naf_b[kWNafMaxDigits];
  int len_a = ScWNaf(naf_a, a, 5);
  int len_b = ScWNaf(naf_b, b, 5);
  OddTable table_a = BuildOddTable(A);
  OddTable table_b = BuildOddTable(B);
  return WNafEvaluate(naf_a, len_a, table_a, naf_b, len_b, &table_b);
}

GePoint GeMulByCofactor(const GePoint& p) { return GeDouble(GeDouble(GeDouble(p))); }

bool GeIsIdentity(const GePoint& p) { return FeIsZero(p.X) && FeEq(p.Y, p.Z); }

bool GeEq(const GePoint& p, const GePoint& q) {
  // X1/Z1 == X2/Z2  and  Y1/Z1 == Y2/Z2, cross-multiplied.
  return FeEq(FeMul(p.X, q.Z), FeMul(q.X, p.Z)) && FeEq(FeMul(p.Y, q.Z), FeMul(q.Y, p.Z));
}

void GeToBytes(uint8_t out[32], const GePoint& p) {
  Fe zinv = FeInvert(p.Z);
  Fe x = FeMul(p.X, zinv);
  Fe y = FeMul(p.Y, zinv);
  FeToBytes(out, y);
  out[31] = static_cast<uint8_t>(out[31] | (FeIsNegative(x) << 7));
}

std::optional<GePoint> GeFromBytes(const uint8_t in[32]) {
  int sign = in[31] >> 7;
  Fe y = FeFromBytes(in);

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  Fe y2 = FeSq(y);
  Fe u = FeSub(y2, FeOne());
  Fe v = FeAdd(FeMul(GeConstD(), y2), FeOne());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8), with the fixed
  // exponent (p-5)/8 = 2^252 - 3 evaluated by addition chain.
  Fe v3 = FeMul(FeSq(v), v);
  Fe v7 = FeMul(FeSq(v3), v);
  Fe x = FeMul(FeMul(u, v3), FePow22523(FeMul(u, v7)));

  Fe vx2 = FeMul(v, FeSq(x));
  if (FeEq(vx2, u)) {
    // x is the root.
  } else if (FeEq(vx2, FeNeg(u))) {
    x = FeMul(x, FeSqrtM1());
  } else {
    return std::nullopt;
  }

  if (FeIsZero(x) && sign == 1) {
    return std::nullopt;  // -0 is not a valid encoding.
  }
  if (FeIsNegative(x) != sign) {
    x = FeNeg(x);
  }

  GePoint p;
  p.X = x;
  p.Y = y;
  p.Z = FeOne();
  p.T = FeMul(x, y);
  return p;
}

}  // namespace internal
}  // namespace algorand
