// The pinned accept set of Ed25519 and ECVRF verification. Every row of
// tests/accept_set_vectors.inc is an edge-case input (small-order and
// mixed-order points, non-canonical and "-0" encodings, scalars >= L, flipped
// bits) with the verdicts recorded when the table was generated. Which inputs
// verify is a consensus property, so a curve or field change must reproduce
// every verdict, and every accepted VRF output, unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hex.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/signer.h"
#include "src/crypto/vrf.h"
#include "tests/crypto_oracle.h"

namespace algorand {
namespace {

struct AcceptCase {
  const char* kind;  // "ed25519" or "ecvrf".
  const char* name;
  const char* pk;
  const char* msg;  // Message (Ed25519) or alpha (ECVRF).
  const char* sig;  // Signature (64 bytes) or proof (80 bytes).
  int verdict;      // Ed25519Verify / EcVrfVerify.
  int legacy;       // Ed25519VerifyLegacy / EcVrfVerifyLegacy (tests/crypto_oracle.h).
  const char* output;  // ECVRF beta when accepted, else empty.
};

const AcceptCase kCases[] = {
#include "tests/accept_set_vectors.inc"
};

template <size_t N>
FixedBytes<N> Fixed(const char* hex) {
  std::vector<uint8_t> bytes = HexDecode(hex).value();
  EXPECT_EQ(bytes.size(), N);
  FixedBytes<N> out;
  std::memcpy(out.data(), bytes.data(), N);
  return out;
}

std::vector<const AcceptCase*> CasesOf(const std::string& kind) {
  std::vector<const AcceptCase*> out;
  for (const AcceptCase& c : kCases) {
    if (kind == c.kind) {
      out.push_back(&c);
    }
  }
  return out;
}

TEST(AcceptSetTest, TableCoversEveryCategoryWithBothVerdicts) {
  // Guards against a truncated or regenerated-empty table: each crafted
  // category (row names start with it) holds accepted and rejected rows.
  struct Category {
    const char* kind;
    const char* prefix;
  };
  for (const Category& cat : {Category{"ed25519", "small"}, Category{"ed25519", "mixed"},
                              Category{"ed25519", "noncanonical"}, Category{"ecvrf", "small"},
                              Category{"ecvrf", "mixed"}, Category{"ecvrf", "x=0"}}) {
    int accepted = 0, rejected = 0;
    for (const AcceptCase* c : CasesOf(cat.kind)) {
      if (std::string(c->name).rfind(cat.prefix, 0) == 0) {
        (c->verdict != 0 ? accepted : rejected) += 1;
      }
    }
    EXPECT_GT(accepted, 0) << cat.kind << " " << cat.prefix;
    EXPECT_GT(rejected, 0) << cat.kind << " " << cat.prefix;
  }
  EXPECT_GE(CasesOf("ed25519").size(), 400u);
  EXPECT_GE(CasesOf("ecvrf").size(), 200u);
}

TEST(AcceptSetTest, Ed25519VerifyReproducesPinnedVerdicts) {
  for (const AcceptCase* c : CasesOf("ed25519")) {
    std::vector<uint8_t> msg = HexDecode(c->msg).value();
    EXPECT_EQ(Ed25519Verify(Fixed<32>(c->pk), msg, Fixed<64>(c->sig)), c->verdict != 0)
        << c->name;
  }
}

TEST(AcceptSetTest, Ed25519VerifyLegacyReproducesPinnedVerdicts) {
  for (const AcceptCase* c : CasesOf("ed25519")) {
    std::vector<uint8_t> msg = HexDecode(c->msg).value();
    EXPECT_EQ(Ed25519VerifyLegacy(Fixed<32>(c->pk), msg, Fixed<64>(c->sig)), c->legacy != 0)
        << c->name;
  }
}

TEST(AcceptSetTest, PreparedKeysReproducePinnedVerdicts) {
  // Every Ed25519 row through a prepared key built for it alone, and through
  // signers whose cache is cold (each row's first sighting of its key: the
  // one-shot path) and warm (one signer for the whole table, every row
  // verified three times, so each key is first recorded, then prepared, then
  // reused across the rows that share it). A key that does not decode never
  // gets a table.
  const Ed25519Signer warm;
  for (const AcceptCase* c : CasesOf("ed25519")) {
    std::vector<uint8_t> msg = HexDecode(c->msg).value();
    const PublicKey pk = Fixed<32>(c->pk);
    const Signature sig = Fixed<64>(c->sig);
    auto prepared = Ed25519PreparedKey::Prepare(pk);
    if (prepared != nullptr) {
      EXPECT_EQ(Ed25519Verify(*prepared, msg, sig), c->verdict != 0) << c->name;
    } else {
      EXPECT_EQ(c->verdict, 0) << c->name;
    }
    EXPECT_EQ(Ed25519Signer().Verify(pk, msg, sig), c->verdict != 0) << c->name;
    for (int sighting = 0; sighting < 3; ++sighting) {
      EXPECT_EQ(warm.Verify(pk, msg, sig), c->verdict != 0) << c->name << " " << sighting;
    }
  }
  EXPECT_GT(warm.prepared_keys().size(), 1u);
}

void CheckVrf(const AcceptCase& c, const std::optional<VrfOutput>& got, int expected) {
  ASSERT_EQ(got.has_value(), expected != 0) << c.name;
  if (got.has_value()) {
    EXPECT_EQ(got->ToHex(), c.output) << c.name;
  }
}

TEST(AcceptSetTest, EcVrfVerifyReproducesPinnedVerdictsAndOutputs) {
  for (const AcceptCase* c : CasesOf("ecvrf")) {
    std::vector<uint8_t> alpha = HexDecode(c->msg).value();
    CheckVrf(*c, EcVrfVerify(Fixed<32>(c->pk), alpha, Fixed<80>(c->sig)), c->verdict);
  }
}

TEST(AcceptSetTest, EcVrfVerifyLegacyReproducesPinnedVerdictsAndOutputs) {
  for (const AcceptCase* c : CasesOf("ecvrf")) {
    std::vector<uint8_t> alpha = HexDecode(c->msg).value();
    CheckVrf(*c, EcVrfVerifyLegacy(Fixed<32>(c->pk), alpha, Fixed<80>(c->sig)), c->legacy);
  }
}

}  // namespace
}  // namespace algorand
