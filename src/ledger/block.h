// Block format (§8.1): a list of transactions plus the metadata BA* needs —
// round number, the proposer's VRF-based seed for the next round, the hash of
// the previous block, and a proposal timestamp.
//
// Simulated payload: experiments sweep block sizes up to 10 MB without
// materializing megabytes of payments. `padding_bytes` declares extra payload
// volume and `padding_digest` stands for its content (so two equivocating
// blocks from a malicious proposer really have different hashes); the network
// simulator charges bandwidth for WireSize() which includes the padding.
#ifndef ALGORAND_SRC_LEDGER_BLOCK_H_
#define ALGORAND_SRC_LEDGER_BLOCK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/common/time_units.h"
#include "src/ledger/transaction.h"

namespace algorand {

struct Block {
  uint64_t round = 0;
  Hash256 prev_hash;
  SimTime timestamp = 0;

  // Proposer credentials (all zero for the empty block).
  PublicKey proposer;
  VrfOutput proposer_vrf;   // Sortition hash: determines priority.
  VrfProof proposer_proof;  // Sortition proof for the proposer role.

  // The seed for round `round + 1` (§5.2) and its VRF proof. For empty blocks
  // the seed is derived by hashing, and the proof is all zero.
  SeedBytes next_seed;
  VrfProof next_seed_proof;

  std::vector<Transaction> txns;

  // Synthetic payload (see file comment).
  uint64_t padding_bytes = 0;
  Hash256 padding_digest;

  bool is_empty = false;

  Hash256 Hash() const;

  // Serialized size of everything but the transactions: the fixed-width
  // fields of Serialize() plus the 4-byte transaction count.
  static constexpr size_t kHeaderWireSize =
      8 + 32 + 8 + 32 + 64 + 80 + 32 + 80 + 1 + 8 + 32 + 4;

  // Bytes this block occupies on the wire, including simulated padding:
  // Serialize().size() + padding_bytes, computed without serializing.
  uint64_t WireSize() const {
    return kHeaderWireSize + txns.size() * Transaction::kWireSize + padding_bytes;
  }

  std::vector<uint8_t> Serialize() const;
  static std::optional<Block> Deserialize(std::span<const uint8_t> data);

  // The canonical empty block for a round (Algorithm 7's Empty()): computable
  // identically by every node that knows the previous block and the current
  // round's seed. `prev_seed` is the seed of round `round`.
  static Block MakeEmpty(uint64_t round, const Hash256& prev_hash, const SeedBytes& prev_seed);

  // The deterministic fallback seed H(prev_seed || round + 1) used when a
  // block carries no valid proposer seed (§5.2).
  static SeedBytes DerivedSeed(const SeedBytes& prev_seed, uint64_t round);
};

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_BLOCK_H_
