// Batch transaction-signature verification.
//
// A 1 MB block carries ~6,900 Ed25519 signatures — §10.1 identifies exactly
// this as the dominant CPU cost of a node. TxSigVerifier fans a block's
// signature checks out across the shared VerifyPool and memoizes verdicts in
// the round-pruned VerificationCache at two levels:
//
//   * per payment, keyed by transaction id: a payment verified at admission
//     (Node::SubmitTransaction), at TransactionMessage relay, or prewarmed at
//     gossip receipt (Node::PrewarmMessage) is never re-verified when the
//     block containing it arrives;
//   * per block, keyed by BlockVerdictKey(block hash): the AND of the block's
//     per-payment verdicts. The block hash covers every payment byte, so the
//     verdict is a pure function of its key, and every later validation of
//     the same block — at any node sharing the cache — is one lookup instead
//     of ~6,900 id hashes and lookups. The key is a tagged hash of the block
//     hash, so it can never equal a transaction id or a vote ContextKey in
//     the shared cache.
//
// Signature validity is a pure function of the signed bytes (no round
// context), so neither level needs a ContextKey salt, and worker count can
// never change a protocol decision — with zero workers everything runs
// inline on the calling thread, the deterministic tier-1 configuration.
#ifndef ALGORAND_SRC_CORE_TX_VERIFIER_H_
#define ALGORAND_SRC_CORE_TX_VERIFIER_H_

#include <vector>

#include "src/common/verify_pool.h"
#include "src/core/verification_cache.h"
#include "src/crypto/signer.h"
#include "src/ledger/transaction.h"

namespace algorand {

class TxSigVerifier {
 public:
  // All pointers are borrowed. `cache` and `pool` may be null (inline,
  // uncached verification); `signer` must not be.
  TxSigVerifier(const SignerBackend* signer, VerificationCache* cache, VerifyPool* pool)
      : signer_(signer), cache_(cache), pool_(pool) {}

  // Verifies one signature through the cache. `id` is `tx.Id()`; a caller
  // that already holds it passes it instead of paying for a second hash.
  bool VerifyOne(const Transaction& tx, const Hash256& id) const;
  bool VerifyOne(const Transaction& tx) const { return VerifyOne(tx, tx.Id()); }

  // Verifies every signature; false if any is invalid. With pool workers the
  // checks run chunked across threads (cache-aware, so prewarmed entries are
  // free); otherwise sequentially. Verdict is worker-count independent.
  bool VerifyBatch(const std::vector<Transaction>& txns) const;

  // The block-level verdict: VerifyBatch(txns), cached under
  // BlockVerdictKey(block_id). `block_id` must be the hash of the block that
  // carries `txns` (BlockMessage::DedupId()).
  bool VerifyBlock(const Hash256& block_id, const std::vector<Transaction>& txns) const;

  // Submits pool jobs that prewarm the cache for `txns` (gossip-receipt
  // pipeline hook). No-op without a pool worker or cache.
  void Prewarm(const std::vector<Transaction>& txns) const;

  // Prewarm for a block's payments, skipped outright when the block's verdict
  // is already cached or being computed.
  void PrewarmBlock(const Hash256& block_id, const std::vector<Transaction>& txns) const;

  // Cache key of a block's verdict: a domain-separated hash of its id.
  static Hash256 BlockVerdictKey(const Hash256& block_id);

 private:
  uint64_t ComputeOne(const Transaction& tx) const {
    return signer_->Verify(tx.from, tx.SerializeBody(), tx.signature) ? 1 : 0;
  }

  const SignerBackend* signer_;
  VerificationCache* cache_;
  VerifyPool* pool_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_TX_VERIFIER_H_
