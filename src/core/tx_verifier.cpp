#include "src/core/tx_verifier.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"

namespace algorand {

bool TxSigVerifier::VerifyOne(const Transaction& tx, const Hash256& id) const {
  if (cache_ == nullptr) {
    return ComputeOne(tx) != 0;
  }
  return cache_->GetOrCompute(id, [&] { return ComputeOne(tx); }) != 0;
}

bool TxSigVerifier::VerifyBatch(const std::vector<Transaction>& txns) const {
  const size_t workers = pool_ == nullptr ? 0 : pool_->worker_count();
  if (workers == 0 || txns.size() < 2) {
    for (const Transaction& tx : txns) {
      if (!VerifyOne(tx)) {
        return false;
      }
    }
    return true;
  }
  // Chunk the block across workers; each chunk goes through the cache so
  // gossip-prewarmed signatures cost a lookup, not a verification.
  const size_t jobs = std::min(txns.size(), workers * 4);
  std::atomic<bool> all_ok{true};
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = jobs;
  for (size_t j = 0; j < jobs; ++j) {
    pool_->Submit([&, j] {
      for (size_t i = j; i < txns.size(); i += jobs) {
        if (!all_ok.load(std::memory_order_relaxed)) {
          break;
        }
        if (!VerifyOne(txns[i])) {
          all_ok.store(false, std::memory_order_relaxed);
          break;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) {
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pending == 0; });
  return all_ok.load(std::memory_order_relaxed);
}

bool TxSigVerifier::VerifyBlock(const Hash256& block_id,
                                const std::vector<Transaction>& txns) const {
  if (cache_ == nullptr) {
    return VerifyBatch(txns);
  }
  return cache_->GetOrCompute(BlockVerdictKey(block_id),
                              [&]() -> uint64_t { return VerifyBatch(txns) ? 1 : 0; }) != 0;
}

Hash256 TxSigVerifier::BlockVerdictKey(const Hash256& block_id) {
  static constexpr char kTag[] = "algorand.block-signature-verdict";
  Writer w;
  w.Raw(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(kTag), sizeof(kTag) - 1));
  w.Fixed(block_id);
  return Sha256::Hash(w.buffer());
}

void TxSigVerifier::PrewarmBlock(const Hash256& block_id,
                                 const std::vector<Transaction>& txns) const {
  if (cache_ != nullptr && cache_->Contains(BlockVerdictKey(block_id))) {
    return;
  }
  Prewarm(txns);
}

void TxSigVerifier::Prewarm(const std::vector<Transaction>& txns) const {
  if (pool_ == nullptr || pool_->worker_count() == 0 || cache_ == nullptr || txns.empty()) {
    return;
  }
  const size_t jobs = std::min(txns.size(), pool_->worker_count() * 4);
  for (size_t j = 0; j < jobs; ++j) {
    // Jobs copy the shared state they need; the caller's vector may die
    // before they run, so chunks are materialized per job.
    std::vector<Transaction> chunk;
    for (size_t i = j; i < txns.size(); i += jobs) {
      if (!cache_->Contains(txns[i].Id())) {
        chunk.push_back(txns[i]);
      }
    }
    if (chunk.empty()) {
      continue;
    }
    VerificationCache* cache = cache_;
    const SignerBackend* signer = signer_;
    pool_->Submit([cache, signer, chunk = std::move(chunk)] {
      for (const Transaction& tx : chunk) {
        cache->Prewarm(tx.Id(), [&]() -> uint64_t {
          return signer->Verify(tx.from, tx.SerializeBody(), tx.signature) ? 1 : 0;
        });
      }
    });
  }
}

}  // namespace algorand
