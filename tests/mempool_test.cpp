// Mempool edge cases: nonce gaps held then filled, fee-priority eviction at
// capacity, duplicate-id rejection across relay copies, replacement by fee,
// and apply-time invalidation after a competing block commits. A randomized
// differential test pins the pool's stored ids against an oracle that
// recomputes every id from the transaction bytes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "src/common/rng.h"
#include "src/ledger/ledger.h"
#include "src/ledger/mempool.h"

namespace algorand {
namespace {

const Ed25519Signer kSigner;

struct Fixture {
  Fixture() : bundle(MakeTestGenesis(8, 1000, 7)), ledger(bundle.config) {}
  GenesisBundle bundle;
  Ledger ledger;

  const Ed25519KeyPair& key(size_t i) const { return bundle.keys[i]; }
  PublicKey pk(size_t i) const { return bundle.keys[i].public_key; }

  Transaction Pay(size_t from, size_t to, uint64_t amount, uint64_t nonce, uint64_t fee = 0) {
    return MakeTransaction(key(from), pk(to), amount, nonce, kSigner, fee);
  }

  uint64_t NextNonce(size_t i) const { return ledger.accounts().NextNonceOf(pk(i)); }
};

TEST(MempoolTest, NonceGapHeldThenFilled) {
  Fixture f;
  Mempool pool;
  Transaction t0 = f.Pay(0, 1, 10, 0);
  Transaction t2 = f.Pay(0, 1, 10, 2);
  EXPECT_EQ(pool.Add(t0, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(t2, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.size(), 2u);

  // Only the contiguous prefix from the ledger nonce is proposable: nonce 2
  // waits for nonce 1.
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), t0.Id());

  // Filling the gap releases the whole run, in nonce order.
  Transaction t1 = f.Pay(0, 1, 10, 1);
  EXPECT_EQ(pool.Add(t1, f.NextNonce(0)), Mempool::AddResult::kAdded);
  block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].nonce, 0u);
  EXPECT_EQ(block[1].nonce, 1u);
  EXPECT_EQ(block[2].nonce, 2u);
}

TEST(MempoolTest, FeePriorityEvictionAtCapacity) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 4;
  Mempool pool(cfg);
  // Four senders, fees 1..4. The fee-1 transaction is the eviction victim.
  std::vector<Transaction> resident;
  for (size_t s = 0; s < 4; ++s) {
    resident.push_back(f.Pay(s, 5, 10, 0, /*fee=*/s + 1));
    EXPECT_EQ(pool.Add(resident.back(), f.NextNonce(s)), Mempool::AddResult::kAdded);
  }
  EXPECT_EQ(pool.size(), 4u);

  // Pricing below every resident transaction: rejected, pool unchanged.
  Transaction cheap = f.Pay(4, 5, 10, 0, /*fee=*/1);
  EXPECT_EQ(pool.Add(cheap, f.NextNonce(4)), Mempool::AddResult::kUnderpriced);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_FALSE(pool.Contains(cheap.Id()));

  // A higher-fee arrival displaces the lowest-fee resident.
  Transaction rich = f.Pay(4, 5, 10, 0, /*fee=*/9);
  EXPECT_EQ(pool.Add(rich, f.NextNonce(4)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_TRUE(pool.Contains(rich.Id()));
  EXPECT_FALSE(pool.Contains(resident[0].Id()));  // fee 1: evicted.
  EXPECT_TRUE(pool.Contains(resident[1].Id()));

  // An arrival pricing at (not above) the current floor is also rejected:
  // eviction requires a strictly higher fee, so fee ties never churn.
  Transaction tie = f.Pay(5, 6, 10, 0, /*fee=*/2);
  EXPECT_EQ(pool.Add(tie, f.NextNonce(5)), Mempool::AddResult::kUnderpriced);
}

TEST(MempoolTest, EvictionTakesQueueTailSoNoGapOpens) {
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = 4;
  Mempool pool(cfg);
  // Sender 0 holds the two lowest-fee transactions, nonces 0 and 1.
  Transaction head = f.Pay(0, 4, 10, 0, /*fee=*/1);
  Transaction tail = f.Pay(0, 4, 10, 1, /*fee=*/1);
  EXPECT_EQ(pool.Add(head, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(tail, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(1, 4, 10, 0, /*fee=*/5), f.NextNonce(1)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(f.Pay(2, 4, 10, 0, /*fee=*/5), f.NextNonce(2)), Mempool::AddResult::kAdded);

  // The displacement victim must be sender 0's *tail* (nonce 1), never the
  // head — evicting nonce 0 while keeping nonce 1 would strand a gap the
  // proposer can never cross.
  EXPECT_EQ(pool.Add(f.Pay(3, 4, 10, 0, /*fee=*/9), f.NextNonce(3)), Mempool::AddResult::kAdded);
  EXPECT_TRUE(pool.Contains(head.Id()));
  EXPECT_FALSE(pool.Contains(tail.Id()));
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 4u);  // Every resident transaction is proposable.
}

TEST(MempoolTest, DuplicateIdAcrossRelayCopies) {
  Fixture f;
  Mempool pool;
  Transaction tx = f.Pay(0, 1, 10, 0, /*fee=*/3);
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kAdded);
  // Gossip delivers the same payload along several paths; every relay copy
  // after the first is dropped.
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.Add(tx, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MempoolTest, SameSlotReplacedOnlyByHigherFee) {
  Fixture f;
  Mempool pool;
  Transaction low = f.Pay(0, 1, 10, 0, /*fee=*/2);
  Transaction equal = f.Pay(0, 2, 10, 0, /*fee=*/2);   // Different payload, same slot.
  Transaction higher = f.Pay(0, 3, 10, 0, /*fee=*/5);
  EXPECT_EQ(pool.Add(low, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(equal, f.NextNonce(0)), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.Add(higher, f.NextNonce(0)), Mempool::AddResult::kReplaced);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(higher.Id()));
  EXPECT_FALSE(pool.Contains(low.Id()));
}

TEST(MempoolTest, StaleNonceRejected) {
  Fixture f;
  Mempool pool;
  // Commit a block spending sender 0's nonce 0 so the ledger nonce is 1.
  Block b = Block::MakeEmpty(f.ledger.next_round(), f.ledger.tip_hash(),
                             f.ledger.SeedForRound(f.ledger.next_round() - 1));
  b.is_empty = false;
  b.txns.push_back(f.Pay(0, 1, 10, 0));
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));
  Transaction stale = f.Pay(0, 2, 10, 0);
  EXPECT_EQ(pool.Add(stale, f.NextNonce(0)), Mempool::AddResult::kStale);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(MempoolTest, ApplyTimeInvalidationAfterCompetingCommit) {
  Fixture f;
  Mempool pool;
  // The pool holds sender 0's nonces 0 and 1 (payments to node 1)...
  Transaction mine0 = f.Pay(0, 1, 10, 0, /*fee=*/1);
  Transaction mine1 = f.Pay(0, 1, 10, 1, /*fee=*/1);
  EXPECT_EQ(pool.Add(mine0, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(mine1, f.NextNonce(0)), Mempool::AddResult::kAdded);

  // ...but consensus commits a *competing* block where sender 0 spent nonce 0
  // on a different payment. The resident nonce-0 transaction can never apply
  // again; nonce 1 is still valid.
  Transaction competing = f.Pay(0, 2, 50, 0, /*fee=*/2);
  Block b = Block::MakeEmpty(f.ledger.next_round(), f.ledger.tip_hash(),
                             f.ledger.SeedForRound(f.ledger.next_round() - 1));
  b.is_empty = false;
  b.txns.push_back(competing);
  ASSERT_TRUE(f.ledger.Append(b, ConsensusKind::kFinal));

  pool.ObserveCommitted(b.txns, f.ledger.accounts());
  EXPECT_FALSE(pool.Contains(mine0.Id()));
  EXPECT_TRUE(pool.Contains(mine1.Id()));
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), mine1.Id());
}

TEST(MempoolTest, BuildBlockOrdersByFeeAndRespectsBudget) {
  Fixture f;
  Mempool pool;
  Transaction cheap = f.Pay(0, 3, 10, 0, /*fee=*/1);
  Transaction mid = f.Pay(1, 3, 10, 0, /*fee=*/5);
  Transaction rich = f.Pay(2, 3, 10, 0, /*fee=*/9);
  EXPECT_EQ(pool.Add(cheap, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(mid, f.NextNonce(1)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(rich, f.NextNonce(2)), Mempool::AddResult::kAdded);

  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].Id(), rich.Id());
  EXPECT_EQ(block[1].Id(), mid.Id());
  EXPECT_EQ(block[2].Id(), cheap.Id());

  // A two-transaction byte budget keeps the most valuable payload.
  block = pool.BuildBlock(f.ledger.accounts(), 2 * Transaction::kWireSize);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].Id(), rich.Id());
  EXPECT_EQ(block[1].Id(), mid.Id());
}

TEST(MempoolTest, BuildBlockSkipsSendersThatCannotPay) {
  Fixture f;
  Mempool pool;
  // Sender 0's first transaction drains the balance; the second can never
  // apply on top of it and must not be proposed.
  Transaction drain = f.Pay(0, 1, 1000, 0);
  Transaction broke = f.Pay(0, 1, 500, 1);
  EXPECT_EQ(pool.Add(drain, f.NextNonce(0)), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.Add(broke, f.NextNonce(0)), Mempool::AddResult::kAdded);
  std::vector<Transaction> block = pool.BuildBlock(f.ledger.accounts(), 1 << 20);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].Id(), drain.Id());
}

// Test oracle: the pool's admission, eviction, assembly and commit rules
// over plain sender queues, with every transaction id recomputed from the
// bytes wherever it is needed (no stored ids).
class RecomputingPool {
 public:
  explicit RecomputingPool(size_t capacity) : capacity_(capacity) {}

  Mempool::AddResult Add(const Transaction& tx, uint64_t ledger_next_nonce) {
    if (tx.nonce < ledger_next_nonce) {
      return Mempool::AddResult::kStale;
    }
    if (Contains(tx.Id())) {
      return Mempool::AddResult::kDuplicate;
    }
    auto& queue = senders_[tx.from];
    auto slot = queue.find(tx.nonce);
    if (slot != queue.end()) {
      if (tx.fee <= slot->second.fee) {
        return Mempool::AddResult::kDuplicate;
      }
      slot->second = tx;
      return Mempool::AddResult::kReplaced;
    }
    if (size() >= capacity_) {
      // Lowest fee; within a fee the lowest sender, then its highest nonce.
      std::tuple<uint64_t, PublicKey, uint64_t> victim;
      bool found = false;
      for (const auto& [sender, q] : senders_) {
        for (const auto& [nonce, resident] : q) {
          std::tuple<uint64_t, PublicKey, uint64_t> key{resident.fee, sender, nonce};
          if (!found || std::get<0>(key) < std::get<0>(victim) ||
              (std::get<0>(key) == std::get<0>(victim) &&
               (std::get<1>(key) < std::get<1>(victim) ||
                (std::get<1>(key) == std::get<1>(victim) &&
                 std::get<2>(key) > std::get<2>(victim))))) {
            victim = key;
            found = true;
          }
        }
      }
      if (!(tx.fee > std::get<0>(victim))) {
        return Mempool::AddResult::kUnderpriced;
      }
      senders_[std::get<1>(victim)].erase(std::get<2>(victim));
    }
    senders_[tx.from].emplace(tx.nonce, tx);
    return Mempool::AddResult::kAdded;
  }

  bool Contains(const Hash256& id) const {
    for (const auto& [sender, queue] : senders_) {
      for (const auto& [nonce, resident] : queue) {
        if (resident.Id() == id) {
          return true;
        }
      }
    }
    return false;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& [sender, queue] : senders_) {
      n += queue.size();
    }
    return n;
  }

  std::vector<Transaction> BuildBlock(const AccountTable& accounts, size_t max_bytes) const {
    AccountOverlay overlay(accounts);
    // (fee desc, id asc) over ready queue heads.
    auto before = [](const std::tuple<uint64_t, Hash256, PublicKey>& a,
                     const std::tuple<uint64_t, Hash256, PublicKey>& b) {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) > std::get<0>(b);
      }
      return std::get<1>(a) < std::get<1>(b);
    };
    std::set<std::tuple<uint64_t, Hash256, PublicKey>, decltype(before)> heads(before);
    for (const auto& [sender, queue] : senders_) {
      auto it = queue.find(accounts.NextNonceOf(sender));
      if (it != queue.end()) {
        heads.insert({it->second.fee, it->second.Id(), sender});
      }
    }
    std::vector<Transaction> out;
    while (!heads.empty() && (out.size() + 1) * Transaction::kWireSize <= max_bytes) {
      const PublicKey sender = std::get<2>(*heads.begin());
      heads.erase(heads.begin());
      const auto& queue = senders_.at(sender);
      auto it = queue.find(overlay.NextNonceOf(sender));
      if (it == queue.end() || !overlay.ApplyTransaction(it->second)) {
        continue;
      }
      out.push_back(it->second);
      auto next = queue.find(it->second.nonce + 1);
      if (next != queue.end()) {
        heads.insert({next->second.fee, next->second.Id(), sender});
      }
    }
    return out;
  }

  void ObserveCommitted(const std::vector<Transaction>& committed,
                        const AccountTable& accounts) {
    for (const Transaction& tx : committed) {
      const Hash256 id = tx.Id();
      for (auto& [sender, queue] : senders_) {
        std::erase_if(queue, [&](const auto& entry) { return entry.second.Id() == id; });
      }
    }
    DropStale(accounts);
  }

  void DropStale(const AccountTable& accounts) {
    for (auto& [sender, queue] : senders_) {
      const uint64_t next = accounts.NextNonceOf(sender);
      std::erase_if(queue, [&](const auto& entry) { return entry.first < next; });
    }
  }

 private:
  const size_t capacity_;
  std::map<PublicKey, std::map<uint64_t, Transaction>> senders_;
};

TEST(MempoolTest, StoredIdsMatchRecomputingOracleUnderRandomOps) {
  constexpr size_t kCapacity = 12;
  constexpr size_t kSenders = 6;
  Fixture f;
  MempoolConfig cfg;
  cfg.capacity = kCapacity;
  Mempool pool(cfg);
  RecomputingPool oracle(kCapacity);
  AccountTable accounts = f.ledger.accounts();
  DeterministicRng rng(2024, "mempool-oracle");
  std::vector<Transaction> seen;  // Every transaction ever offered.
  std::map<PublicKey, size_t> index_of;
  for (size_t i = 0; i < kSenders; ++i) {
    index_of[f.pk(i)] = i;
  }
  size_t by_result[5] = {};

  auto random_tx = [&](bool near_ledger) {
    const size_t from = rng.UniformU64(kSenders);
    const size_t to = (from + 1 + rng.UniformU64(kSenders - 1)) % kSenders;
    const uint64_t next = accounts.NextNonceOf(f.pk(from));
    const uint64_t nonce = near_ledger ? next : next + rng.UniformU64(5) - (next > 0 ? 1 : 0);
    return f.Pay(from, to, 1 + rng.UniformU64(120), nonce, 1 + rng.UniformU64(6));
  };

  for (int op = 0; op < 600; ++op) {
    const uint64_t kind = rng.UniformU64(10);
    if (kind < 6) {
      // Admission: fresh payments, relay copies, and replacements of a
      // resident (sender, nonce) slot at a random fee.
      Transaction tx;
      if (kind == 5 && !seen.empty()) {
        // A relay copy of an earlier payment, or a rival for its slot.
        tx = seen[rng.UniformU64(seen.size())];
        if (rng.UniformU64(2) == 0) {
          const size_t from = index_of.at(tx.from);
          tx = f.Pay(from, (from + 1) % kSenders, tx.amount + 1, tx.nonce, 1 + rng.UniformU64(8));
        }
      } else {
        tx = random_tx(false);
      }
      seen.push_back(tx);
      const uint64_t next = accounts.NextNonceOf(tx.from);
      const Mempool::AddResult got = op % 2 == 0 ? pool.Add(tx, next) : pool.Add(tx, tx.Id(), next);
      ASSERT_EQ(got, oracle.Add(tx, next)) << "op " << op;
      ++by_result[static_cast<size_t>(got)];
    } else if (kind < 8) {
      // Commit a prefix of the proposal, sometimes preceded by a competing
      // payment the pool never saw (apply-time invalidation).
      std::vector<Transaction> committed;
      if (kind == 7) {
        Transaction competing = random_tx(true);
        if (accounts.ApplyTransaction(competing)) {
          committed.push_back(competing);
        }
      }
      std::vector<Transaction> proposal = pool.BuildBlock(accounts, 1 << 20);
      proposal.resize(rng.UniformU64(proposal.size() + 1));
      for (const Transaction& tx : proposal) {
        ASSERT_TRUE(accounts.ApplyTransaction(tx)) << "op " << op;
        committed.push_back(tx);
      }
      pool.ObserveCommitted(committed, accounts);
      oracle.ObserveCommitted(committed, accounts);
    } else if (kind == 8) {
      // A fork switch moved some sender's nonce behind the pool's back.
      Transaction outside = random_tx(true);
      accounts.ApplyTransaction(outside);
      pool.DropStale(accounts);
      oracle.DropStale(accounts);
    }
    // kind == 9: no mutation, just the comparisons below.

    ASSERT_EQ(pool.size(), oracle.size()) << "op " << op;
    const size_t budget = (1 + rng.UniformU64(kCapacity + 2)) * Transaction::kWireSize;
    ASSERT_EQ(pool.BuildBlock(accounts, budget), oracle.BuildBlock(accounts, budget))
        << "op " << op;
    if (op % 10 == 0) {
      for (const Transaction& tx : seen) {
        ASSERT_EQ(pool.Contains(tx.Id()), oracle.Contains(tx.Id())) << "op " << op;
      }
    }
  }
  // The sequence exercised every admission outcome.
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_GT(by_result[r], 0u) << "AddResult " << r;
  }
}

}  // namespace
}  // namespace algorand
