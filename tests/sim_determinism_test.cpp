// Determinism regression: a (seed, scenario) pair must replay identically —
// same per-node chains, same executed-event count — against pinned golden
// values, across repeat runs, and across parallel-engine worker counts
// (workers=4 must be bit-identical to workers=1). This is the contract that
// makes every other test in the suite reproducible, so it gets its own
// canary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/sim_harness.h"
#include "src/crypto/sha256.h"
#include "src/obs/safety_auditor.h"

namespace algorand {
namespace {

struct RunOutcome {
  std::vector<Hash256> tips;  // Per-node chain tip after the run.
  std::vector<uint64_t> lengths;
  uint64_t executed_events = 0;

  bool operator==(const RunOutcome& o) const {
    return tips == o.tips && lengths == o.lengths && executed_events == o.executed_events;
  }

  // SHA-256 over every node's (tip hash, 8-byte little-endian chain length),
  // in node order: one hex string that pins all the chains.
  std::string ChainsDigest() const {
    Sha256 d;
    for (size_t i = 0; i < tips.size(); ++i) {
      d.Update(std::span<const uint8_t>(tips[i].data(), tips[i].size()));
      uint8_t len[8];
      for (int b = 0; b < 8; ++b) {
        len[b] = static_cast<uint8_t>(lengths[i] >> (8 * b));
      }
      d.Update(std::span<const uint8_t>(len, 8));
    }
    return d.Finish().ToHex();
  }
};

// sim_workers: -1 = sequential engine; >= 1 = the conservative-lookahead
// parallel engine with that many shard workers.
RunOutcome RunOnce(uint64_t seed, double malicious = 0.0, int sim_workers = -1) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.use_sim_crypto = true;
  // Pin the single-threaded path even when CI exports ALGORAND_VERIFY_WORKERS
  // (the pipeline never changes decisions, but this test compares exact event
  // counts, which prewarming does perturb).
  cfg.verify_workers = 0;
  cfg.malicious_fraction = malicious;
  if (sim_workers >= 1) {
    cfg.sim_workers = static_cast<size_t>(sim_workers);
  }
  SimHarness h(cfg);

  // The online safety auditor must stay silent regardless of engine: a
  // violation under one worker count but not another would mean the parallel
  // barriers leaked a torn protocol state.
  SafetyAuditorConfig audit_cfg;
  audit_cfg.step_threshold = cfg.params.StepThreshold();
  audit_cfg.final_threshold = cfg.params.FinalThreshold();
  SafetyAuditor auditor(audit_cfg);
  h.tracer().SetObserver([&auditor](const TraceEvent& ev) { auditor.Observe(ev); });

  h.Start();
  EXPECT_TRUE(h.RunRounds(3));
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  RunOutcome out;
  out.executed_events = h.sim().executed_events();
  for (size_t i = 0; i < h.node_count(); ++i) {
    out.tips.push_back(h.node(i).ledger().tip_hash());
    out.lengths.push_back(h.node(i).ledger().chain_length());
  }
  return out;
}

// Golden values for the sequential engine, taken at a commit where an
// independent std::map event queue reproduced them exactly. Update them
// deliberately when the protocol or engine changes behaviour, never to
// absorb accidental drift.
TEST(SimDeterminismTest, PinnedSeedsReproduceGoldenRuns) {
  RunOutcome one = RunOnce(1);
  EXPECT_EQ(one.executed_events, 44641u);
  EXPECT_EQ(one.ChainsDigest(),
            "617bafcf1375ae61b6fc82af701607d4ea174ea7d8612a3e25bcd1f163727d89");
  RunOutcome seven = RunOnce(7);
  EXPECT_EQ(seven.executed_events, 43244u);
  EXPECT_EQ(seven.ChainsDigest(),
            "a63a5eb62e77b9a25aafaebd858db78a68a160d688aab8f93942ba010a9a1e29");
}

TEST(SimDeterminismTest, RepeatRunsAreBitIdentical) {
  RunOutcome a = RunOnce(42);
  RunOutcome b = RunOnce(42);
  EXPECT_TRUE(a == b);
}

TEST(SimDeterminismTest, HoldsUnderAdversarialTraffic) {
  // Equivocating nodes stress duplicate/relay paths where the memoized
  // DedupId and the seen-window pruning do the most work.
  RunOutcome out = RunOnce(5, /*malicious=*/0.2);
  EXPECT_EQ(out.executed_events, 50264u);
  EXPECT_EQ(out.ChainsDigest(),
            "ecc5b0da98ce3b837547fc882f628b8d008d499ac5816460fa80c92b28cdb9a2");
}

// The parallel-engine contract: the conservative-lookahead windows and
// per-stream event keys make the execution order a pure function of the
// scenario, never of how streams are sharded across workers. workers=4 must
// replay workers=1 bit-for-bit — same tips, same chain lengths, same
// executed-event count.
TEST(SimDeterminismTest, ParallelWorkersProduceIdenticalRuns) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    RunOutcome one = RunOnce(seed, /*malicious=*/0.0, /*sim_workers=*/1);
    RunOutcome four = RunOnce(seed, /*malicious=*/0.0, /*sim_workers=*/4);
    EXPECT_EQ(one.executed_events, four.executed_events) << "seed=" << seed;
    EXPECT_TRUE(one == four) << "seed=" << seed;
  }
}

TEST(SimDeterminismTest, ParallelHoldsUnderAdversarialTraffic) {
  // Equivocators plus cross-shard relay storms: the worst case for the
  // exchange queues, since most duplicate traffic crosses shard boundaries.
  RunOutcome one = RunOnce(5, /*malicious=*/0.2, /*sim_workers=*/1);
  RunOutcome four = RunOnce(5, /*malicious=*/0.2, /*sim_workers=*/4);
  EXPECT_EQ(one.executed_events, four.executed_events);
  EXPECT_TRUE(one == four);
}

TEST(SimDeterminismTest, ParallelRepeatRunsAreBitIdentical) {
  RunOutcome a = RunOnce(42, /*malicious=*/0.0, /*sim_workers=*/3);
  RunOutcome b = RunOnce(42, /*malicious=*/0.0, /*sim_workers=*/3);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace algorand
