// Node-level behaviour tests: proposal building, block validation (§8.1)
// and its validate-once memo, relay rate limiting (§8.4), the block-fetch
// path, and ablation switches.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/core/sim_harness.h"

namespace algorand {
namespace {

HarnessConfig BaseConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.n_nodes = 20;
  cfg.rng_seed = seed;
  cfg.params = ProtocolParams::ScaledCommittees(0.02);
  cfg.params.block_size_bytes = 64 * 1024;
  cfg.latency = HarnessConfig::Latency::kUniform;
  return cfg;
}

TEST(NodeTest, ProposedBlocksCarryPendingTransactionsAndPadding) {
  SimHarness h(BaseConfig(31));
  for (int i = 0; i < 5; ++i) {
    h.SubmitPayment(static_cast<size_t>(i), static_cast<size_t>(i + 5), 10, 0);
  }
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  const Block& block = h.node(0).ledger().BlockAtRound(1);
  EXPECT_EQ(block.txns.size(), 5u);
  // Padding fills the block to the configured size.
  EXPECT_EQ(block.padding_bytes + block.txns.size() * Transaction::kWireSize, 64u * 1024);
  // Included transactions leave the pool.
  EXPECT_EQ(h.node(0).pending_txn_count(), 0u);
}

TEST(NodeTest, InvalidTransactionsAreNotProposed) {
  SimHarness h(BaseConfig(32));
  // Overdraft: stake is 1000 per user.
  h.SubmitPayment(1, 2, 50000, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_TRUE(h.node(0).ledger().BlockAtRound(1).txns.empty());
}

TEST(NodeTest, DoubleVotesAreRelayedAtMostOnce) {
  // Equivocating committee members send two votes per step; the §8.4 relay
  // rule means honest nodes forward at most one vote per (pk, round, step).
  HarnessConfig cfg = BaseConfig(33);
  cfg.n_nodes = 25;
  // 20% malicious stake with committees large enough that the honest margin
  // over the vote threshold stays comfortable (see DESIGN.md on scaling).
  cfg.params = ProtocolParams::ScaledCommittees(0.1);
  cfg.malicious_fraction = 0.20;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(2)));
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
  // Counting dedups per public key, so double votes never double-count: all
  // rounds still complete, mostly final.
  size_t final_rounds = 0, total_rounds = 0;
  for (const RoundRecord& rec : h.node(10).round_records()) {
    if (rec.end_time > 0) {
      ++total_rounds;
      final_rounds += rec.final;
    }
  }
  EXPECT_GE(total_rounds, 2u);
  EXPECT_GE(final_rounds, 1u);
}

// An adversary that drops every full block destined for one victim, while
// letting votes and priority messages through: the victim must agree on the
// block hash via BA* and then fetch the block from peers (BlockOfHash).
class BlockStarver : public NetworkAdversary {
 public:
  explicit BlockStarver(NodeId victim) : victim_(victim) {}
  AdversaryAction OnTransmit(NodeId, NodeId to, const MessagePtr& msg, SimTime) override {
    if (to == victim_ && std::string(msg->TypeName()) == "block") {
      if (++dropped_ > 0 && allow_after_ > 0 && dropped_ > allow_after_) {
        return AdversaryAction::Deliver();
      }
      return AdversaryAction::Drop();
    }
    return AdversaryAction::Deliver();
  }
  void set_allow_after(uint64_t n) { allow_after_ = n; }
  uint64_t dropped() const { return dropped_; }

 private:
  NodeId victim_;
  uint64_t dropped_ = 0;
  uint64_t allow_after_ = 0;
};

TEST(NodeTest, FetchesAgreedBlockItNeverReceived) {
  HarnessConfig cfg = BaseConfig(34);
  SimHarness h(cfg);
  auto starver = std::make_unique<BlockStarver>(3);
  BlockStarver* starver_ptr = starver.get();
  // Block proposals are dropped; after BA* agrees, the victim requests the
  // block, and the point-to-point reply (also type "block") must get
  // through: allow deliveries after the proposal wave (first few drops).
  starver_ptr->set_allow_after(8);
  h.SetNetworkAdversary(std::move(starver));
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_GT(starver_ptr->dropped(), 0u);
  // The victim ends with the same chain as everyone else.
  EXPECT_EQ(h.node(3).ledger().tip_hash(), h.node(0).ledger().tip_hash());
  EXPECT_FALSE(h.node(3).ledger().BlockAtRound(1).is_empty);
}

TEST(NodeTest, PriorityGossipDisabledStillConverges) {
  HarnessConfig cfg = BaseConfig(35);
  cfg.params.priority_gossip_enabled = false;
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  EXPECT_TRUE(h.CheckSafety().ok);
  EXPECT_TRUE(h.ChainsConsistent());
  // No priority messages were sent at all.
  EXPECT_EQ(h.network().message_counts_by_type().count("priority"), 0u);
}

TEST(NodeTest, FinalStepDisabledYieldsTentativeOnly) {
  HarnessConfig cfg = BaseConfig(36);
  cfg.params.final_step_enabled = false;
  SimHarness h(cfg);
  Transaction tx = h.SubmitPayment(1, 2, 10, 0);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  for (const RoundRecord& rec : h.node(0).round_records()) {
    if (rec.end_time > 0) {
      EXPECT_FALSE(rec.final);
    }
  }
  // Never confirmed without finality.
  EXPECT_FALSE(h.node(0).ledger().IsConfirmed(tx.Id()));
  EXPECT_TRUE(h.ChainsConsistent());
}

TEST(NodeTest, GossipedTransactionReachesEveryPoolAndConfirms) {
  SimHarness h(BaseConfig(40));
  h.Start();
  // Submit through ONE node only; gossip must carry it to whoever proposes.
  Transaction tx = MakeTransaction(h.genesis().keys[4], h.genesis().keys[6].public_key, 123, 0,
                                   h.signer());
  h.node(4).GossipTransaction(tx);
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  EXPECT_TRUE(h.node(0).ledger().IsConfirmed(tx.Id()));
  EXPECT_EQ(h.node(11).ledger().accounts().BalanceOf(h.genesis().keys[6].public_key), 1123u);
}

TEST(NodeTest, InvalidGossipedTransactionsAreNotRelayed) {
  SimHarness h(BaseConfig(41));
  h.Start();
  Transaction bad = MakeTransaction(h.genesis().keys[4], h.genesis().keys[6].public_key, 1, 0,
                                    h.signer());
  bad.amount = 999;  // Break the signature after signing.
  h.node(4).GossipTransaction(bad);
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_FALSE(h.node(0).ledger().IsConfirmed(bad.Id()));
  // Balance unchanged anywhere.
  EXPECT_EQ(h.node(8).ledger().accounts().BalanceOf(h.genesis().keys[6].public_key), 1000u);
}

TEST(NodeTest, RoundRecordsCaptureTimingBreakdown) {
  SimHarness h(BaseConfig(37));
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));
  for (size_t i = 0; i < 3; ++i) {
    for (const RoundRecord& rec : h.node(i).round_records()) {
      if (rec.end_time == 0) {
        continue;
      }
      EXPECT_GE(rec.proposal_done_at, rec.start_time);
      EXPECT_GE(rec.reduction_done_at, rec.proposal_done_at);
      EXPECT_GE(rec.binary_done_at, rec.reduction_done_at);
      EXPECT_GE(rec.end_time, rec.binary_done_at);
      // The winning block was seen before agreement started.
      if (!rec.empty && rec.candidate_block_at > 0) {
        EXPECT_LE(rec.candidate_block_at, rec.proposal_done_at);
      }
    }
  }
}

TEST(NodeTest, CertificatesCoverEveryCompletedRound) {
  SimHarness h(BaseConfig(38));
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  const Node& node = h.node(0);
  for (uint64_t r = 1; r <= 3; ++r) {
    ASSERT_TRUE(node.certificates().count(r)) << "round " << r;
    const Certificate& cert = node.certificates().at(r);
    EXPECT_EQ(cert.block_hash, node.ledger().BlockAtRound(r).Hash());
    // The certificate's weighted votes exceed the step threshold.
    double total = 0;
    for (const VoteMessage& v : cert.votes) {
      (void)v;
      total += 1;  // At least one sub-vote each; exact weight checked by ValidateCertificate.
    }
    EXPECT_GT(total, 0);
  }
}

TEST(NodeTest, EmptyVotersAloneProduceEmptyButConsistentRounds) {
  // All nodes vote empty: rounds commit empty blocks yet stay consistent.
  HarnessConfig cfg = BaseConfig(39);
  cfg.node_factory = [](NodeId id, Simulation* sim, GossipAgent* gossip,
                        const Ed25519KeyPair& key, const GenesisConfig& genesis,
                        const ProtocolParams& params, CryptoSuite crypto,
                        AdversaryCoordinator*) -> std::unique_ptr<Node> {
    return std::make_unique<EmptyVoterNode>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  EXPECT_TRUE(h.node(5).ledger().BlockAtRound(1).is_empty);
  EXPECT_TRUE(h.ChainsConsistent());
}

// ---------------------------------------------------------------------------
// Block validation runs once per node per delivered block.
// ---------------------------------------------------------------------------

// First 8 bytes of a hash, big-endian: the trace events' value_prefix.
uint64_t Prefix(const Hash256& h) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | h[i];
  }
  return v;
}

// Counts seed-VRF verifications — alpha = seed || round + 1, 40 bytes, unlike
// the 45-byte sortition alphas — and the distinct (proposer, proof) pairs
// they were asked about. Thread-safe: verify-pool workers call it too.
class SeedCheckCountingVrf final : public VrfBackend {
 public:
  explicit SeedCheckCountingVrf(const VrfBackend* inner) : inner_(inner) {}

  VrfResult Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const override {
    return inner_->Prove(key, alpha);
  }
  std::optional<VrfOutput> Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                  const VrfProof& proof) const override {
    if (alpha.size() == SeedBytes::kSize + sizeof(uint64_t)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++checks_;
      distinct_.insert({pk, proof});
    }
    return inner_->Verify(pk, alpha, proof);
  }
  const char* name() const override { return inner_->name(); }

  size_t checks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checks_;
  }
  size_t distinct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return distinct_.size();
  }

 private:
  const VrfBackend* inner_;
  mutable std::mutex mu_;
  mutable size_t checks_ = 0;
  mutable std::set<std::pair<PublicKey, VrfProof>> distinct_;
};

// An honest node that can also build its current-round proposal on demand
// and probe block validation directly. With `twins` set, every proposal it
// gossips comes with a twin block whose payments are identical except for
// one flipped signature bit; the twin's id is appended to `twins`.
class ProbeNode : public Node {
 public:
  ProbeNode(NodeId id, Simulation* sim, GossipAgent* gossip, const Ed25519KeyPair& key,
            const GenesisConfig& genesis, const ProtocolParams& params, CryptoSuite crypto,
            std::vector<Hash256>* twins, bool twin_first)
      : Node(id, sim, gossip, key, genesis, params, crypto),
        twins_(twins),
        twin_first_(twin_first) {}

  using Node::ValidateBlockContents;

  // This round's proposal, or null if sortition did not select this node.
  std::shared_ptr<BlockMessage> MakeProposal() {
    const RoundContext ctx = MakeContext();
    SortitionResult sort = RunSortition(*crypto().vrf, key(), ctx.seed, params().tau_proposer,
                                        Role::kProposer, current_round(), 0, SelfWeight(),
                                        ctx.total_weight);
    if (sort.votes == 0) {
      return nullptr;
    }
    auto msg = std::make_shared<BlockMessage>();
    msg->block = BuildBlockProposal();
    msg->block.proposer_vrf = sort.hash;
    msg->block.proposer_proof = sort.proof;
    return msg;
  }

 protected:
  void MaybePropose() override {
    if (twins_ == nullptr) {
      Node::MaybePropose();
      return;
    }
    std::shared_ptr<BlockMessage> valid = MakeProposal();
    if (valid == nullptr) {
      return;
    }
    if (valid->block.txns.empty()) {
      GossipMessage(valid);
      return;
    }
    auto twin = std::make_shared<BlockMessage>();
    twin->block = valid->block;
    twin->block.txns.back().signature[0] ^= 0x01;
    twins_->push_back(twin->DedupId());
    GossipMessage(twin_first_ ? twin : valid);
    GossipMessage(twin_first_ ? valid : twin);
  }

 private:
  std::vector<Hash256>* twins_;
  bool twin_first_;
};

// Six fully meshed nodes, so a block gossiped by its proposer reaches every
// node directly (a rejected block is never relayed).
HarnessConfig MeshConfig(uint64_t seed) {
  HarnessConfig cfg = BaseConfig(seed);
  cfg.n_nodes = 6;
  cfg.gossip_out_degree = cfg.n_nodes - 1;
  cfg.params.tau_proposer = 26;
  cfg.params.tau_step = 100;
  cfg.params.tau_final = 300;
  return cfg;
}

class TwinBlockTest : public ::testing::TestWithParam<bool> {};

TEST_P(TwinBlockTest, OneFlippedSignatureIsRejectedByEveryNode) {
  // GetParam(): the twin is gossiped before the valid block, so its proposer
  // checks it before the valid block's verdict is cached; otherwise after.
  std::vector<Hash256> twins;
  const bool twin_first = GetParam();
  HarnessConfig cfg = MeshConfig(41);
  cfg.node_factory = [&twins, twin_first](NodeId id, Simulation* sim, GossipAgent* gossip,
                                          const Ed25519KeyPair& key,
                                          const GenesisConfig& genesis,
                                          const ProtocolParams& params, CryptoSuite crypto,
                                          AdversaryCoordinator*) -> std::unique_ptr<Node> {
    return std::make_unique<ProbeNode>(id, sim, gossip, key, genesis, params, crypto, &twins,
                                       twin_first);
  };
  SimHarness h(cfg);
  for (size_t i = 0; i < 4; ++i) {
    h.SubmitPayment(i, i + 1, 10, 0);
  }
  h.Start();
  ASSERT_TRUE(h.RunRounds(1, Hours(1)));
  ASSERT_FALSE(twins.empty());

  // No node accepted a twin: none traced its receipt, and none committed it.
  std::set<uint64_t> twin_prefixes;
  for (const Hash256& t : twins) {
    twin_prefixes.insert(Prefix(t));
  }
  for (const TraceEvent& ev : h.tracer().Events()) {
    if (ev.kind == TraceKind::kBlockReceived) {
      EXPECT_EQ(twin_prefixes.count(ev.value_prefix), 0u) << "node " << ev.node;
    }
  }
  // Had any node accepted a twin, the valid block from the same proposer
  // would have marked it an equivocator and the round would have gone empty.
  for (size_t i = 0; i < cfg.n_nodes; ++i) {
    const Block& committed = h.node(i).ledger().BlockAtRound(1);
    EXPECT_EQ(committed.txns.size(), 4u) << "node " << i;
  }
  EXPECT_TRUE(h.ChainsConsistent());
  // The twins did reach the other nodes and were turned away there.
  EXPECT_GE(h.AggregateMetrics().CounterValue("gossip.rejected"),
            twins.size() * (cfg.n_nodes - 1));
}

INSTANTIATE_TEST_SUITE_P(Order, TwinBlockTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("TwinFirst")
                                             : std::string("ValidFirst");
                         });

TEST(NodeTest, EachDeliveredBlockGetsOneSeedVrfCheckPerNode) {
  std::vector<std::unique_ptr<SeedCheckCountingVrf>> vrfs;
  HarnessConfig cfg = MeshConfig(42);
  cfg.node_factory = [&vrfs](NodeId id, Simulation* sim, GossipAgent* gossip,
                             const Ed25519KeyPair& key, const GenesisConfig& genesis,
                             const ProtocolParams& params, CryptoSuite crypto,
                             AdversaryCoordinator*) -> std::unique_ptr<Node> {
    vrfs.push_back(std::make_unique<SeedCheckCountingVrf>(crypto.vrf));
    crypto.vrf = vrfs.back().get();
    return std::make_unique<Node>(id, sim, gossip, key, genesis, params, crypto);
  };
  SimHarness h(cfg);
  for (size_t i = 0; i < 4; ++i) {
    h.SubmitPayment(i, i + 1, 10, 0);
  }
  h.Start();
  ASSERT_TRUE(h.RunRounds(3, Hours(1)));
  ASSERT_EQ(vrfs.size(), cfg.n_nodes);
  for (size_t i = 0; i < vrfs.size(); ++i) {
    // The relay validator and the delivery handler share one validation.
    EXPECT_GT(vrfs[i]->checks(), 0u) << "node " << i;
    EXPECT_EQ(vrfs[i]->checks(), vrfs[i]->distinct()) << "node " << i;
  }
}

TEST(NodeTest, BlockAcceptedAtOneTipIsCheckedAgainAfterTheTipMoves) {
  std::vector<std::unique_ptr<SeedCheckCountingVrf>> vrfs;
  HarnessConfig cfg = MeshConfig(43);
  cfg.node_factory = [&vrfs](NodeId id, Simulation* sim, GossipAgent* gossip,
                             const Ed25519KeyPair& key, const GenesisConfig& genesis,
                             const ProtocolParams& params, CryptoSuite crypto,
                             AdversaryCoordinator*) -> std::unique_ptr<Node> {
    vrfs.push_back(std::make_unique<SeedCheckCountingVrf>(crypto.vrf));
    crypto.vrf = vrfs.back().get();
    return std::make_unique<ProbeNode>(id, sim, gossip, key, genesis, params, crypto, nullptr,
                                       false);
  };
  SimHarness h(cfg);
  h.Start();
  ASSERT_TRUE(h.RunRounds(2, Hours(1)));

  // A fresh proposal for some node's current round, validated by that node.
  ProbeNode* node = nullptr;
  std::shared_ptr<BlockMessage> proposal;
  size_t index = 0;
  for (; index < cfg.n_nodes && proposal == nullptr; ++index) {
    node = static_cast<ProbeNode*>(&h.node(index));
    proposal = node->MakeProposal();
  }
  ASSERT_NE(proposal, nullptr);
  const SeedCheckCountingVrf& vrf = *vrfs[index - 1];
  const uint64_t round = node->current_round();
  ASSERT_EQ(node->ledger().next_round(), round);
  const Block tip_block = node->ledger().Tip();

  // Accepted at tip T; the second call reuses the first one's checks.
  const size_t checks0 = vrf.checks();
  const uint64_t votes = node->ValidateBlockContents(*proposal);
  EXPECT_GT(votes, 0u);
  EXPECT_EQ(node->ValidateBlockContents(*proposal), votes);
  EXPECT_EQ(vrf.checks(), checks0 + 1);

  // The tip moves (a fork switch to the empty block at the same height): the
  // remembered verdict must not vouch for the block at the new tip.
  Ledger* ledger = node->mutable_ledger();
  const Block other = Block::MakeEmpty(round - 1, tip_block.prev_hash,
                                       ledger->SeedForRound(round - 1));
  ASSERT_NE(other.Hash(), tip_block.Hash());
  ASSERT_TRUE(ledger->ReplaceSuffix(round - 1, {other}));
  EXPECT_EQ(node->ValidateBlockContents(*proposal), 0u);

  // Back at tip T, the same chain: the block is valid again.
  ASSERT_TRUE(ledger->ReplaceSuffix(round - 1, {tip_block}));
  EXPECT_EQ(node->ValidateBlockContents(*proposal), votes);
}

}  // namespace
}  // namespace algorand
