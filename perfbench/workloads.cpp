// The benchmark's three workloads. Each episode builds a fresh SimHarness from
// the seed, drives it in a closed loop from this thread (the next round
// starts only after the previous RunRounds slice returned) and checks the
// program's outputs. Workload choices are explained in README.md.
#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "bench.h"
#include "src/crypto/signer.h"

namespace perfbench {

using namespace algorand;

namespace {

double ToSec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Harness construction and Start, timed separately (setup_s = sum) and, in
// the traced run, with the crypto decorators installed.
std::unique_ptr<SimHarness> Construct(HarnessConfig cfg, Tracer* tracer, Episode* ep) {
  if (tracer != nullptr) {
    tracer->Instrument(&cfg);
  }
  ScopedSpan span(tracer, "harness.construct");
  const int64_t t0 = NowNs();
  auto h = std::make_unique<SimHarness>(std::move(cfg));
  ep->construct_s = ToSec(NowNs() - t0);
  if (tracer != nullptr) {
    ep->layers["harness.genesis_ns"] = ep->construct_s * 1e9;
  }
  return h;
}

void Start(SimHarness& h, Tracer* tracer, Episode* ep) {
  ScopedSpan span(tracer, "harness.start");
  const int64_t t0 = NowNs();
  h.Start();
  ep->start_s = ToSec(NowNs() - t0);
  if (tracer != nullptr) {
    ep->layers["harness.start_ns"] = ep->start_s * 1e9;
  }
}

// Crypto time the tracer's decorators measured so far (0 untraced).
int64_t CryptoNs(Tracer* tracer) {
  return tracer != nullptr ? static_cast<int64_t>(tracer->crypto().TotalNs()) : 0;
}

// Wall and decorator-measured crypto time of the round slices.
struct SliceClock {
  int64_t wall_ns = 0;
  int64_t crypto_ns = 0;
  std::vector<int64_t> slice_ns;  // One entry per RunSlice call.
};

// Wall seconds of each round slice, each also charged `extra_ns`.
std::vector<double> RoundWallSamples(const SliceClock& clock, double extra_ns = 0) {
  std::vector<double> samples;
  for (int64_t ns : clock.slice_ns) {
    samples.push_back((static_cast<double>(ns) + extra_ns) / 1e9);
  }
  return samples;
}

// RunRounds up to absolute round `round` as one root span.
bool RunSlice(SimHarness& h, uint64_t round, Tracer* tracer, SliceClock* clock) {
  ScopedSpan span(tracer, "round");
  const int64_t crypto0 = CryptoNs(tracer);
  const int64_t t0 = NowNs();
  const bool done = h.RunRounds(round, Hours(24 * 365));
  clock->slice_ns.push_back(NowNs() - t0);
  clock->wall_ns += clock->slice_ns.back();
  if (tracer != nullptr) {
    const int64_t crypto = CryptoNs(tracer) - crypto0;
    clock->crypto_ns += crypto;
    tracer->Attr(span.id(), "round", static_cast<double>(round));
    tracer->Attr(span.id(), "crypto_ns", static_cast<double>(crypto));
  }
  return done;
}

// True when every live node has the same chain length, tip and account-state
// fingerprint.
bool AllAgree(SimHarness& h) {
  const Ledger* ref = nullptr;
  for (size_t i = 0; i < h.node_count(); ++i) {
    if (!h.node_alive(i)) {
      continue;
    }
    const Ledger& l = h.node(i).ledger();
    if (ref == nullptr) {
      ref = &l;
    } else if (l.chain_length() != ref->chain_length() || l.tip_hash() != ref->tip_hash()) {
      return false;
    }
  }
  Hash256 fp;
  bool have = false;
  for (size_t i = 0; i < h.node_count(); ++i) {
    if (!h.node_alive(i)) {
      continue;
    }
    Hash256 f = h.node(i).ledger().accounts().StateFingerprint();
    if (have && f != fp) {
      return false;
    }
    fp = f;
    have = true;
  }
  return true;
}

// Steps the simulation (the network keeps running) until every live node
// agrees; false if that does not happen within `budget` of simulated time.
bool RunUntilAgree(SimHarness& h, SimTime budget) {
  const SimTime deadline = h.sim().now() + budget;
  while (!AllAgree(h)) {
    if (h.sim().now() >= deadline) {
      return false;
    }
    h.sim().RunUntil(h.sim().now() + Millis(20));
  }
  return true;
}

// Simulated start->append time of every honest node-round in [1, rounds].
void CaptureLatencies(const SimHarness& h, uint64_t rounds, Episode* ep) {
  for (uint64_t r = 1; r <= rounds; ++r) {
    for (double v : h.RoundLatencies(r)) {
      ep->latencies_s.push_back(v);
    }
  }
}

// Common end-of-episode checks and identity capture.
void Finish(SimHarness& h, uint64_t rounds, Episode* ep) {
  const auto safety = h.CheckSafety();
  if (!safety.ok) {
    ep->Fail("safety violated: " + safety.violation);
  }
  if (!RunUntilAgree(h, Minutes(10))) {
    ep->Fail("live nodes did not settle on one tip and fingerprint");
  }
  const Ledger& l = h.node(0).ledger();
  ep->executed_events = h.sim().executed_events();
  ep->tip_round = l.chain_length() - 1;
  ep->tip = l.tip_hash();
  ep->fingerprint = l.accounts().StateFingerprint();
  for (uint64_t r = 1; r <= rounds && r < l.chain_length(); ++r) {
    if (r >= l.base_round()) {
      ep->committed_tx += l.BlockAtRound(r).txns.size();
    }
  }
}

std::vector<Block> ChainBlocks(const Ledger& l) {
  std::vector<Block> blocks;
  for (uint64_t r = std::max<uint64_t>(1, l.base_round()); r < l.chain_length(); ++r) {
    blocks.push_back(l.BlockAtRound(r));
  }
  return blocks;
}

void SubmitEverywhere(SimHarness& h, const std::vector<Transaction>& batch) {
  for (const Transaction& tx : batch) {
    for (size_t i = 0; i < h.node_count(); ++i) {
      h.sim().SetExternalStream(static_cast<uint32_t>(i));
      h.node(i).SubmitTransaction(tx);
    }
  }
  h.sim().SetExternalStream(Simulation::kGlobalStream);
}

}  // namespace

// fig5-200: the Figure 5 configuration on the sequential engine.
Episode RunFig5(const Options& opt, Tracer* tracer, bool setup_only) {
  HarnessConfig cfg;
  cfg.n_nodes = opt.tiny ? 20 : 200;
  cfg.rng_seed = opt.seed;
  cfg.params = ProtocolParams::Paper();
  cfg.params.tau_proposer = 26;
  cfg.params.tau_step = 100;
  cfg.params.tau_final = 300;
  cfg.params.block_size_bytes = 1 << 20;
  cfg.net.uplink_bytes_per_sec = 20e6 / 8;
  cfg.latency = HarnessConfig::Latency::kCity;
  cfg.use_sim_crypto = true;
  // Sequential engine. On a 4-vCPU VM the parallel engine with 2 shard
  // workers was faster on average, but every lookahead window wakes the
  // workers, and its wall time per round followed the VM's steal time: runs
  // of one seed spread 1.6-2.9 s against 2.2-2.6 s here (README.md).
  cfg.sim_workers = 0;
  const uint64_t rounds = opt.tiny ? 2 : 3;

  Episode ep;
  const SortitionCdfCacheStats cdf0 = GetSortitionCdfCacheStats();
  auto h = Construct(cfg, tracer, &ep);
  Start(*h, tracer, &ep);
  if (setup_only) {
    return ep;
  }
  SliceClock clock;
  for (uint64_t r = 1; r <= rounds; ++r) {
    if (!RunSlice(*h, r, tracer, &clock)) {
      ep.Fail("round " + std::to_string(r) + " did not complete");
      break;
    }
  }
  ep.rounds = rounds;
  ep.window_s = ToSec(clock.wall_ns);
  ep.round_wall_samples = RoundWallSamples(clock);
  // Failed operations: honest node-rounds that hung or agreed on the empty
  // block.
  for (size_t i = 0; i < h->node_count(); ++i) {
    for (const RoundRecord& rec : h->node(i).round_records()) {
      if (rec.round >= 1 && rec.round <= rounds) {
        ++ep.attempted;
        ep.failed += (rec.hung || rec.empty) ? 1 : 0;
      }
    }
  }
  if (ep.attempted < rounds * h->node_count()) {
    ep.Fail("some honest node-rounds never finished");
  }
  CaptureLatencies(*h, rounds, &ep);
  Finish(*h, rounds, &ep);
  if (tracer != nullptr && ep.correct) {
    ReadProgramCounters(*h, rounds, clock.wall_ns, clock.crypto_ns, cfg.sim_workers, cdf0,
                        tracer, &ep);
    ReplayInput in;
    in.genesis = h->genesis().config;
    in.blocks = ChainBlocks(h->node(0).ledger());
    in.block_bytes = cfg.params.block_size_bytes;
    h.reset();
    ReplayLedger(in, tracer, &ep);
    ep.layers["store.open_ns"] = 0;  // No store in this workload.
  }
  return ep;
}

// payments-1m: full 1 MB blocks of pre-signed payments over a 1M-account
// table, real Ed25519 + ECVRF, every pool at the program's default.
Episode RunPayments(const Options& opt, Tracer* tracer, bool setup_only) {
  HarnessConfig cfg;
  cfg.n_nodes = opt.tiny ? 4 : 6;
  cfg.gossip_out_degree = cfg.n_nodes - 1;  // Full mesh: see RunRestartJoin.
  cfg.rng_seed = opt.seed;
  cfg.use_sim_crypto = false;
  // Consensus stake must dwarf client stake: non-voting weight shrinks the
  // expected committee weight and marginal rounds time out into empty blocks.
  cfg.stake_per_user = 50'000'000;
  cfg.tx_clients = opt.tiny ? 8 : 64;
  cfg.client_stake = 50'000;
  cfg.filler_accounts = opt.tiny ? 10'000 : 1'000'000;
  cfg.params.tau_proposer = 26;  // Figure 5's committees (README.md).
  cfg.params.tau_step = 100;
  cfg.params.tau_final = 300;
  cfg.params.block_size_bytes = opt.tiny ? (32 << 10) : (1 << 20);
  const uint64_t rounds = opt.tiny ? 3 : 4;
  const size_t capacity = cfg.params.block_size_bytes / Transaction::kWireSize;

  Episode ep;
  const SortitionCdfCacheStats cdf0 = GetSortitionCdfCacheStats();
  auto h = Construct(cfg, tracer, &ep);

  // Load generation, outside every timed window: one block's worth of
  // payments per round, signed up front (once per process: every episode of
  // a seed pays the same). Batch b pays fee rounds + 1 - b, so the
  // fee-priority pool drains batches oldest first and each payment is due
  // within two rounds of its admission.
  static std::vector<std::vector<Transaction>> signed_batches;
  if (!setup_only && signed_batches.empty()) {
    const auto& keys = h->client_keys();
    std::vector<uint64_t> nonces(keys.size(), 0);
    Ed25519Signer signer;
    signed_batches.resize(rounds);
    size_t k = 0;
    for (uint64_t b = 0; b < rounds; ++b) {
      signed_batches[b].reserve(capacity);
      for (size_t j = 0; j < capacity; ++j, ++k) {
        const size_t from = k % keys.size();
        const size_t to = (from + 1) % keys.size();
        signed_batches[b].push_back(MakeTransaction(keys[from], keys[to].public_key,
                                                    /*amount=*/1, nonces[from]++, signer,
                                                    /*fee=*/rounds + 1 - b));
      }
    }
  }
  const std::vector<std::vector<Transaction>> empty;
  const auto& batches = setup_only ? empty : signed_batches;

  // Admission (signature verification + pool insert at every node) is part
  // of the measured window. Two batches go in before the first round so the
  // pool holds a full block even for proposals assembled in the same event
  // cascade that committed the previous round.
  SliceClock admission;
  std::vector<uint64_t> admitted_after(batches.size(), 0);  // Round before admission.
  auto admit = [&](size_t b, uint64_t after_round) {
    ScopedSpan span(tracer, "harness.admit");
    const int64_t crypto0 = CryptoNs(tracer);
    const int64_t t0 = NowNs();
    SubmitEverywhere(*h, batches[b]);
    admission.wall_ns += NowNs() - t0;
    admission.crypto_ns += CryptoNs(tracer) - crypto0;
    admitted_after[b] = after_round;
  };
  for (size_t b = 0; b < std::min<size_t>(2, batches.size()); ++b) {
    admit(b, 0);
  }
  Start(*h, tracer, &ep);
  if (setup_only) {
    return ep;
  }
  SliceClock clock;
  for (uint64_t r = 1; r <= rounds; ++r) {
    if (!RunSlice(*h, r, tracer, &clock)) {
      ep.Fail("round " + std::to_string(r) + " did not complete");
      break;
    }
    if (r + 1 < batches.size()) {
      admit(r + 1, r);
    }
  }
  ep.rounds = rounds;
  ep.window_s = ToSec(clock.wall_ns + admission.wall_ns);
  // Admission is steady verification work: spread it evenly over the rounds.
  ep.round_wall_samples =
      RoundWallSamples(clock, static_cast<double>(admission.wall_ns) / rounds);
  CaptureLatencies(*h, rounds, &ep);
  Finish(*h, rounds, &ep);
  if (ep.committed_tx == 0) {
    ep.Fail("no payment committed");
  }

  // Failed operations: admitted payments not committed within two rounds.
  const Ledger& l = h->node(0).ledger();
  std::unordered_map<Hash256, uint64_t, FixedBytesHasher> committed_at;
  for (uint64_t r = 1; r < l.chain_length(); ++r) {
    for (const Transaction& tx : l.BlockAtRound(r).txns) {
      committed_at.emplace(tx.Id(), r);
    }
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const Transaction& tx : batches[b]) {
      ++ep.attempted;
      auto it = committed_at.find(tx.Id());
      if (it == committed_at.end() || it->second > admitted_after[b] + 2) {
        ++ep.failed;
      }
    }
  }

  if (tracer != nullptr && ep.correct) {
    // The measured window includes admission, where payments are verified.
    ReadProgramCounters(*h, rounds, clock.wall_ns + admission.wall_ns,
                        clock.crypto_ns + admission.crypto_ns, 1, cdf0, tracer, &ep);
    ReplayInput in;
    in.genesis = h->genesis().config;
    in.blocks = ChainBlocks(l);
    in.batches = batches;
    in.batch_lead = 1;
    in.block_bytes = cfg.params.block_size_bytes;
    h.reset();
    ReplayLedger(in, tracer, &ep);
    ep.layers["store.open_ns"] = 0;  // No store in this workload.
  }
  return ep;
}

// restart-join: a long durable chain, then cold restarts from disk and
// wiped-node joins while the network keeps running.
Episode RunRestartJoin(const Options& opt, Tracer* tracer, bool setup_only) {
  namespace fs = std::filesystem;
  static uint64_t episode_counter = 0;
  const std::string dir = opt.scratch_dir + "/data-" + std::to_string(opt.seed) + "-" +
                          std::to_string(episode_counter++);
  fs::remove_all(dir);

  HarnessConfig cfg;
  cfg.n_nodes = 6;
  // Full mesh. With the default out-degree of 4, about half the seeds leave
  // one or two of the 15 links out, which changes the gossip work per round
  // by up to 20% from seed to seed.
  cfg.gossip_out_degree = cfg.n_nodes - 1;
  cfg.rng_seed = opt.seed;
  // The paper's committee sizes (tau_step 2000, tau_final 10000). Each join
  // runs with one node of six down. With Figure 5's smaller committees
  // (tau_step 100) a step then misses its quorum often enough that on seed 4
  // the nodes split three and three, one round apart (less than the lead that
  // starts catch-up), and the network stalled past the 10-minute budget.
  cfg.params = ProtocolParams::Paper();
  cfg.params.block_size_bytes = 8 << 10;
  cfg.latency = HarnessConfig::Latency::kUniform;
  cfg.uniform_latency = Millis(50);
  cfg.uniform_jitter = Millis(20);
  cfg.use_sim_crypto = true;
  cfg.stake_per_user = 50'000'000;
  cfg.tx_clients = 16;
  cfg.client_stake = 50'000;
  cfg.tx_load_per_round = 20;
  cfg.data_dir = dir;
  cfg.params.checkpoint_interval = opt.tiny ? 20 : 100;
  cfg.params.fastsync_enabled = true;
  // Ends mid-interval, so a restart installs a checkpoint and then replays
  // the WAL suffix above it.
  const uint64_t rounds = opt.tiny ? 50 : 1050;
  const size_t cycles = opt.tiny ? 1 : 4;

  Episode ep;
  const SortitionCdfCacheStats cdf0 = GetSortitionCdfCacheStats();
  auto h = Construct(cfg, tracer, &ep);
  Start(*h, tracer, &ep);
  if (setup_only) {
    h.reset();
    fs::remove_all(dir);
    return ep;
  }
  SliceClock clock;
  for (uint64_t r = 1; r <= rounds; ++r) {
    if (!RunSlice(*h, r, tracer, &clock)) {
      ep.Fail("round " + std::to_string(r) + " did not complete");
      break;
    }
  }
  ep.rounds = rounds;
  ep.window_s = ToSec(clock.wall_ns);
  ep.round_wall_samples = RoundWallSamples(clock);
  // Before the cycles: restarted nodes start new round records.
  CaptureLatencies(*h, rounds, &ep);

  // Store writes go through a background thread; restarts read the disk and
  // fast-sync responders serve checkpoints from it. Draining every writer
  // first makes what a restarted or joining node finds a function of the
  // seed alone.
  auto flush_all = [&] {
    for (size_t i = 0; i < h->node_count(); ++i) {
      if (BlockStore* s = h->node_store(i)) {
        s->Flush();
      }
    }
  };
  for (size_t c = 0; c < cycles && ep.correct; ++c) {
    // Cold restart from disk.
    const size_t a = 1 + (2 * c) % (cfg.n_nodes - 1);
    flush_all();
    {
      ScopedSpan span(tracer, "harness.kill");
      h->KillNode(a);
    }
    {
      ScopedSpan span(tracer, "harness.restart");
      const int64_t t0 = NowNs();
      h->RestartNode(a, /*from_snapshot=*/true);
      ep.restart_s.push_back(ToSec(NowNs() - t0));
    }
    const Ledger& restored = h->node(a).ledger();
    if (restored.base_round() == 0 || restored.chain_length() <= restored.base_round() + 1) {
      ep.Fail("restart did not install a checkpoint and replay a WAL suffix");
    }
    ++ep.attempted;
    {
      ScopedSpan span(tracer, "harness.restart_converge");
      if (!RunUntilAgree(*h, Minutes(10))) {
        ++ep.failed;
        ep.Fail("restarted node " + std::to_string(a) + " did not reach the live tip");
      }
    }

    // Wiped node joins (checkpoint fast-sync, then catch-up for the suffix).
    const size_t b = 1 + (2 * c + 1) % (cfg.n_nodes - 1);
    flush_all();
    {
      ScopedSpan span(tracer, "harness.kill");
      h->KillNode(b);
    }
    {
      ScopedSpan span(tracer, "harness.join");
      const int64_t t0 = NowNs();
      const SimTime sim0 = h->sim().now();
      h->RestartNode(b, /*from_snapshot=*/false);
      ++ep.attempted;
      if (!RunUntilAgree(*h, Minutes(10))) {
        ++ep.failed;
        ep.Fail("joined node " + std::to_string(b) + " did not reach the live tip");
      }
      ep.join_s.push_back(ToSec(NowNs() - t0));
      ep.join_sim_s.push_back(ToSeconds(h->sim().now() - sim0));
    }
  }
  flush_all();
  double disk = 0;
  std::vector<std::string> node_dirs;
  for (size_t i = 0; i < h->node_count(); ++i) {
    node_dirs.push_back(dir + "/node-" + std::to_string(i));
    disk += static_cast<double>(DirBytes(node_dirs.back()));
  }
  ep.disk_mb = disk / static_cast<double>(h->node_count()) / 1e6;
  Finish(*h, rounds, &ep);

  if (tracer != nullptr && ep.correct) {
    ReadProgramCounters(*h, rounds, clock.wall_ns, clock.crypto_ns, 1, cdf0, tracer, &ep);
    ReplayInput in;
    in.genesis = h->genesis().config;
    in.blocks = ChainBlocks(h->node(0).ledger());
    for (const Block& block : in.blocks) {
      in.batches.push_back(block.txns);
    }
    in.block_bytes = cfg.params.block_size_bytes;
    h.reset();
    ReplayLedger(in, tracer, &ep);
    ReplayStores(node_dirs, tracer, &ep);
  }
  h.reset();
  fs::remove_all(dir);
  return ep;
}

}  // namespace perfbench
