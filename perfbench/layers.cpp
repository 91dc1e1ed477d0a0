// Outside-in per-layer measurement: spans around the calls the benchmark
// makes, timing decorators around the crypto backends, the program's own
// counters, and timed replays of the run's inputs through public APIs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "src/ledger/exec.h"
#include "src/ledger/mempool.h"
#include "src/store/block_store.h"

namespace perfbench {

using namespace algorand;

namespace {

class TimedSigner final : public SignerBackend {
 public:
  TimedSigner(const SignerBackend* inner, CryptoCounters* counters)
      : inner_(inner), counters_(counters) {}
  Signature Sign(const Ed25519KeyPair& key, std::span<const uint8_t> message) const override {
    const int64_t t0 = NowNs();
    Signature sig = inner_->Sign(key, message);
    counters_->sign.Add(NowNs() - t0);
    return sig;
  }
  bool Verify(const PublicKey& pk, std::span<const uint8_t> message,
              const Signature& sig) const override {
    const int64_t t0 = NowNs();
    const bool ok = inner_->Verify(pk, message, sig);
    counters_->verify.Add(NowNs() - t0);
    return ok;
  }
  const char* name() const override { return inner_->name(); }

 private:
  const SignerBackend* inner_;
  CryptoCounters* counters_;
};

class TimedVrf final : public VrfBackend {
 public:
  TimedVrf(const VrfBackend* inner, CryptoCounters* counters)
      : inner_(inner), counters_(counters) {}
  VrfResult Prove(const Ed25519KeyPair& key, std::span<const uint8_t> alpha) const override {
    const int64_t t0 = NowNs();
    VrfResult result = inner_->Prove(key, alpha);
    counters_->vrf_prove.Add(NowNs() - t0);
    return result;
  }
  std::optional<VrfOutput> Verify(const PublicKey& pk, std::span<const uint8_t> alpha,
                                  const VrfProof& proof) const override {
    const int64_t t0 = NowNs();
    std::optional<VrfOutput> out = inner_->Verify(pk, alpha, proof);
    counters_->vrf_verify.Add(NowNs() - t0);
    return out;
  }
  const char* name() const override { return inner_->name(); }

 private:
  const VrfBackend* inner_;
  CryptoCounters* counters_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

int64_t Tracer::Begin(const std::string& name, int64_t parent) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

void Tracer::Attr(int64_t id, const std::string& key, double value) {
  spans_[static_cast<size_t>(id)].attrs.emplace_back(key, value);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"run\":" << run_id_ << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << JsonEscape(s.name) << "\",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin);
    for (const auto& [key, value] : s.attrs) {
      char buf[64];
      snprintf(buf, sizeof(buf), "%.17g", value);
      out << ",\"" << JsonEscape(key) << "\":" << buf;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

void Tracer::Instrument(HarnessConfig* cfg) {
  cfg->node_factory = [this](NodeId id, Simulation* sim, GossipAgent* gossip,
                             const Ed25519KeyPair& key, const GenesisConfig& genesis,
                             const ProtocolParams& params, CryptoSuite crypto,
                             AdversaryCoordinator*) -> std::unique_ptr<Node> {
    signers_.push_back(std::make_unique<TimedSigner>(crypto.signer, &crypto_));
    vrfs_.push_back(std::make_unique<TimedVrf>(crypto.vrf, &crypto_));
    crypto.signer = signers_.back().get();
    crypto.vrf = vrfs_.back().get();
    return std::make_unique<Node>(id, sim, gossip, key, genesis, params, crypto);
  };
}

void ReadProgramCounters(SimHarness& h, uint64_t rounds, int64_t round_wall_ns,
                         int64_t round_crypto_ns, size_t engine_threads,
                         const SortitionCdfCacheStats& cdf_before, Tracer* tracer, Episode* ep) {
  const MetricsSnapshot m = h.AggregateMetrics();
  auto c = [&m](const std::string& name) { return static_cast<double>(m.CounterValue(name)); };
  auto& L = ep->layers;
  const double wall_s = static_cast<double>(round_wall_ns) / 1e9;

  // netsim.engine
  const double events = static_cast<double>(h.sim().executed_events());
  L["netsim.engine.events"] = events;
  L["netsim.engine.events_per_s"] = Ratio(events, wall_s);
  L["netsim.engine.windows"] = c("sim.windows");
  L["netsim.engine.cross_shard_events"] = c("sim.cross_shard_events");
  double worker_sum = 0;
  double worker_max = 0;
  size_t workers = 0;
  for (const auto& [name, value] : h.sim().EngineStats()) {
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".events") == 0 &&
        name.rfind("sim.worker", 0) == 0) {
      worker_sum += static_cast<double>(value);
      worker_max = std::max(worker_max, static_cast<double>(value));
      ++workers;
    }
  }
  // The sequential engine is one shard: perfectly balanced by definition.
  L["netsim.engine.worker_imbalance"] =
      workers == 0 ? 1.0 : Ratio(worker_max, worker_sum / static_cast<double>(workers));

  // netsim.gossip
  L["netsim.gossip.msgs_out.vote"] = c("gossip.msgs_out.vote");
  L["netsim.gossip.msgs_out.priority"] = c("gossip.msgs_out.priority");
  L["netsim.gossip.msgs_out.block"] = c("gossip.msgs_out.block");
  L["netsim.gossip.bytes_per_user_per_round"] =
      Ratio(c("net.bytes_sent"), static_cast<double>(h.total_users() * rounds));
  L["netsim.gossip.dup_ratio"] =
      Ratio(c("gossip.dup_dropped"), static_cast<double>(m.CounterSumByPrefix("gossip.msgs_in.")));

  // core.sortition (process-wide cache: report this episode's delta)
  const SortitionCdfCacheStats cdf = GetSortitionCdfCacheStats();
  L["core.sortition.cdf_hits"] = static_cast<double>(cdf.hits - cdf_before.hits);
  L["core.sortition.cdf_misses"] = static_cast<double>(cdf.misses - cdf_before.misses);

  // core.verification_cache
  const double hits = c("verify.cache_hits");
  const double misses = c("verify.cache_misses");
  L["core.verification_cache.hits"] = hits;
  L["core.verification_cache.misses"] = misses;
  L["core.verification_cache.hit_ratio"] = Ratio(hits, hits + misses);
  L["core.verification_cache.pool_waits"] = c("verify.pool_waits");

  // crypto (decorator counters)
  CryptoCounters& cc = tracer->crypto();
  const std::pair<const char*, OpCounter*> ops[] = {{"sign", &cc.sign},
                                                     {"verify", &cc.verify},
                                                     {"vrf_prove", &cc.vrf_prove},
                                                     {"vrf_verify", &cc.vrf_verify}};
  for (const auto& [name, op] : ops) {
    L[std::string("crypto.") + name + ".calls"] = static_cast<double>(op->calls.load());
    L[std::string("crypto.") + name + ".ns"] = static_cast<double>(op->ns.load());
  }
  // Crypto time spent inside the round slices, spread over the engine's
  // threads (shard workers verify concurrently).
  const double threads = static_cast<double>(std::max<size_t>(1, engine_threads));
  const double crypto_wall_ns = static_cast<double>(round_crypto_ns) / threads;
  L["crypto.share_of_round_wall"] = Ratio(crypto_wall_ns, static_cast<double>(round_wall_ns));
  L["harness.unattributed_ns"] =
      std::max(0.0, static_cast<double>(round_wall_ns) - crypto_wall_ns);

  // core.ba_star
  L["core.ba_star.votes_cast"] = c("node.votes.cast");
  L["core.ba_star.votes_counted"] = c("node.votes.counted");
  auto steps = m.histograms.find("ba.binary_steps");
  L["core.ba_star.binary_steps_mean"] = steps == m.histograms.end() ? 0 : steps->second.Mean();
  L["core.ba_star.rounds_final"] = c("node.rounds.final");
  L["core.ba_star.rounds_empty"] = c("node.rounds.empty");
  L["core.ba_star.rounds_hung"] = c("node.rounds.hung");

  // ledger.mempool (build_block_ns comes from the replay)
  L["ledger.mempool.added"] = c("mempool.added");
  L["ledger.mempool.evicted"] = c("mempool.evicted");
  L["ledger.mempool.stale"] = c("mempool.stale");

  // store (open_ns comes from the store replay)
  for (const char* name : {"bytes_written", "fsyncs", "checkpoints_written",
                           "compaction_bytes_reclaimed", "replay_rounds", "checkpoint_loads",
                           "index_hits", "index_misses"}) {
    L[std::string("store.") + name] = c(std::string("store.") + name);
  }

  // core.fastsync / core.catchup
  L["core.fastsync.links_verified"] = c("catchup.fastsync_links_verified");
  L["core.fastsync.bytes"] = c("catchup.fastsync_bytes");
  L["core.fastsync.sessions_completed_ratio"] =
      Ratio(c("catchup.fastsync_completed"), c("catchup.fastsync_sessions"));
  L["core.catchup.sessions_completed_ratio"] =
      Ratio(c("catchup.completed"), c("catchup.sessions"));
  L["core.catchup.timeouts"] = c("catchup.timeouts");
}

void ReplayLedger(const ReplayInput& in, Tracer* tracer, Episode* ep) {
  ScopedSpan root(tracer, "replay.ledger");
  Ledger ledger(in.genesis);
  BlockApplier applier;
  ledger.SetApplier(&applier);
  Mempool pool;
  int64_t apply_ns = 0;
  int64_t build_ns = 0;
  uint64_t txns = 0;
  uint64_t partitions = 0;
  size_t admitted = 0;
  for (const Block& block : in.blocks) {
    // Admission follows the run: batches [0, round + lead) are in the pool
    // before the round's proposal is assembled.
    const size_t due = std::min(in.batches.size(),
                                static_cast<size_t>(block.round) + in.batch_lead);
    for (; admitted < due; ++admitted) {
      ScopedSpan s(tracer, "ledger.mempool.add_batch", root.id());
      for (const Transaction& tx : in.batches[admitted]) {
        pool.Add(tx, ledger.accounts().NextNonceOf(tx.from));
      }
    }
    {
      ScopedSpan s(tracer, "ledger.mempool.build_block", root.id());
      const int64_t t0 = NowNs();
      pool.BuildBlock(ledger.accounts(), in.block_bytes);
      build_ns += NowNs() - t0;
    }
    partitions += PartitionByAccount(block.txns).size();
    {
      ScopedSpan s(tracer, "ledger.exec.apply", root.id());
      const int64_t t0 = NowNs();
      const bool ok = ledger.Append(block, ConsensusKind::kFinal);
      apply_ns += NowNs() - t0;
      if (!ok) {
        ep->Fail("ledger replay rejected block " + std::to_string(block.round));
        return;
      }
    }
    txns += block.txns.size();
    pool.ObserveCommitted(block.txns, ledger.accounts());
  }
  if (ledger.tip_hash() != ep->tip || ledger.accounts().StateFingerprint() != ep->fingerprint) {
    ep->Fail("ledger replay does not reproduce the run's tip and fingerprint");
  }
  const double blocks = static_cast<double>(std::max<size_t>(1, in.blocks.size()));
  ep->layers["ledger.mempool.build_block_ns"] = static_cast<double>(build_ns) / blocks;
  ep->layers["ledger.exec.apply_ns_per_block"] = static_cast<double>(apply_ns) / blocks;
  ep->layers["ledger.exec.replay_ns_per_tx"] =
      Ratio(static_cast<double>(apply_ns), static_cast<double>(txns));
  ep->layers["ledger.exec.partitions"] = static_cast<double>(partitions) / blocks;
}

void ReplayStores(const std::vector<std::string>& node_dirs, Tracer* tracer, Episode* ep) {
  ScopedSpan root(tracer, "replay.store");
  int64_t open_ns = 0;
  size_t opened = 0;
  for (const std::string& dir : node_dirs) {
    StoreOptions opts;
    opts.dir = dir;
    opts.background_writer = false;
    std::string error;
    std::unique_ptr<BlockStore> store;
    {
      ScopedSpan s(tracer, "store.open", root.id());
      const int64_t t0 = NowNs();
      store = BlockStore::Open(opts, &error);
      open_ns += NowNs() - t0;
    }
    if (store == nullptr) {
      ep->Fail("store replay cannot open " + dir + ": " + error);
      return;
    }
    ++opened;
    ScopedSpan s(tracer, "store.read_rounds", root.id());
    for (uint64_t r = std::max<uint64_t>(1, store->first_retained_round());
         r <= store->max_round(); ++r) {
      if (!store->ReadRound(r).has_value()) {
        ep->Fail("store replay cannot read round " + std::to_string(r) + " of " + dir);
        return;
      }
    }
  }
  ep->layers["store.open_ns"] =
      Ratio(static_cast<double>(open_ns), static_cast<double>(opened));
}

std::string HashHex(const Hash256& h) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < h.size(); ++i) {
    out += kHex[h.data()[i] >> 4];
    out += kHex[h.data()[i] & 0xf];
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace perfbench
