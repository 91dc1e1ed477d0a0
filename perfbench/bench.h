// Shared declarations of the repository benchmark (see README.md): the three
// workloads, the per-episode result they report, and the outside-in tracer
// the traced run threads through them.
#ifndef ALGORAND_PERFBENCH_BENCH_H_
#define ALGORAND_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sim_harness.h"

namespace perfbench {

using algorand::Hash256;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scaled-down configuration of every workload, for the self-tests.
  bool tiny = false;
  // Self-test hook: flips one bit of the expected tip or fingerprint that
  // every later repeat is compared against ("tip" or "fingerprint").
  std::string corrupt;
  // Scratch space for store data dirs and span files (inside the checkout).
  std::string scratch_dir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed interval. parent = -1 marks a root span.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Numeric annotations, e.g. crypto time spent inside a round slice.
  std::vector<std::pair<std::string, double>> attrs;
};

// Call count and summed wall time of one crypto operation, updated from any
// thread (verification can run on engine shard workers).
struct OpCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
  void Add(int64_t elapsed) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<uint64_t>(elapsed), std::memory_order_relaxed);
  }
};

struct CryptoCounters {
  OpCounter sign, verify, vrf_prove, vrf_verify;
  uint64_t TotalNs() const {
    return sign.ns.load() + verify.ns.load() + vrf_prove.ns.load() + vrf_verify.ns.load();
  }
};

// The traced run's recorder. Spans are kept in memory and written as JSON
// lines at the end; crypto counters are fed by the timing decorators that
// node_factory injects. Everything else is read from the program's own
// counters after the run, or measured by replaying the run's inputs.
class Tracer {
 public:
  explicit Tracer(uint64_t run_id) : run_id_(run_id) {}

  int64_t Begin(const std::string& name, int64_t parent = -1);
  void End(int64_t id);
  void Attr(int64_t id, const std::string& key, double value);
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJsonl(const std::string& path) const;

  CryptoCounters& crypto() { return crypto_; }
  // Installs the decorated crypto backends on every node the harness builds
  // (including restarted ones). The decorators wrap the backends the harness
  // selected, so results are bit-identical to an undecorated run.
  void Instrument(algorand::HarnessConfig* cfg);

 private:
  uint64_t run_id_;
  std::vector<Span> spans_;
  CryptoCounters crypto_;
  // Decorators outlive every harness of the run (nodes keep raw pointers).
  std::vector<std::unique_ptr<algorand::SignerBackend>> signers_;
  std::vector<std::unique_ptr<algorand::VrfBackend>> vrfs_;
};

// RAII span; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Everything one episode (set-up + measured rounds + checks) reports.
struct Episode {
  // Identity: must repeat exactly for a seed, traced or not.
  uint64_t executed_events = 0;
  uint64_t tip_round = 0;
  Hash256 tip;
  Hash256 fingerprint;

  // End-to-end measurements.
  double construct_s = 0;  // SimHarness constructor.
  double start_s = 0;      // SimHarness::Start.
  double window_s = 0;     // Measured rounds (RunRounds + admission).
  uint64_t rounds = 0;
  // Wall seconds of each measured round, in round order (main.cpp takes each
  // round's median over the repeats of the seed).
  std::vector<double> round_wall_samples;
  std::vector<double> latencies_s;  // Simulated start->append per honest node-round.
  uint64_t committed_tx = 0;
  std::vector<double> restart_s;
  std::vector<double> join_s;
  std::vector<double> join_sim_s;
  double disk_mb = 0;

  // Operations attempted / failed, as the workload defines them.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Correctness verdict; `error` says what failed.
  bool correct = true;
  std::string error;

  // Per-layer values (traced run only), name -> value.
  std::map<std::string, double> layers;

  void Fail(const std::string& what) {
    if (correct) {
      error = what;
    }
    correct = false;
  }
};

// One episode of a workload: set-up, the measured rounds and every check.
// With `setup_only` the episode stops after Start (extra set-up samples).
Episode RunFig5(const Options& opt, Tracer* tracer, bool setup_only);
Episode RunPayments(const Options& opt, Tracer* tracer, bool setup_only);
Episode RunRestartJoin(const Options& opt, Tracer* tracer, bool setup_only);

// Per-layer metrics read from a finished harness (counters the program keeps
// itself) and from the tracer's crypto decorators.
// `round_wall_ns` / `round_crypto_ns` are the wall time of the round slices
// and the decorator-measured crypto time inside them.
void ReadProgramCounters(algorand::SimHarness& h, uint64_t rounds, int64_t round_wall_ns,
                         int64_t round_crypto_ns, size_t engine_threads,
                         const algorand::SortitionCdfCacheStats& cdf_before, Tracer* tracer,
                         Episode* ep);

// Replays committed blocks (and, for payments, the admitted batches) through
// the public Ledger/BlockApplier and Mempool APIs, timing each call.
struct ReplayInput {
  algorand::GenesisConfig genesis;
  std::vector<algorand::Block> blocks;                      // Rounds 1..N.
  std::vector<std::vector<algorand::Transaction>> batches;  // Admission order.
  // Batches [0, round + batch_lead) are admitted before round `round`'s
  // proposal is assembled.
  size_t batch_lead = 0;
  uint64_t block_bytes = 0;
};
void ReplayLedger(const ReplayInput& in, Tracer* tracer, Episode* ep);

// Re-opens each node's store directory through the public BlockStore API and
// reads every retained round back, timing open and reads.
void ReplayStores(const std::vector<std::string>& node_dirs, Tracer* tracer, Episode* ep);

std::string HashHex(const Hash256& h);
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // ALGORAND_PERFBENCH_BENCH_H_
