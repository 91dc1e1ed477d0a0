// Benchmark program: runs one workload for a seed and prints one JSON line
//
//   perfbench --workload fig5-200|payments-1m|restart-join --seed N
//             --seconds S --trace 0|1 --scratch DIR [--tiny] [--corrupt tip|fingerprint]
//
// --trace 0 repeats whole episodes (set-up + measured rounds + checks) until
// S seconds have passed and at least two episodes ran (four on fig5-200),
// and reports the end-to-end metrics as medians. --trace 1 runs one plain and one traced
// episode of the same seed, requires both to be identical, and reports the
// per-layer metrics.
// Every repeat of a (sub-)seed must reproduce the first one's executed events,
// tip and account-state fingerprint; any mismatch or failed check exits 1.
// run.py builds this program and adds peak memory to the result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run (README.md maps each to the
// end-to-end metric and workload it should move).
const Metric kLayerMetrics[] = {
    {"netsim.engine.events", "count"},
    {"netsim.engine.events_per_s", "1/s"},
    {"netsim.engine.windows", "count"},
    {"netsim.engine.cross_shard_events", "count"},
    {"netsim.engine.worker_imbalance", "ratio"},
    {"netsim.gossip.msgs_out.vote", "count"},
    {"netsim.gossip.msgs_out.priority", "count"},
    {"netsim.gossip.msgs_out.block", "count"},
    {"netsim.gossip.bytes_per_user_per_round", "B/user/round"},
    {"netsim.gossip.dup_ratio", "ratio"},
    {"core.sortition.cdf_hits", "count"},
    {"core.sortition.cdf_misses", "count"},
    {"core.verification_cache.hits", "count"},
    {"core.verification_cache.misses", "count"},
    {"core.verification_cache.hit_ratio", "ratio"},
    {"core.verification_cache.pool_waits", "count"},
    {"crypto.sign.calls", "count"},
    {"crypto.sign.ns", "ns"},
    {"crypto.verify.calls", "count"},
    {"crypto.verify.ns", "ns"},
    {"crypto.vrf_prove.calls", "count"},
    {"crypto.vrf_prove.ns", "ns"},
    {"crypto.vrf_verify.calls", "count"},
    {"crypto.vrf_verify.ns", "ns"},
    {"crypto.share_of_round_wall", "ratio"},
    {"core.ba_star.votes_cast", "count"},
    {"core.ba_star.votes_counted", "count"},
    {"core.ba_star.binary_steps_mean", "count"},
    {"core.ba_star.rounds_final", "count"},
    {"core.ba_star.rounds_empty", "count"},
    {"core.ba_star.rounds_hung", "count"},
    {"ledger.mempool.added", "count"},
    {"ledger.mempool.evicted", "count"},
    {"ledger.mempool.stale", "count"},
    {"ledger.mempool.build_block_ns", "ns"},
    {"ledger.exec.apply_ns_per_block", "ns"},
    {"ledger.exec.replay_ns_per_tx", "ns"},
    {"ledger.exec.partitions", "count"},
    {"store.bytes_written", "bytes"},
    {"store.fsyncs", "count"},
    {"store.checkpoints_written", "count"},
    {"store.compaction_bytes_reclaimed", "bytes"},
    {"store.open_ns", "ns"},
    {"store.replay_rounds", "count"},
    {"store.checkpoint_loads", "count"},
    {"store.index_hits", "count"},
    {"store.index_misses", "count"},
    {"core.fastsync.links_verified", "count"},
    {"core.fastsync.bytes", "bytes"},
    {"core.fastsync.sessions_completed_ratio", "ratio"},
    {"core.catchup.sessions_completed_ratio", "ratio"},
    {"core.catchup.timeouts", "count"},
    {"harness.genesis_ns", "ns"},
    {"harness.start_ns", "ns"},
    {"harness.unattributed_ns", "ns"},
    {"harness.tracing_overhead_s", "s"},
    // Workload-level results of the plain episode that exist on only some
    // workloads (0 elsewhere), so they cannot be end-to-end metrics.
    {"workload.committed_tx_per_s", "1/s"},
    {"workload.restart_s", "s"},
    {"workload.join_s", "s"},
    {"workload.join_sim_s", "s"},
    {"workload.disk_mb", "MB"},
    {"workload.failed_frac", "ratio"},
};

// End-to-end metrics this program measures (run.py adds peak_rss_mb).
const Metric kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"round_wall_s", "s"},
    {"round_latency_p50_s", "s"},
    {"round_latency_p95_s", "s"},
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--tiny") {
      opt->tiny = true;
    } else if (!value(&v)) {
      return false;
    } else if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::stoull(v);
    } else if (arg == "--seconds") {
      opt->seconds = std::stod(v);
    } else if (arg == "--trace") {
      opt->trace = v == "1";
    } else if (arg == "--corrupt") {
      opt->corrupt = v;
    } else if (arg == "--scratch") {
      opt->scratch_dir = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->scratch_dir.empty() &&
         (opt->corrupt.empty() || opt->corrupt == "tip" || opt->corrupt == "fingerprint");
}

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    fprintf(stderr,
            "usage: perfbench --workload fig5-200|payments-1m|restart-join --seed N "
            "--seconds S --trace 0|1 --scratch DIR [--tiny] [--corrupt tip|fingerprint]\n");
    return 2;
  }
  Episode (*run)(const Options&, Tracer*, bool) = nullptr;
  size_t setup_samples = 0;  // Set-ups per run for the setup_s median.
  // Topologies per run: fig5-200's wall time per round depends on the seed's
  // city/gossip layout by about +-10%, so its episodes cycle through three
  // sub-seeds of --seed and the median covers all three.
  uint64_t topologies = 1;
  // Episodes per run at least: every sub-seed once and one repeat, so that
  // every run checks that a repeat reproduces its first episode.
  size_t min_episodes = 2;
  if (opt.workload == "fig5-200") {
    run = RunFig5;
    setup_samples = 25;
    topologies = 3;
    min_episodes = 4;
  } else if (opt.workload == "payments-1m") {
    run = RunPayments;
    setup_samples = 3;
  } else if (opt.workload == "restart-join") {
    run = RunRestartJoin;
    setup_samples = 25;
  } else {
    fprintf(stderr, "perfbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // Worker pools stay at the program's defaults, whatever the environment.
  unsetenv("ALGORAND_VERIFY_WORKERS");
  unsetenv("ALGORAND_EXEC_WORKERS");
  std::filesystem::create_directories(opt.scratch_dir);

  // Episode i runs sub-seed i mod topologies; sub-seed 0 is --seed itself.
  auto episode_options = [&](size_t i) {
    Options o = opt;
    o.seed = opt.seed + static_cast<uint64_t>(i % topologies) * 0x9E3779B97F4A7C15ull;
    return o;
  };
  std::vector<Episode> episodes;
  Tracer tracer(opt.seed);
  const int64_t t0 = NowNs();
  if (opt.trace) {
    episodes.push_back(run(opt, nullptr, false));
    episodes.push_back(run(opt, &tracer, false));
  } else {
    // At least min_episodes, then until --seconds passed.
    do {
      episodes.push_back(run(episode_options(episodes.size()), nullptr, false));
    } while (episodes.back().correct &&
             (episodes.size() < min_episodes ||
              static_cast<double>(NowNs() - t0) / 1e9 < opt.seconds));
  }

  // Correctness: every episode passed its checks and reproduced the first
  // episode of its sub-seed.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latencies;  // First episode of every sub-seed.
  for (size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    fprintf(stderr,
            "episode %zu: setup %.4f s, window %.4f s / %llu rounds, events %llu, tip r%llu %s, "
            "fingerprint %s, %llu/%llu failed%s%s\n",
            i, ep.construct_s + ep.start_s, ep.window_s, static_cast<unsigned long long>(ep.rounds),
            static_cast<unsigned long long>(ep.executed_events),
            static_cast<unsigned long long>(ep.tip_round), HashHex(ep.tip).substr(0, 16).c_str(),
            HashHex(ep.fingerprint).substr(0, 16).c_str(),
            static_cast<unsigned long long>(ep.failed),
            static_cast<unsigned long long>(ep.attempted), ep.correct ? "" : "  ERROR: ",
            ep.error.c_str());
    correct = correct && ep.correct;
    attempted += ep.attempted;
    failed += ep.failed;
    const size_t first = opt.trace ? 0 : i % topologies;
    Episode expected = episodes[first];
    if (opt.corrupt == "tip") {
      expected.tip.data()[0] ^= 1;
    } else if (opt.corrupt == "fingerprint") {
      expected.fingerprint.data()[0] ^= 1;
    }
    if (ep.executed_events != expected.executed_events || ep.tip != expected.tip ||
        ep.fingerprint != expected.fingerprint) {
      fprintf(stderr, "ERROR: episode %zu differs from episode %zu's events/tip/fingerprint\n",
              i, first);
      correct = false;
    }
    if (i == first) {
      latencies.insert(latencies.end(), ep.latencies_s.begin(), ep.latencies_s.end());
    }
  }

  const Episode& plain = episodes.front();
  auto per_round = [](const Episode& ep) {
    return ep.rounds > 0 ? ep.window_s / static_cast<double>(ep.rounds) : 0.0;
  };
  std::vector<std::pair<const Metric*, double>> metrics;
  if (opt.trace) {
    const Episode& traced = episodes.back();
    std::map<std::string, double> values = traced.layers;
    values["harness.tracing_overhead_s"] = per_round(traced) - per_round(plain);
    values["workload.committed_tx_per_s"] =
        plain.window_s > 0 ? static_cast<double>(plain.committed_tx) / plain.window_s : 0;
    values["workload.restart_s"] = Median(plain.restart_s);
    values["workload.join_s"] = Median(plain.join_s);
    values["workload.join_sim_s"] = Median(plain.join_sim_s);
    values["workload.disk_mb"] = plain.disk_mb;
    values["workload.failed_frac"] =
        plain.attempted > 0 ? static_cast<double>(plain.failed) / plain.attempted : 0;
    const std::string spans = opt.scratch_dir + "/spans-" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + ".jsonl";
    if (tracer.WriteJsonl(spans)) {
      fprintf(stderr, "spans: %s (%zu)\n", spans.c_str(), tracer.spans().size());
    } else {
      fprintf(stderr, "ERROR: cannot write %s\n", spans.c_str());
      correct = false;
    }
    for (const Metric& m : kLayerMetrics) {
      auto it = values.find(m.name);
      if (it == values.end()) {
        if (traced.correct) {
          fprintf(stderr, "ERROR: traced run did not produce %s\n", m.name);
          correct = false;
        }
        continue;
      }
      metrics.emplace_back(&m, it->second);
    }
  } else {
    std::vector<double> setups;
    for (const Episode& ep : episodes) {
      setups.push_back(ep.construct_s + ep.start_s);
    }
    // Repeats of a sub-seed do identical work round by round, so each round
    // of each sub-seed takes the median of its repeats' wall times: with
    // three or more repeats, a burst of host contention during one of them
    // does not move it. round_wall_s is the mean of these medians.
    double wall_sum = 0;
    size_t wall_cells = 0;
    for (size_t first = 0; first < std::min<size_t>(topologies, episodes.size()); ++first) {
      for (size_t r = 0; r < episodes[first].round_wall_samples.size(); ++r) {
        std::vector<double> repeats;
        for (size_t i = first; i < episodes.size(); i += topologies) {
          if (r < episodes[i].round_wall_samples.size()) {
            repeats.push_back(episodes[i].round_wall_samples[r]);
          }
        }
        wall_sum += Median(repeats);
        ++wall_cells;
      }
    }
    const double round_wall = wall_cells > 0 ? wall_sum / static_cast<double>(wall_cells) : 0;
    while (correct && setups.size() < setup_samples) {
      const Episode ep = run(opt, nullptr, true);
      setups.push_back(ep.construct_s + ep.start_s);
    }
    const double values[] = {Median(setups), round_wall, Quantile(latencies, 0.5),
                             Quantile(latencies, 0.95)};
    for (size_t i = 0; i < std::size(kEndToEndMetrics); ++i) {
      metrics.emplace_back(&kEndToEndMetrics[i], values[i]);
    }
    fprintf(stderr,
            "workload: committed_tx_per_s %.1f, restart_s %.5f, join_s %.4f, join_sim_s %.3f, "
            "disk_mb %.3f, latency samples %zu\n",
            plain.window_s > 0 ? static_cast<double>(plain.committed_tx) / plain.window_s : 0,
            Median(plain.restart_s), Median(plain.join_s), Median(plain.join_sim_s),
            plain.disk_mb, latencies.size());
  }

  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + std::string(metrics[i].first->name) + "\": {\"value\": " +
           Num(metrics[i].second) + ", \"unit\": \"" + metrics[i].first->unit + "\"}";
  }
  out += "}, \"identity\": {\"executed_events\": " + std::to_string(plain.executed_events) +
         ", \"tip_round\": " + std::to_string(plain.tip_round) + ", \"tip\": \"" +
         HashHex(plain.tip) + "\", \"fingerprint\": \"" + HashHex(plain.fingerprint) +
         "\", \"episodes\": " + std::to_string(episodes.size()) + "}}";
  printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
