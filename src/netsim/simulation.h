// Deterministic discrete-event simulation core.
//
// A single-threaded event queue ordered by (time, insertion sequence). All of
// Algorand's behaviour in this repository — gossip, timeouts, BA* steps,
// recovery timers — runs as callbacks scheduled here, so a (seed, scenario)
// pair replays identically every run.
//
// The queue is a 4-ary array heap of (when, seq, callback) events. Keying on
// the insertion sequence makes the ordering total, so events pop in exactly
// (time, insertion) order and replays are bit-identical. The 4-ary layout
// halves tree depth versus a binary heap and keeps the sift working set in
// one or two cache lines; callbacks live in a small-buffer slot
// (UniqueCallback) so sift moves shuffle 64-ish-byte events instead of
// chasing per-node allocations.
//
// ParallelSimulation (parallel_simulation.h) subclasses this interface with a
// conservative-lookahead multi-worker engine; the virtual hooks below
// (ScheduleAtForStream, SetExternalStream, EngineStats) are no-ops /
// pass-throughs here so single-threaded callers pay nothing.
#ifndef ALGORAND_SRC_NETSIM_SIMULATION_H_
#define ALGORAND_SRC_NETSIM_SIMULATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/time_units.h"

namespace algorand {

// Model-checker seam: when installed on a sequential Simulation,
// the hook is consulted at every dequeue where more than one event is eligible
// to run "next" under a weak-synchrony window. Events whose timestamps lie
// within `Window()` of the earliest pending event are concurrent candidates
// (capped at `MaxCandidates()`); `ChooseNext` picks which one runs. The chosen
// event executes at max(now, event.when) — reordering is equivalent to an
// adversary delaying the passed-over deliveries, so the clock never regresses.
// Unchosen events keep their original (when, seq) keys, so choosing index 0
// everywhere reproduces the default FIFO schedule exactly.
class ScheduleChoiceHook {
 public:
  virtual ~ScheduleChoiceHook() = default;
  // Width of the concurrency window. 0 means only exact-time ties race.
  virtual SimTime Window() const = 0;
  // Cap on candidates gathered per choice point (branching factor bound).
  virtual size_t MaxCandidates() const = 0;
  // Picks which of `count` candidates (listed in default (when, seq) order)
  // runs next. Called only when count > 1; must return a value in [0, count).
  virtual size_t ChooseNext(SimTime earliest, size_t count) = 0;
};

class Simulation : public Executor {
 public:
  using Callback = Executor::Callback;

  // Stream id for events not owned by any simulated node (harness probes,
  // crash schedules, reporters). The parallel engine runs them at window
  // barriers, when every worker is parked.
  static constexpr uint32_t kGlobalStream = UINT32_MAX;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const override { return now_; }

  // Schedules `fn` to run `delay` from now (negative delays clamp to now).
  void Schedule(SimTime delay, Callback fn) override;
  // Schedules at an absolute time (times in the past clamp to now).
  void ScheduleAt(SimTime when, Callback fn) override;

  // Schedules an event that acts on `stream`'s state (a delivery to node
  // `stream`). The sequential engine ignores the stream; the parallel engine
  // routes the event to the stream's shard and runs it with that stream
  // current, which is what keeps cross-shard sends deterministic.
  virtual void ScheduleAtForStream(SimTime when, uint32_t stream, Callback fn) {
    (void)stream;
    ScheduleAt(when, std::move(fn));
  }

  // Declares which stream subsequent Schedule* calls from *outside* event
  // execution belong to (harness setup, node restarts). No-op here; the
  // parallel engine keys those events to the stream so their ordering is
  // independent of worker count. Pass kGlobalStream to revert to
  // barrier-executed global events.
  virtual void SetExternalStream(uint32_t stream) { (void)stream; }

  // Runs events until the queue drains or `Stop()` is called.
  virtual void Run();
  // Runs events with time <= deadline; leaves later events queued. The clock
  // advances to the deadline.
  virtual void RunUntil(SimTime deadline);
  // Runs at most one event; returns false if the queue was empty. (On the
  // parallel engine: runs one conservative window.)
  virtual bool Step();

  virtual void Stop() { stopped_ = true; }
  virtual bool stopped() const { return stopped_; }
  virtual size_t pending_events() const { return heap_.size(); }
  virtual uint64_t executed_events() const { return executed_; }

  // Engine-specific counters folded into metrics snapshots ("sim.windows",
  // per-worker event counts). Empty for the sequential engine.
  virtual std::vector<std::pair<std::string, uint64_t>> EngineStats() const { return {}; }

  // Installs (or clears, with nullptr) the model checker's scheduling hook.
  // Supported only on the sequential engine; the parallel engine ignores it.
  // Not owned.
  void set_choice_hook(ScheduleChoiceHook* hook) { choice_hook_ = hook; }
  ScheduleChoiceHook* choice_hook() const { return choice_hook_; }

 protected:
  void set_now(SimTime t) { now_ = t; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // Insertion order: ties on `when` run FIFO.
    Callback fn;
  };

  // True if `a` runs before `b` under the (time, insertion) total order.
  static bool Before(const Event& a, const Event& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  void HeapPush(Event ev);
  Event HeapPop();
  // Step() body when a choice hook is installed and >1 event is pending.
  void StepWithChoice();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
  ScheduleChoiceHook* choice_hook_ = nullptr;
  std::vector<Event> heap_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_NETSIM_SIMULATION_H_
