#include "src/netsim/simulation.h"

#include <algorithm>

namespace algorand {

namespace {
constexpr size_t kArity = 4;
}  // namespace

void Simulation::Schedule(SimTime delay, Callback fn) {
  ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) {
    when = now_;
  }
  HeapPush(Event{when, next_seq_++, std::move(fn)});
}

void Simulation::HeapPush(Event ev) {
  // Sift up with a hole: parents shift down into the gap and `ev` moves once.
  size_t i = heap_.size();
  heap_.emplace_back();  // Placeholder; overwritten below.
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(ev, heap_[parent])) {
      break;
    }
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(ev);
}

Simulation::Event Simulation::HeapPop() {
  Event top = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root: pull the smallest child up into the
    // hole until `last` fits.
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      size_t end = first_child + kArity < n ? first_child + kArity : n;
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], last)) {
        break;
      }
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(last);
  }
  return top;
}

bool Simulation::Step() {
  if (heap_.empty()) {
    return false;
  }
  if (choice_hook_ != nullptr) {
    StepWithChoice();
    return true;
  }
  Event ev = HeapPop();
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

void Simulation::StepWithChoice() {
  const SimTime earliest = heap_.front().when;
  const SimTime horizon = earliest + choice_hook_->Window();
  size_t cap = choice_hook_->MaxCandidates();
  if (cap < 1) {
    cap = 1;
  }
  std::vector<Event> candidates;
  while (!heap_.empty() && candidates.size() < cap &&
         heap_.front().when <= horizon) {
    candidates.push_back(HeapPop());
  }
  size_t pick = 0;
  if (candidates.size() > 1) {
    pick = choice_hook_->ChooseNext(earliest, candidates.size());
    if (pick >= candidates.size()) {
      pick = 0;
    }
  }
  Event chosen = std::move(candidates[pick]);
  // Unchosen candidates keep their original (when, seq) keys: they stay in
  // default order relative to each other, and a hook that always picks 0
  // replays the unhooked schedule bit-for-bit.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i != pick) {
      HeapPush(std::move(candidates[i]));
    }
  }
  // Running a later event first models the adversary delaying the others;
  // time advances to the chosen event and never regresses afterwards.
  now_ = std::max(now_, chosen.when);
  ++executed_;
  chosen.fn();
}

void Simulation::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulation::RunUntil(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().when <= deadline) {
    Step();
  }
  // The full window elapsed only if nothing stopped us early.
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace algorand
