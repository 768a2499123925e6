#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace hypersub::sim {

void Simulator::schedule(Time delay, Task action) {
  if (delay < 0.0) delay = 0.0;
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::schedule_at(Time when, Task action) {
  assert(when >= now_);
  queue_.push(Entry{when, seq_++, std::move(action)});
}

void Simulator::pop_and_run() {
  // Move the action out before popping: the action may schedule new events,
  // which mutates the queue.
  Entry e = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  now_ = e.when;
  ++executed_;
  e.action();
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!queue_.empty() && n < max_events) {
    pop_and_run();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    pop_and_run();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace hypersub::sim
