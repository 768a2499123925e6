// Unit tests for the discrete-event simulation engine.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace hypersub::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(10.0, [&] { order.push_back(2); });
  s.schedule(5.0, [&] { order.push_back(1); });
  s.schedule(20.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(Simulator, FifoTiebreakAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<double> times;
  s.schedule(1.0, [&] {
    times.push_back(s.now());
    s.schedule(2.0, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  double fired = -1.0;
  s.schedule(5.0, [&] {
    s.schedule(-3.0, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired, 5.0);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator s;
  int ran = 0;
  s.schedule(1.0, [&] { ++ran; });
  s.schedule(2.0, [&] { ++ran; });
  s.schedule(3.0, [&] { ++ran; });
  const auto n = s.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, RunUntilAdvancesTimeWhenIdle) {
  Simulator s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, MaxEventsBound) {
  Simulator s;
  int ran = 0;
  for (int i = 0; i < 5; ++i) s.schedule(double(i), [&] { ++ran; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(s.pending(), 2u);
}

TEST(Simulator, ExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(1.0, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator s;
  double t = 0.0;
  s.schedule_at(9.5, [&] { t = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(t, 9.5);
}

// Stress: a self-rescheduling chain stays deterministic and ordered.
TEST(Simulator, LongChainDeterministic) {
  Simulator s;
  int count = 0;
  std::function<void()> step = [&] {
    if (++count < 10000) s.schedule(0.1, step);
  };
  s.schedule(0.1, step);
  s.run();
  EXPECT_EQ(count, 10000);
  EXPECT_NEAR(s.now(), 1000.0, 1e-6);
}

// --- edge cases ---------------------------------------------------------

TEST(Simulator, RunUntilIncludesEqualTimeTies) {
  // run_until's boundary is inclusive, and equal-time events at the
  // boundary keep their FIFO order — including one scheduled *at* the
  // boundary by a boundary event itself.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] {
    order.push_back(1);
    s.schedule(0.0, [&] { order.push_back(3); });
  });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(2.0000001, [&] { order.push_back(4); });
  const auto n = s.run_until(2.0);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, MaxEventsPauseAndResume) {
  // Pausing on the event budget must not lose queued events, reorder the
  // remainder, or disturb the clock; resuming picks up exactly where the
  // budget ran out.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    s.schedule(double(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.run(2), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(s.pending(), 4u);
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_DOUBLE_EQ(s.now(), 4.0);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.executed(), 6u);
}

TEST(Simulator, FifoTiebreakAcrossScheduleAndScheduleAt) {
  // schedule(delay) and schedule_at(when) landing on the same timestamp
  // share one submission order — the tie-break is global, not per-API.
  Simulator s;
  std::vector<int> order;
  s.schedule(3.0, [&] { order.push_back(0); });
  s.schedule_at(3.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(2); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, NegativeDelayKeepsFifoWithExistingEvents) {
  // A clamped negative delay behaves exactly like delay 0: it queues
  // behind events already pending at the current time.
  Simulator s;
  std::vector<int> order;
  s.schedule(5.0, [&] {
    order.push_back(1);
    s.schedule(-2.0, [&] { order.push_back(3); });
  });
  s.schedule(5.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Task (SBO callable) ------------------------------------------------

TEST(Task, SmallCapturesStayInline) {
  struct Small {
    void* a;
    std::uint64_t b[4];
    void operator()() {}
  };
  static_assert(sizeof(Small) <= Task::kInlineSize);
  EXPECT_TRUE(Task::fits_inline<Small>());
}

TEST(Task, LargeCapturesSpillToHeapAndStillRun) {
  std::uint64_t big[16] = {};
  big[15] = 7;
  int out = 0;
  auto fn = [big, &out] { out = int(big[15]); };
  EXPECT_FALSE(Task::fits_inline<decltype(fn)>());
  Task t(fn);
  std::move(t)();
  EXPECT_EQ(out, 7);
}

TEST(Task, MoveTransfersOwnershipExactlyOnce) {
  // A move-only capture proves the stored callable is relocated, not
  // copied, and destroyed exactly once.
  auto p = std::make_unique<int>(41);
  int out = 0;
  Task a([p = std::move(p), &out] { out = ++*p; });
  EXPECT_TRUE(bool(a));
  Task b(std::move(a));
  EXPECT_FALSE(bool(a));
  Task c;
  c = std::move(b);
  EXPECT_FALSE(bool(b));
  c();
  EXPECT_EQ(out, 42);
}

}  // namespace
}  // namespace hypersub::sim
