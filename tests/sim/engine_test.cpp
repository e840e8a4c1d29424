#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace vhadoop::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(4.0, [&] { e.schedule_in(1.5, [&] { fired_at = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.5);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(Engine, NonFiniteTimesThrowAndLeaveTheQueueUntouched) {
  Engine e;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {nan, inf, -inf}) {
    EXPECT_THROW(e.schedule_at(t, [] {}), std::invalid_argument) << t;
    EXPECT_THROW(e.schedule_in(t, [] {}), std::invalid_argument) << t;
  }
  EXPECT_EQ(e.pending(), 0u);
  // Ordering stays intact for the events that were accepted.
  std::vector<int> order;
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, CancelPreventsCallback) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelledEventDoesNotAdvanceClockInRunUntil) {
  Engine e;
  auto id = e.schedule_at(100.0, [] {});
  e.cancel(id);
  EXPECT_FALSE(e.run_until(10.0));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(9.0, [&] { ++fired; });
  EXPECT_TRUE(e.run_until(5.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_FALSE(e.run_until(20.0));
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(e.now(), 20.0);
}

TEST(Engine, RunUntilRejectsAPastOrNonFiniteHorizonAndChangesNothing) {
  Engine e;
  int fired = 0;
  e.schedule_at(5.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  EXPECT_TRUE(e.run_until(6.0));
  ASSERT_EQ(fired, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {2.0, nan, inf, -inf}) {
    EXPECT_THROW(e.run_until(t), std::invalid_argument) << t;
    EXPECT_EQ(fired, 1) << t;
    EXPECT_DOUBLE_EQ(e.now(), 6.0) << t;
    EXPECT_EQ(e.pending(), 1u) << t;
  }
  // The clock never ran backwards, so the past stays closed.
  EXPECT_THROW(e.schedule_at(3.0, [] {}), std::invalid_argument);
  // Slop below kEps is absorbed, as schedule_at absorbs it.
  EXPECT_TRUE(e.run_until(6.0 - kEps / 2));
  EXPECT_DOUBLE_EQ(e.now(), 6.0);
  EXPECT_FALSE(e.run_until(10.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, StaleHandleOfAFiredEventMissesTheLaterEventInItsSlot) {
  Engine e;
  int first = 0, second = 0;
  const Engine::EventId old = e.schedule_at(1.0, [&] { ++first; });
  ASSERT_TRUE(e.step());
  const Engine::EventId later = e.schedule_at(2.0, [&] { ++second; });
  ASSERT_EQ(later.slot, old.slot);  // the freed slot was reused
  EXPECT_FALSE(e.cancel(old));
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, StaleHandleOfACancelledEventMissesTheLaterEventInItsSlot) {
  Engine e;
  int first = 0, second = 0;
  const Engine::EventId old = e.schedule_at(1.0, [&] { ++first; });
  ASSERT_TRUE(e.cancel(old));
  const Engine::EventId later = e.schedule_at(1.0, [&] { ++second; });
  ASSERT_EQ(later.slot, old.slot);
  EXPECT_FALSE(e.cancel(old));
  EXPECT_EQ(e.pending(), 1u);
  // The cancelled event's heap entry is a tombstone for the same slot and
  // time; it must not fire the later event twice or skip it.
  e.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(e.processed(), 1u);
  EXPECT_FALSE(e.cancel(later));
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine e;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) e.schedule_in(1.0, step);
  };
  e.schedule_at(0.0, step);
  e.run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
}

TEST(Engine, StepProcessesExactlyOneEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RandomScheduleCancelStress) {
  // Property: every non-cancelled event fires exactly once, in
  // non-decreasing time order, regardless of interleaving.
  Engine e;
  struct Fired {
    std::vector<double> times;
  } fired;
  std::vector<Engine::EventId> ids;
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int expected = 0;
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>(next() % 1000) / 10.0;
    ids.push_back(e.schedule_at(t, [&fired, &e] { fired.times.push_back(e.now()); }));
    ++expected;
    if (next() % 3 == 0 && !ids.empty()) {
      const std::size_t victim = next() % ids.size();
      if (e.cancel(ids[victim])) --expected;
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  e.run();
  EXPECT_EQ(static_cast<int>(fired.times.size()), expected);
  for (std::size_t i = 1; i < fired.times.size(); ++i) {
    EXPECT_LE(fired.times[i - 1], fired.times[i]);
  }
}

TEST(Engine, ProcessedCountsFiredEventsOnly) {
  Engine e;
  e.schedule_at(1.0, [] {});
  auto id = e.schedule_at(2.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.processed(), 1u);
}

// --- end-of-instant hooks --------------------------------------------------

TEST(Engine, InstantEndHookRunsAfterTheInstantsEventsBeforeTheClockMoves) {
  Engine e;
  std::vector<std::string> log;
  auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(static_cast<int>(e.now())));
  };
  e.schedule_at(1.0, [&] {
    note("a");
    e.at_instant_end([&] { note("end"); });
  });
  e.schedule_at(1.0, [&] { note("b"); });
  e.schedule_at(2.0, [&] { note("c"); });
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@1", "b@1", "end@1", "c@2"}));
}

TEST(Engine, EventsAHookSchedulesAtNowFireBeforeTheClockMoves) {
  Engine e;
  std::vector<std::string> log;
  e.schedule_at(1.0, [&] {
    e.at_instant_end([&] {
      log.push_back("hook1");
      e.schedule_in(0.0, [&] {
        log.push_back("now");
        e.at_instant_end([&] { log.push_back("hook2"); });
      });
    });
  });
  e.schedule_at(2.0, [&] { log.push_back("later"); });
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"hook1", "now", "hook2", "later"}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, PendingHookCountsAsWorkAndKeepsRunAlive) {
  Engine e;
  bool fired = false;
  e.at_instant_end([&] { e.schedule_in(3.0, [&] { fired = true; }); });
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunUntilEndsTheInstantBeforeAdvancingTheClock) {
  Engine e;
  double hook_at = -1.0;
  e.schedule_at(1.0, [&] { e.at_instant_end([&] { hook_at = e.now(); }); });
  EXPECT_FALSE(e.run_until(5.0));
  EXPECT_DOUBLE_EQ(hook_at, 1.0);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, StepEndsTheInstantBeforeFiringALaterEvent) {
  Engine e;
  std::vector<std::string> log;
  e.schedule_at(1.0, [&] { log.push_back("a"); });
  e.schedule_at(2.0, [&] { log.push_back("b"); });
  EXPECT_TRUE(e.step());
  e.at_instant_end([&] { log.push_back("end@" + std::to_string(static_cast<int>(e.now()))); });
  EXPECT_TRUE(e.step());  // ends t=1, then fires b
  EXPECT_EQ(log, (std::vector<std::string>{"a", "end@1", "b"}));
  e.at_instant_end([&] { log.push_back("last"); });
  EXPECT_FALSE(e.step());  // no event left, but the hook still runs
  EXPECT_EQ(log.back(), "last");
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, HookThatArmsNothingLetsDaemonOnlyQueueStopRun) {
  // A daemon event never keeps run() alive, with or without a pending hook.
  Engine e;
  bool daemon_fired = false, hook_ran = false;
  e.schedule_at(10.0, [&] { daemon_fired = true; }, /*daemon=*/true);
  e.at_instant_end([&] { hook_ran = true; });
  e.run();
  EXPECT_TRUE(hook_ran);
  EXPECT_FALSE(daemon_fired);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

}  // namespace
}  // namespace vhadoop::sim
