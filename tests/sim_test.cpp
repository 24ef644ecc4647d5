// Unit tests for the discrete-event kernel: scheduler and clocks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "sim/clock.hpp"
#include "sim/scheduler.hpp"

namespace excovery::sim {
namespace {

// ---- SimTime -----------------------------------------------------------------

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimTime::from_seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_millis(3).nanos(), 3'000'000);
  EXPECT_EQ(SimTime::from_micros(5).nanos(), 5'000);
  EXPECT_DOUBLE_EQ(SimTime(2'000'000'000).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime(1'500'000).millis(), 1.5);
  EXPECT_EQ(SimTime(5) + SimTime(3), SimTime(8));
  EXPECT_EQ(SimTime(5) - SimTime(3), SimTime(2));
  EXPECT_LT(SimTime(1), SimTime(2));
}

// ---- Scheduler ------------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule(SimDuration::from_millis(30), [&] { order.push_back(3); });
  scheduler.schedule(SimDuration::from_millis(10), [&] { order.push_back(1); });
  scheduler.schedule(SimDuration::from_millis(20), [&] { order.push_back(2); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), SimTime::from_millis(30));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule(SimDuration::from_millis(5),
                       [&order, i] { order.push_back(i); });
  }
  scheduler.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler scheduler;
  bool ran = false;
  TimerHandle handle =
      scheduler.schedule(SimDuration::from_millis(1), [&] { ran = true; });
  scheduler.cancel(handle);
  scheduler.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(Scheduler, CancelAfterRunIsNoop) {
  Scheduler scheduler;
  TimerHandle handle = scheduler.schedule(SimDuration::zero(), [] {});
  scheduler.run();
  scheduler.cancel(handle);  // must not crash or corrupt
  EXPECT_TRUE(scheduler.idle());
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    scheduler.schedule(SimDuration::from_millis(i * 10), [&] { ++count; });
  }
  std::size_t executed = scheduler.run_until(SimTime::from_millis(25));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(scheduler.now(), SimTime::from_millis(25));
  scheduler.run();
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler scheduler;
  scheduler.run_until(SimTime::from_seconds(2));
  EXPECT_EQ(scheduler.now(), SimTime::from_seconds(2));
}

/// Runs `on_destroy` when the last copy of the owning callback goes away.
struct DestroyProbe {
  std::function<void()> on_destroy;
  ~DestroyProbe() { on_destroy(); }
};

TEST(Scheduler, RestartAtDropsPendingWithoutRunningThem) {
  Scheduler scheduler;
  scheduler.run_until(SimTime::from_millis(5));
  int dropped_ran = 0;
  bool late_ran = false;
  TimerHandle early =
      scheduler.schedule(SimDuration::from_millis(1), [&] { ++dropped_ran; });
  scheduler.schedule(SimDuration::from_seconds(100), [&] { ++dropped_ran; });
  // A dropped callback whose destructor cancels a dropped timer and
  // schedules a new one.
  auto probe = std::shared_ptr<DestroyProbe>(new DestroyProbe{[&] {
    scheduler.cancel(early);
    scheduler.schedule(SimDuration::from_millis(1), [&] { late_ran = true; });
  }});
  scheduler.schedule(SimDuration::from_millis(2),
                     [&dropped_ran, probe] { ++dropped_ran; });
  probe.reset();
  const std::uint64_t executed = scheduler.executed();
  const std::uint64_t cancelled = scheduler.cancelled();

  scheduler.restart_at(SimTime::from_millis(1));  // the clock never goes back
  EXPECT_EQ(scheduler.now(), SimTime::from_millis(5));
  EXPECT_EQ(scheduler.executed(), executed);
  EXPECT_EQ(scheduler.cancelled(), cancelled);  // the destructor's was stale
  EXPECT_EQ(scheduler.pending(), 1u);           // what the destructor queued
  scheduler.run();
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(dropped_ran, 0);
  EXPECT_EQ(scheduler.now(), SimTime::from_millis(6));

  // A handle from before a restart never cancels a timer scheduled after
  // it, even in a recycled slot; the restart moves the clock forward.
  TimerHandle stale =
      scheduler.schedule(SimDuration::from_seconds(1), [&] { ++dropped_ran; });
  scheduler.restart_at(SimTime::from_seconds(50));
  EXPECT_EQ(scheduler.now(), SimTime::from_seconds(50));
  EXPECT_TRUE(scheduler.idle());
  bool after_ran = false;
  scheduler.schedule(SimDuration::from_millis(1), [&] { after_ran = true; });
  scheduler.cancel(stale);
  scheduler.run();
  EXPECT_TRUE(after_ran);
  EXPECT_EQ(dropped_ran, 0);
  EXPECT_EQ(scheduler.now(),
            SimTime::from_seconds(50) + SimDuration::from_millis(1));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler scheduler;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(scheduler.now().seconds());
    if (times.size() < 4) {
      scheduler.schedule(SimDuration::from_seconds(1), chain);
    }
  };
  scheduler.schedule(SimDuration::zero(), chain);
  scheduler.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[3], 3.0);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler scheduler;
  bool ran = false;
  scheduler.schedule(SimDuration(-100), [&] { ran = true; });
  scheduler.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(scheduler.now(), SimTime::zero());
}

TEST(Scheduler, RunWithLimit) {
  Scheduler scheduler;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule(SimDuration::from_millis(i), [&] { ++count; });
  }
  EXPECT_EQ(scheduler.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(scheduler.pending(), 7u);
}

// ---- LocalClock ---------------------------------------------------------------------

TEST(LocalClock, IdealClockTracksReference) {
  LocalClock clock;
  EXPECT_EQ(clock.read(SimTime::from_seconds(5)), SimTime::from_seconds(5));
  EXPECT_EQ(clock.true_offset_at(SimTime::from_seconds(5)), SimDuration(0));
}

TEST(LocalClock, OffsetShiftsReadings) {
  ClockModel model;
  model.offset = SimDuration::from_millis(25);
  LocalClock clock(model, 1);
  EXPECT_EQ(clock.read(SimTime::zero()), SimTime::from_millis(25));
}

TEST(LocalClock, DriftAccumulates) {
  ClockModel model;
  model.drift_ppm = 100.0;  // 100 us per second
  LocalClock clock(model, 1);
  SimTime at_100s = clock.local_at(SimTime::from_seconds(100));
  EXPECT_NEAR(static_cast<double>((at_100s - SimTime::from_seconds(100)).nanos()),
              100.0 * 100.0 * 1000.0, 1000.0);
}

TEST(LocalClock, GlobalAtInvertsLocalAt) {
  ClockModel model;
  model.offset = SimDuration::from_millis(-40);
  model.drift_ppm = -75.0;
  LocalClock clock(model, 1);
  SimTime global = SimTime::from_seconds(123.456);
  SimTime local = clock.local_at(global);
  SimTime back = clock.global_at(local);
  EXPECT_NEAR(static_cast<double>((back - global).nanos()), 0.0, 5.0);
}

TEST(LocalClock, JitterIsBoundedAndDeterministic) {
  ClockModel model;
  model.read_jitter = SimDuration::from_micros(50);
  LocalClock a(model, 99);
  LocalClock b(model, 99);
  for (int i = 0; i < 100; ++i) {
    SimTime t = SimTime::from_millis(i);
    SimTime ra = a.read(t);
    EXPECT_LE(std::abs((ra - t).nanos()), 50'000);
    EXPECT_EQ(ra, b.read(t));  // same seed -> same jitter sequence
  }
}

}  // namespace
}  // namespace excovery::sim
