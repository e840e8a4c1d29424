#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace vhadoop::sim {
namespace {

class FluidTest : public ::testing::Test {
 protected:
  Engine engine;
  FluidModel model{engine};
};

TEST_F(FluidTest, SingleActivityUsesFullCapacity) {
  auto r = model.add_resource("link", 100.0);
  double done_at = -1.0;
  model.start({.work = 1000.0, .resources = {r}, .on_complete = [&] { done_at = engine.now(); }});
  engine.run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);
}

TEST_F(FluidTest, TwoEqualActivitiesShareFairly) {
  auto r = model.add_resource("link", 100.0);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    model.start({.work = 500.0, .resources = {r}, .on_complete = [&] { done.push_back(engine.now()); }});
  }
  engine.run();
  // Both proceed at 50 units/s and finish together at t=10.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST_F(FluidTest, DepartureSpeedsUpRemainingActivity) {
  auto r = model.add_resource("link", 100.0);
  double short_done = -1.0, long_done = -1.0;
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { short_done = engine.now(); }});
  model.start({.work = 500.0, .resources = {r}, .on_complete = [&] { long_done = engine.now(); }});
  engine.run();
  // Shared 50/50 until t=2 (short finishes), then full rate:
  // long has 400 left, finishes at 2 + 400/100 = 6.
  EXPECT_NEAR(short_done, 2.0, 1e-6);
  EXPECT_NEAR(long_done, 6.0, 1e-6);
}

TEST_F(FluidTest, WeightedSharing) {
  auto r = model.add_resource("cpu", 90.0);
  double heavy = -1.0, light = -1.0;
  model.start({.work = 600.0, .weight = 2.0, .resources = {r}, .on_complete = [&] { heavy = engine.now(); }});
  model.start({.work = 600.0, .weight = 1.0, .resources = {r}, .on_complete = [&] { light = engine.now(); }});
  engine.run();
  // Rates 60 vs 30 until heavy finishes at t=10; light then has 300 left
  // at rate 90 -> t = 10 + 300/90.
  EXPECT_NEAR(heavy, 10.0, 1e-6);
  EXPECT_NEAR(light, 10.0 + 300.0 / 90.0, 1e-6);
}

TEST_F(FluidTest, CapLimitsRate) {
  auto r = model.add_resource("link", 100.0);
  double capped = -1.0, open = -1.0;
  model.start({.work = 100.0, .cap = 10.0, .resources = {r}, .on_complete = [&] { capped = engine.now(); }});
  model.start({.work = 900.0, .resources = {r}, .on_complete = [&] { open = engine.now(); }});
  engine.run();
  // Capped at 10; the other takes the remaining 90 -> both finish at t=10.
  EXPECT_NEAR(capped, 10.0, 1e-6);
  EXPECT_NEAR(open, 10.0, 1e-6);
}

TEST_F(FluidTest, CapOnlyActivityNeedsNoResource) {
  double done = -1.0;
  model.start({.work = 50.0, .cap = 5.0, .on_complete = [&] { done = engine.now(); }});
  engine.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST_F(FluidTest, UncappedActivityWithoutResourceThrows) {
  EXPECT_THROW(model.start({.work = 1.0}), std::invalid_argument);
}

TEST_F(FluidTest, NonFiniteInputsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto r = model.add_resource("link", 100.0);
  for (double bad : {nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(model.start({.work = bad, .resources = {r}}), std::invalid_argument);
    EXPECT_THROW(model.start({.work = 1.0, .weight = bad, .resources = {r}}),
                 std::invalid_argument);
    EXPECT_THROW(model.add_resource("bad", bad), std::invalid_argument);
    EXPECT_THROW(model.set_capacity(r, bad), std::invalid_argument);
  }
  EXPECT_THROW(model.start({.work = 1.0, .cap = nan, .resources = {r}}), std::invalid_argument);
  EXPECT_EQ(model.active_count(), 0u);
  EXPECT_EQ(model.capacity(r), 100.0);

  // An infinite cap stays the "unlimited" default on a resource-bound
  // activity; NaN never is.
  auto a = model.start({.work = 100.0, .cap = inf, .resources = {r}});
  EXPECT_THROW(model.set_cap(a, nan), std::invalid_argument);
  model.set_cap(a, inf);
  for (double bad : {nan, inf, -inf}) {
    EXPECT_THROW(model.add_work(a, bad), std::invalid_argument) << bad;
  }
  // A resource-less activity needs a finite cap for its whole life.
  auto paced = model.start({.work = 10.0, .cap = 5.0});
  EXPECT_THROW(model.set_cap(paced, inf), std::invalid_argument);

  double done = -1.0;
  model.add_work(a, 100.0);
  model.set_cap(a, 50.0);
  model.start({.work = 0.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run();
  EXPECT_EQ(model.active_count(), 0u);
  EXPECT_NEAR(done, 0.0, 1e-12);
  EXPECT_NEAR(engine.now(), 4.0, 1e-9);  // 200 units at the 50/s cap
}

TEST_F(FluidTest, MultiResourceActivityLimitedByTightestResource) {
  auto wide = model.add_resource("wide", 1000.0);
  auto narrow = model.add_resource("narrow", 10.0);
  double done = -1.0;
  model.start({.work = 100.0, .resources = {wide, narrow}, .on_complete = [&] { done = engine.now(); }});
  engine.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST_F(FluidTest, CrossTrafficOnSharedMiddleLink) {
  // Two flows share a middle link but have private edge links; classic
  // max-min: the middle link is the bottleneck and is split evenly.
  auto a_in = model.add_resource("a_in", 100.0);
  auto b_in = model.add_resource("b_in", 100.0);
  auto mid = model.add_resource("mid", 60.0);
  double a_done = -1.0, b_done = -1.0;
  model.start({.work = 300.0, .resources = {a_in, mid}, .on_complete = [&] { a_done = engine.now(); }});
  model.start({.work = 300.0, .resources = {b_in, mid}, .on_complete = [&] { b_done = engine.now(); }});
  engine.run();
  EXPECT_NEAR(a_done, 10.0, 1e-6);
  EXPECT_NEAR(b_done, 10.0, 1e-6);
}

TEST_F(FluidTest, MaxMinGivesUnusedShareToUnconstrainedFlow) {
  // Flow A is limited to 10 by its private link; flow B should get the
  // remaining 90 of the shared link (not 50).
  auto a_edge = model.add_resource("a_edge", 10.0);
  auto shared = model.add_resource("shared", 100.0);
  auto a = model.start({.work = 1e9, .resources = {a_edge, shared}});
  auto b = model.start({.work = 1e9, .resources = {shared}});
  EXPECT_NEAR(model.rate(a), 10.0, 1e-9);
  EXPECT_NEAR(model.rate(b), 90.0, 1e-9);
  model.cancel(a);
  model.cancel(b);
}

TEST_F(FluidTest, ZeroCapacityResourceStallsUsers) {
  auto r = model.add_resource("down", 0.0);
  bool fired = false;
  auto id = model.start({.work = 10.0, .resources = {r}, .on_complete = [&] { fired = true; }});
  EXPECT_FALSE(engine.run_until(100.0));
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(model.rate(id), 0.0);
  // Restoring capacity resumes progress.
  model.set_capacity(r, 10.0);
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_NEAR(engine.now(), 101.0, 1e-6);
}

TEST_F(FluidTest, SetCapZeroPausesAndResumePreservesProgress) {
  auto r = model.add_resource("link", 10.0);
  double done = -1.0;
  auto id = model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run_until(5.0);  // 50 units done
  model.set_cap(id, 0.0);
  engine.run_until(50.0);  // paused for 45s
  EXPECT_NEAR(model.remaining(id), 50.0, 1e-6);
  model.set_cap(id, std::numeric_limits<double>::infinity());
  engine.run();
  EXPECT_NEAR(done, 55.0, 1e-6);
}

TEST_F(FluidTest, CancelRemovesActivityAndFreesShare) {
  auto r = model.add_resource("link", 100.0);
  auto a = model.start({.work = 1e9, .resources = {r}});
  auto b = model.start({.work = 1e9, .resources = {r}});
  EXPECT_NEAR(model.rate(b), 50.0, 1e-9);
  EXPECT_TRUE(model.cancel(a));
  EXPECT_FALSE(model.cancel(a));
  EXPECT_NEAR(model.rate(b), 100.0, 1e-9);
  model.cancel(b);
}

TEST_F(FluidTest, AddWorkExtendsCompletion) {
  auto r = model.add_resource("link", 10.0);
  double done = -1.0;
  auto id = model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run_until(5.0);
  model.add_work(id, 50.0);
  engine.run();
  EXPECT_NEAR(done, 15.0, 1e-6);
}

TEST_F(FluidTest, ZeroWorkActivityCompletesImmediately) {
  auto r = model.add_resource("link", 10.0);
  bool fired = false;
  model.start({.work = 0.0, .resources = {r}, .on_complete = [&] { fired = true; }});
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST_F(FluidTest, CompletionCallbackCanStartNewActivity) {
  auto r = model.add_resource("link", 10.0);
  double second_done = -1.0;
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] {
                 model.start({.work = 50.0,
                              .resources = {r},
                              .on_complete = [&] { second_done = engine.now(); }});
               }});
  engine.run();
  EXPECT_NEAR(second_done, 15.0, 1e-6);
}

TEST_F(FluidTest, UtilizationAndBusyIntegral) {
  auto r = model.add_resource("link", 100.0);
  model.start({.work = 250.0, .cap = 50.0, .resources = {r}});
  EXPECT_NEAR(model.utilization(r), 0.5, 1e-9);
  engine.run();  // finishes at t=5
  EXPECT_NEAR(model.busy_integral(r), 250.0, 1e-6);
  EXPECT_DOUBLE_EQ(model.utilization(r), 0.0);
}

TEST_F(FluidTest, CapacityIncreaseAcceleratesInFlightWork) {
  auto r = model.add_resource("link", 10.0);
  double done = -1.0;
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run_until(5.0);
  model.set_capacity(r, 50.0);
  engine.run();
  EXPECT_NEAR(done, 6.0, 1e-6);
}

TEST_F(FluidTest, CapacityDecreaseDelaysInFlightWork) {
  auto r = model.add_resource("link", 20.0);
  double done = -1.0;
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run_until(2.0);  // 40 of 100 done
  model.set_capacity(r, 5.0);
  EXPECT_DOUBLE_EQ(model.allocated(r), 5.0);
  engine.run();
  EXPECT_NEAR(done, 14.0, 1e-6);  // 60 remaining at rate 5
}

TEST_F(FluidTest, CapacityZeroedMidFlightStallsThenResumes) {
  auto r = model.add_resource("link", 10.0);
  double done = -1.0;
  auto id =
      model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { done = engine.now(); }});
  engine.run_until(4.0);  // 40 done
  model.set_capacity(r, 0.0);
  EXPECT_DOUBLE_EQ(model.rate(id), 0.0);
  EXPECT_DOUBLE_EQ(model.utilization(r), 0.0);
  engine.run_until(20.0);  // fully stalled: nothing fires, no progress
  EXPECT_NEAR(model.remaining(id), 60.0, 1e-9);
  model.set_capacity(r, 10.0);
  engine.run();
  EXPECT_NEAR(done, 26.0, 1e-6);  // 60 remaining at rate 10 from t=20
}

TEST_F(FluidTest, CapacityChangeRebalancesSharersMidFlight) {
  // Two equal sharers at 10 → 5 each; raising the capacity mid-flight must
  // re-split among the *remaining* work, not replay from the start.
  auto r = model.add_resource("link", 10.0);
  double a_done = -1.0, b_done = -1.0;
  model.start({.work = 50.0, .resources = {r}, .on_complete = [&] { a_done = engine.now(); }});
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] { b_done = engine.now(); }});
  engine.run_until(4.0);  // 20 done each
  model.set_capacity(r, 30.0);
  engine.run();
  EXPECT_NEAR(a_done, 6.0, 1e-6);         // 30 left at 15/s
  EXPECT_NEAR(b_done, 23.0 / 3.0, 1e-6);  // then 50 left alone at 30/s
}

TEST_F(FluidTest, AllocatedAndUtilizationAfterPartialSettles) {
  // allocated()/utilization() must reflect the *current* rate sum at every
  // observation point, including after departures settled mid-simulation.
  auto r = model.add_resource("link", 100.0);
  model.start({.work = 100.0, .resources = {r}});           // shares 50/50, gone at t=2
  auto b = model.start({.work = 300.0, .resources = {r}});
  EXPECT_DOUBLE_EQ(model.allocated(r), 100.0);
  EXPECT_DOUBLE_EQ(model.utilization(r), 1.0);

  engine.run_until(3.0);  // first sharer left at t=2; b runs alone at 100
  EXPECT_DOUBLE_EQ(model.allocated(r), 100.0);
  EXPECT_NEAR(model.remaining(b), 100.0, 1e-9);  // 50/s until t=2, then 100/s
  EXPECT_NEAR(model.busy_integral(r), 300.0, 1e-9);

  model.set_cap(b, 25.0);  // partial settle: integral up to now, new rate on
  EXPECT_DOUBLE_EQ(model.allocated(r), 25.0);
  EXPECT_DOUBLE_EQ(model.utilization(r), 0.25);

  engine.run();
  EXPECT_DOUBLE_EQ(model.allocated(r), 0.0);
  EXPECT_DOUBLE_EQ(model.utilization(r), 0.0);
  EXPECT_NEAR(model.busy_integral(r), 400.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Same-instant coalescing: mutations mark components dirty, and each dirty
// component is solved once when the instant ends.
// ---------------------------------------------------------------------------

double solves(Engine& engine) { return engine.metrics().counter("sim.fluid.recomputes")->value(); }

TEST_F(FluidTest, SameInstantMutationsSolveEachDirtyComponentOnce) {
  auto link = model.add_resource("link", 100.0);
  auto disk = model.add_resource("disk", 60.0);
  std::vector<FluidModel::ActivityId> flows, writes;
  for (int i = 0; i < 10; ++i) flows.push_back(model.start({.work = 1e9, .resources = {link}}));
  for (int i = 0; i < 3; ++i) writes.push_back(model.start({.work = 1e9, .resources = {disk}}));
  model.set_capacity(disk, 90.0);
  EXPECT_DOUBLE_EQ(solves(engine), 0.0);  // nothing is solved mid-instant
  engine.run_until(1.0);
  EXPECT_DOUBLE_EQ(solves(engine), 2.0);  // 14 mutations, 2 components
  EXPECT_DOUBLE_EQ(engine.metrics().counter("sim.fluid.rate_recomputes")->value(), 14.0);
  EXPECT_DOUBLE_EQ(model.rate(flows[0]), 10.0);
  EXPECT_DOUBLE_EQ(model.rate(writes[0]), 30.0);
}

TEST_F(FluidTest, FinishAndRestartOnTheSameLinkCostOneSolve) {
  // A completion callback starts the next transfer on the same link at the
  // same instant: survivors and newcomer are solved together, once.
  auto r = model.add_resource("link", 100.0);
  auto background = model.start({.work = 1e9, .resources = {r}});
  double second_done = -1.0;
  model.start({.work = 100.0, .resources = {r}, .on_complete = [&] {
                 model.start({.work = 100.0,
                              .resources = {r},
                              .on_complete = [&] { second_done = engine.now(); }});
               }});
  engine.run_until(1.0);
  const double before = solves(engine);
  engine.run_until(3.0);  // the first transfer finishes at t=2 (50/s)
  EXPECT_DOUBLE_EQ(solves(engine) - before, 1.0);
  EXPECT_DOUBLE_EQ(model.rate(background), 50.0);
  engine.run_until(5.0);
  EXPECT_NEAR(second_done, 4.0, 1e-9);
}

TEST_F(FluidTest, QueriesMidInstantSeeEveryMutationSoFar) {
  auto r = model.add_resource("link", 90.0);
  auto a = model.start({.work = 1e9, .resources = {r}});
  EXPECT_DOUBLE_EQ(model.rate(a), 90.0);
  auto b = model.start({.work = 1e9, .resources = {r}});
  auto c = model.start({.work = 1e9, .cap = 10.0, .resources = {r}});
  EXPECT_DOUBLE_EQ(model.rate(a), 40.0);
  EXPECT_DOUBLE_EQ(model.allocated(r), 90.0);
  model.cancel(b);
  EXPECT_DOUBLE_EQ(model.rate(a), 80.0);
  EXPECT_DOUBLE_EQ(model.utilization(r), 1.0);
  EXPECT_DOUBLE_EQ(model.rate(c), 10.0);
}

TEST_F(FluidTest, RemainingAndBusyIntegralAreExactWithoutASolve) {
  // Both integrate the rates that held until now, so a pending solve
  // changes neither and reading them does not force one.
  auto r = model.add_resource("link", 10.0);
  auto a = model.start({.work = 100.0, .resources = {r}});
  engine.run_until(4.0);
  model.start({.work = 100.0, .resources = {r}});
  const double before = solves(engine);
  EXPECT_DOUBLE_EQ(model.remaining(a), 60.0);
  EXPECT_DOUBLE_EQ(model.busy_integral(r), 40.0);
  EXPECT_DOUBLE_EQ(solves(engine), before);
}

TEST_F(FluidTest, TimerDueInATouchedComponentStillFinishesAtItsInstant) {
  // The joiner's event was scheduled before the component's timer was
  // armed, so it runs first at t=1 and dirties the component the timer is
  // about to finish. The timer re-solves instead of trusting its cached
  // membership, and the finish still lands at t=1.
  auto r = model.add_resource("link", 10.0);
  double a_done = -1.0, b_done = -1.0;
  engine.schedule_at(1.0, [&] {
    model.start({.work = 10.0, .resources = {r}, .on_complete = [&] { b_done = engine.now(); }});
  });
  model.start({.work = 10.0, .resources = {r}, .on_complete = [&] { a_done = engine.now(); }});
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 1.0);
  EXPECT_DOUBLE_EQ(b_done, 2.0);  // alone at 10/s from t=1
}

TEST_F(FluidTest, TimerDueAfterACoMemberWasCancelledThatInstant) {
  // The cancel runs first at t=1 and frees a member of the component whose
  // timer is due then; the timer must not walk its cached membership (the
  // sanitizer builds turn a stale walk into a use-after-free report).
  auto r = model.add_resource("link", 10.0);
  double a_done = -1.0;
  FluidModel::ActivityId b;
  engine.schedule_at(1.0, [&] { EXPECT_TRUE(model.cancel(b)); });
  model.start({.work = 5.0, .resources = {r}, .on_complete = [&] { a_done = engine.now(); }});
  b = model.start({.work = 100.0, .resources = {r}});
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 1.0);  // 5 units at 5/s
  EXPECT_FALSE(model.active(b));
  EXPECT_EQ(model.active_count(), 0u);
}

TEST_F(FluidTest, AddWorkReArmsTheFinishWithoutAnEarlyWakeUp) {
  // The rate does not change, but the solve still re-projects the finish
  // from the new remaining work: one timer event at t=15, not a stale one
  // at t=10 that then has to re-arm.
  auto r = model.add_resource("link", 10.0);
  double done = -1.0;
  auto id = model.start({.work = 100.0, .resources = {r}, .on_complete = [&] {
                           done = engine.now();
                         }});
  engine.run_until(5.0);
  model.add_work(id, 50.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done, 15.0);
  EXPECT_EQ(engine.processed(), 1u);
}

TEST_F(FluidTest, ResourceLessActivityCoalescesToo) {
  double done = -1.0;
  auto id = model.start({.work = 50.0, .cap = 5.0, .on_complete = [&] { done = engine.now(); }});
  model.set_cap(id, 10.0);
  model.add_work(id, 50.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_DOUBLE_EQ(solves(engine), 1.0);
}

TEST(FluidCoalescing, CoFinishersCompleteInTheOrderTheirComponentsWereDirtied) {
  // Timers are armed when the instant ends, component by component in
  // first-dirtied order; two components due at the same instant complete
  // in that order, so it is fixed by the mutation order alone.
  auto run = [](bool first_a) {
    Engine engine;
    FluidModel model(engine);
    auto ra = model.add_resource("a", 10.0);
    auto rb = model.add_resource("b", 10.0);
    std::vector<std::string> order;
    auto start = [&](FluidModel::ResourceId r, const char* name) {
      model.start({.work = 10.0, .resources = {r}, .on_complete = [&order, name] {
                     order.emplace_back(name);
                   }});
    };
    if (first_a) {
      start(ra, "a");
      start(rb, "b");
    } else {
      start(rb, "b");
      start(ra, "a");
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(run(false), (std::vector<std::string>{"b", "a"}));
}

// ---------------------------------------------------------------------------
// Property sweeps: conservation and fairness hold for random activity mixes.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::uint64_t seed;
  int n_resources;
  int n_activities;
};

class FluidPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FluidPropertyTest, RatesNeverExceedCapacitiesNorCaps) {
  const auto p = GetParam();
  Rng rng(p.seed);
  Engine engine;
  FluidModel model(engine);

  std::vector<FluidModel::ResourceId> res;
  for (int i = 0; i < p.n_resources; ++i) {
    res.push_back(model.add_resource("r" + std::to_string(i), rng.uniform(10.0, 200.0)));
  }
  std::vector<FluidModel::ActivityId> acts;
  for (int i = 0; i < p.n_activities; ++i) {
    FluidModel::ActivitySpec spec;
    spec.work = rng.uniform(10.0, 1000.0);
    spec.weight = rng.uniform(0.5, 4.0);
    if (rng.uniform() < 0.3) spec.cap = rng.uniform(1.0, 50.0);
    const int uses = 1 + static_cast<int>(rng.uniform_int(3));
    for (int u = 0; u < uses; ++u) {
      auto r = res[rng.uniform_int(res.size())];
      if (std::find(spec.resources.begin(), spec.resources.end(), r) == spec.resources.end()) {
        spec.resources.push_back(r);
      }
    }
    acts.push_back(model.start(std::move(spec)));
  }

  // Invariants at the initial allocation.
  for (auto r : res) {
    EXPECT_LE(model.allocated(r), model.capacity(r) * (1.0 + 1e-9));
  }
  for (auto a : acts) {
    if (model.active(a)) {
      EXPECT_GE(model.rate(a), 0.0);
    }
  }

  // Work conservation: every activity eventually completes (no livelock),
  // and total busy integral equals total work.
  double total_work = 0.0;
  for (auto a : acts) total_work += model.remaining(a);
  engine.run();
  EXPECT_EQ(model.active_count(), 0u);
  (void)total_work;
}

TEST_P(FluidPropertyTest, WorkConservedOnSingleSharedResource) {
  const auto p = GetParam();
  Rng rng(p.seed ^ 0xabcdef);
  Engine engine;
  FluidModel model(engine);
  auto r = model.add_resource("shared", 100.0);

  double total_work = 0.0;
  for (int i = 0; i < p.n_activities; ++i) {
    const double w = rng.uniform(10.0, 500.0);
    total_work += w;
    model.start({.work = w, .weight = rng.uniform(0.5, 2.0), .resources = {r}});
  }
  engine.run();
  // The resource was the only conduit: busy integral == total work pushed.
  EXPECT_NEAR(model.busy_integral(r), total_work, total_work * 1e-9 + 1e-5);
  // And it was never idle while work remained: last completion at
  // total/capacity exactly (work-conserving schedule).
  EXPECT_NEAR(engine.now(), total_work / 100.0, 1e-6);
}

TEST_P(FluidPropertyTest, AddingCompetitionNeverSpeedsUpAFlow) {
  // Monotonicity: a flow's completion time with competitors is never
  // earlier than without them.
  const auto p = GetParam();
  Rng rng(p.seed ^ 0x777);

  auto run_case = [&](bool with_competitors) {
    Rng local = rng;  // identical random choices in both runs
    Engine engine;
    FluidModel model(engine);
    std::vector<FluidModel::ResourceId> res;
    for (int i = 0; i < p.n_resources; ++i) {
      res.push_back(model.add_resource("r", local.uniform(50.0, 200.0)));
    }
    double probe_done = -1.0;
    model.start({.work = 500.0,
                 .resources = {res[0]},
                 .on_complete = [&] { probe_done = engine.now(); }});
    if (with_competitors) {
      for (int a = 0; a < p.n_activities; ++a) {
        model.start({.work = local.uniform(10.0, 400.0),
                     .weight = local.uniform(0.5, 3.0),
                     .resources = {res[static_cast<std::size_t>(a) % res.size()]}});
      }
    }
    engine.run();
    return probe_done;
  };

  const double alone = run_case(false);
  const double contended = run_case(true);
  EXPECT_GE(contended, alone - 1e-9);
}

TEST_P(FluidPropertyTest, PauseResumeConservesWork) {
  const auto p = GetParam();
  Rng rng(p.seed ^ 0xbeef);
  Engine engine;
  FluidModel model(engine);
  auto r = model.add_resource("link", 100.0);
  const double work = rng.uniform(100.0, 1000.0);
  double done_at = -1.0;
  auto id = model.start({.work = work, .resources = {r}, .on_complete = [&] {
                           done_at = engine.now();
                         }});
  // Pause for a random window mid-transfer.
  const double pause_at = work / 100.0 * rng.uniform(0.1, 0.9);
  const double pause_len = rng.uniform(1.0, 50.0);
  engine.run_until(pause_at);
  model.set_cap(id, 0.0);
  engine.run_until(pause_at + pause_len);
  model.set_cap(id, std::numeric_limits<double>::infinity());
  engine.run();
  EXPECT_NEAR(done_at, work / 100.0 + pause_len, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, FluidPropertyTest,
                         ::testing::Values(SweepParam{1, 2, 5}, SweepParam{2, 3, 12},
                                           SweepParam{3, 5, 25}, SweepParam{4, 4, 40},
                                           SweepParam{5, 8, 60}, SweepParam{6, 1, 3},
                                           SweepParam{7, 6, 80}, SweepParam{8, 2, 100}));

}  // namespace
}  // namespace vhadoop::sim
