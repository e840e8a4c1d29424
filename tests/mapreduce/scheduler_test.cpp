#include <gtest/gtest.h>

#include <memory>

#include "mapreduce/scheduler.hpp"
#include "sim/rng.hpp"

namespace vhadoop::mapreduce {
namespace {

JobSchedView view(std::uint64_t id, int running, std::size_t pending,
                  const std::string& queue = "default", const std::string& user = "user") {
  JobSchedView v;
  v.id = id;
  v.submit_index = id;
  v.queue = queue;
  v.user = user;
  v.running = running;
  v.pending = pending;
  return v;
}

// --- FIFO ----------------------------------------------------------------------

TEST(FifoSchedulerTest, ServesHeadOfLineOnly) {
  FifoScheduler s;
  std::vector<JobSchedView> views = {view(1, 0, 3), view(2, 0, 5)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 0u);
}

TEST(FifoSchedulerTest, BlocksWhenHeadHasNoSchedulableWork) {
  // Strict 0.20 FIFO: a later job gets nothing while the head job exists,
  // even if the head has no pending tasks of this kind right now.
  FifoScheduler s;
  std::vector<JobSchedView> views = {view(1, 4, 0), view(2, 0, 5)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), Scheduler::kNone);
  EXPECT_TRUE(s.pick({}, SlotKind::Map, 8) == Scheduler::kNone);
}

TEST(FifoSchedulerTest, DoesNotWantLocalityViews) {
  EXPECT_FALSE(FifoScheduler{}.wants_locality());
  EXPECT_TRUE(FairScheduler{6.0}.wants_locality());
}

// --- Fair ----------------------------------------------------------------------

TEST(FairSchedulerTest, TopsUpMostDeficitJob) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 5, 3), view(2, 1, 3), view(3, 2, 3)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 1u);
}

TEST(FairSchedulerTest, BreaksTiesBySubmissionOrder) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 2, 3), view(2, 2, 3)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 0u);
}

TEST(FairSchedulerTest, SkipsJobsWithNothingPending) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 0, 0), view(2, 3, 2)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 1u);
  views[1].pending = 0;
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), Scheduler::kNone);
}

TEST(FairSchedulerTest, DelaySchedulingHoldsNonLocalJob) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 0, 3)};
  views[0].local_available = false;
  views[0].locality_wait = 2.0;  // still inside the delay window
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), Scheduler::kNone);
  views[0].locality_wait = 6.0;  // waited long enough: take the remote slot
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 0u);
}

TEST(FairSchedulerTest, DelayedJobIsPassedOverForLocalOne) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 0, 3), view(2, 1, 3)};
  views[0].local_available = false;
  views[0].locality_wait = 0.0;
  EXPECT_EQ(s.pick(views, SlotKind::Map, 8), 1u);  // job 2 has a local block
}

TEST(FairSchedulerTest, ReduceSlotsIgnoreLocality) {
  FairScheduler s(6.0);
  std::vector<JobSchedView> views = {view(1, 0, 2)};
  views[0].local_available = false;  // meaningless for reduces
  EXPECT_EQ(s.pick(views, SlotKind::Reduce, 8), 0u);
}

// --- Capacity ------------------------------------------------------------------

std::vector<QueueConfig> two_queues() {
  return {{"prod", 0.7, 1.0, 1.0}, {"adhoc", 0.3, 0.5, 1.0}};
}

TEST(CapacitySchedulerTest, RefillsMostUnderservedQueue) {
  CapacityScheduler s(two_queues());
  // prod runs 7/0.7=10 normalized, adhoc 1/0.3≈3.3 — adhoc is owed slots.
  std::vector<JobSchedView> views = {view(1, 7, 3, "prod"), view(2, 1, 3, "adhoc")};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 20), 1u);
}

TEST(CapacitySchedulerTest, FifoWithinQueue) {
  CapacityScheduler s(two_queues());
  std::vector<JobSchedView> views = {view(1, 0, 3, "prod"), view(2, 0, 3, "prod")};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 20), 0u);
}

TEST(CapacitySchedulerTest, EnforcesMaxCapacityCeiling) {
  CapacityScheduler s(two_queues());
  // adhoc ceiling = 0.5 * 20 = 10 slots; at 10 running it may not borrow
  // more even though prod is idle.
  std::vector<JobSchedView> views = {view(1, 10, 5, "adhoc")};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 20), Scheduler::kNone);
  views[0].running = 9;
  EXPECT_EQ(s.pick(views, SlotKind::Map, 20), 0u);
}

TEST(CapacitySchedulerTest, PerUserLimitWithinQueue) {
  std::vector<QueueConfig> queues = {{"q", 1.0, 1.0, 0.5}};
  CapacityScheduler s(queues);
  // alice already holds the full user cap (0.5 * 1.0 * 10 = 5 slots); bob's
  // job is next even though alice's was submitted first.
  std::vector<JobSchedView> views = {view(1, 5, 3, "q", "alice"), view(2, 0, 3, "q", "bob")};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 10), 1u);
}

TEST(CapacitySchedulerTest, UnknownQueueFallsIntoFirst) {
  CapacityScheduler s(two_queues());
  EXPECT_EQ(s.queue_index("prod"), 0u);
  EXPECT_EQ(s.queue_index("adhoc"), 1u);
  EXPECT_EQ(s.queue_index("nope"), 0u);
  std::vector<JobSchedView> views = {view(1, 0, 2, "nope")};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 10), 0u);
}

TEST(CapacitySchedulerTest, EmptyQueueListGetsDefaultQueue) {
  CapacityScheduler s({});
  ASSERT_EQ(s.queues().size(), 1u);
  EXPECT_EQ(s.queues()[0].name, "default");
  std::vector<JobSchedView> views = {view(1, 0, 1)};
  EXPECT_EQ(s.pick(views, SlotKind::Map, 10), 0u);
}

// --- head_of_line() trait -------------------------------------------------------

constexpr SchedulerPolicy kEveryPolicy[] = {SchedulerPolicy::Fifo, SchedulerPolicy::Fair,
                                            SchedulerPolicy::Capacity, SchedulerPolicy::Deadline};

std::unique_ptr<Scheduler> policy_scheduler(SchedulerPolicy policy) {
  HadoopConfig hc;
  hc.scheduler = policy;
  hc.queues = two_queues();
  return make_scheduler(hc);
}

TEST(HeadOfLineTrait, OnlyFifoReadsJustTheHead) {
  for (const SchedulerPolicy p : kEveryPolicy) {
    EXPECT_EQ(policy_scheduler(p)->head_of_line(), p == SchedulerPolicy::Fifo) << to_string(p);
  }
}

/// A view with every field the policies read drawn at random; `pending` and
/// `running` are often zero so heads without work of the offered kind and
/// idle jobs behind them both come up.
JobSchedView random_view(sim::Rng& rng, std::size_t index) {
  static const char* const kQueues[] = {"prod", "adhoc", "nope"};
  static const char* const kUsers[] = {"alice", "bob"};
  JobSchedView v = view(index + 1, static_cast<int>(rng.uniform_int(4)) * 2,
                        static_cast<std::size_t>(rng.uniform_int(6)) / 2,
                        kQueues[rng.uniform_int(3)], kUsers[rng.uniform_int(2)]);
  v.local_available = rng.uniform_int(2) == 0;
  v.rack_local_available = rng.uniform_int(2) == 0;
  v.locality_wait = rng.uniform(0.0, 15.0);
  v.priority = static_cast<int>(rng.uniform_int(3));
  v.deadline = rng.uniform_int(3) == 0 ? sim::kNever : rng.uniform(0.0, 600.0);
  v.age = rng.uniform(0.0, 900.0);
  v.started = rng.uniform_int(2) == 0;
  return v;
}

TEST(HeadOfLineTrait, PickOverAllViewsEqualsPickOverTheHeadAlone) {
  // The runner shows a head_of_line() policy only views[0]; that is sound
  // only while pick() never looks past it.
  sim::Rng rng(1515);
  int checked = 0;
  for (const SchedulerPolicy p : kEveryPolicy) {
    const std::unique_ptr<Scheduler> s = policy_scheduler(p);
    if (!s->head_of_line()) continue;
    for (int round = 0; round < 4000; ++round) {
      std::vector<JobSchedView> views;
      const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(8));
      for (std::size_t i = 0; i < n; ++i) views.push_back(random_view(rng, i));
      const SlotKind kind = rng.uniform_int(2) == 0 ? SlotKind::Map : SlotKind::Reduce;
      const int slots = 1 + static_cast<int>(rng.uniform_int(32));
      const std::vector<JobSchedView> head(views.begin(), views.begin() + 1);
      ASSERT_EQ(s->pick(views, kind, slots), s->pick(head, kind, slots))
          << s->name() << ", round " << round << ", " << n << " views";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// --- factory + parsing ---------------------------------------------------------

TEST(SchedulerFactoryTest, BuildsConfiguredPolicy) {
  HadoopConfig hc;
  EXPECT_STREQ(make_scheduler(hc)->name(), "fifo");
  hc.scheduler = SchedulerPolicy::Fair;
  EXPECT_STREQ(make_scheduler(hc)->name(), "fair");
  hc.scheduler = SchedulerPolicy::Capacity;
  EXPECT_STREQ(make_scheduler(hc)->name(), "capacity");
}

TEST(SchedulerFactoryTest, PolicyStringRoundTrip) {
  for (auto p : {SchedulerPolicy::Fifo, SchedulerPolicy::Fair, SchedulerPolicy::Capacity}) {
    const auto parsed = scheduler_policy_from_string(to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(scheduler_policy_from_string("FIFO").has_value());
  EXPECT_FALSE(scheduler_policy_from_string("").has_value());
  EXPECT_FALSE(scheduler_policy_from_string("roundrobin").has_value());
}

}  // namespace
}  // namespace vhadoop::mapreduce
