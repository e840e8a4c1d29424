#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mapreduce/hadoop_config.hpp"
#include "sim/time.hpp"

namespace vhadoop::mapreduce {

/// Which kind of task slot a heartbeat is offering.
enum class SlotKind { Map, Reduce };

/// The scheduler's view of one active job at a scheduling instant. Views are
/// passed in submission order, so `views[0]` is the oldest job (the only
/// one a `head_of_line()` scheduler is shown).
struct JobSchedView {
  std::uint64_t id = 0;
  std::size_t submit_index = 0;
  std::string queue = "default";
  std::string user = "user";
  /// Running task attempts of the offered kind this job currently holds.
  int running = 0;
  /// Schedulable tasks of the offered kind (respects reduce slow-start).
  std::size_t pending = 0;
  /// A pending map is data-local to the offered VM (or needs no locality).
  /// Only populated when the scheduler reports `wants_locality()`.
  bool local_available = true;
  /// A pending map has a replica in the offered VM's rack. Always true on a
  /// single-rack cluster, so the two-tier delay walk degenerates to the
  /// classic single-delay one there.
  bool rack_local_available = true;
  /// Seconds this job has been skipped waiting for a data-local slot.
  double locality_wait = 0.0;
  /// Scheduling tier (SimJobSpec::priority); higher is more urgent.
  int priority = 0;
  /// Absolute completion deadline on the simulated clock (submit instant +
  /// SimJobSpec::deadline_seconds); kNever when the job carries none.
  double deadline = sim::kNever;
  /// Seconds since the job was submitted.
  double age = 0.0;
  /// The job has been granted at least one task slot (of either kind).
  bool started = false;
};

/// Pluggable job scheduler — the decision "which job gets this free slot",
/// extracted from the JobTracker so policies are swappable and unit-testable.
/// Implementations are pure: same views in, same choice out (determinism of
/// the whole simulation depends on it).
class Scheduler {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;
  /// True if map-slot calls should carry locality info in the views (the
  /// runner skips the per-job block scan for schedulers that ignore it).
  virtual bool wants_locality() const { return false; }
  /// True if `pick` reads only `views[0]`: the runner then passes just the
  /// oldest job's view, so a pick costs the same however many jobs queue
  /// behind it. A policy that looks past the head must leave this false.
  virtual bool head_of_line() const { return false; }
  /// Pick the job to receive one slot of `kind`; `total_slots` is the
  /// cluster-wide live slot count of that kind. Returns an index into
  /// `views` or kNone to leave the slot free this heartbeat.
  virtual std::size_t pick(const std::vector<JobSchedView>& views, SlotKind kind,
                           int total_slots) const = 0;
};

/// Hadoop 0.20's default: jobs are served strictly in submission order — a
/// later job runs nothing until every earlier job has finished.
class FifoScheduler final : public Scheduler {
 public:
  const char* name() const override { return "fifo"; }
  bool head_of_line() const override { return true; }
  std::size_t pick(const std::vector<JobSchedView>& views, SlotKind kind,
                   int total_slots) const override;
};

/// Fair scheduler: every runnable job converges to an equal share of the
/// slots (the most slot-deficient job is topped up first), with delay
/// scheduling for map locality — a job without local work on the offered VM
/// is skipped until it has waited out `locality_delay_seconds`.
class FairScheduler final : public Scheduler {
 public:
  explicit FairScheduler(double locality_delay_seconds)
      : locality_delay_(locality_delay_seconds) {}
  const char* name() const override { return "fair"; }
  bool wants_locality() const override { return true; }
  std::size_t pick(const std::vector<JobSchedView>& views, SlotKind kind,
                   int total_slots) const override;

 private:
  double locality_delay_;
};

/// Capacity scheduler: named queues with guaranteed slot fractions. The most
/// underserved queue (running/capacity) is replenished first; a queue may
/// borrow idle slots up to `max_capacity`; within a queue jobs run FIFO,
/// subject to a per-user cap of `user_limit * max_capacity * total_slots`.
class CapacityScheduler final : public Scheduler {
 public:
  explicit CapacityScheduler(std::vector<QueueConfig> queues);
  const char* name() const override { return "capacity"; }
  std::size_t pick(const std::vector<JobSchedView>& views, SlotKind kind,
                   int total_slots) const override;

  /// Queue index for a job-declared queue name (unknown names -> queue 0).
  std::size_t queue_index(const std::string& name) const;
  const std::vector<QueueConfig>& queues() const { return queues_; }

 private:
  std::vector<QueueConfig> queues_;
};

/// Deadline scheduler (PAPERS.md "Hybrid Job-driven Scheduling for Virtual
/// MapReduce Clusters"): earliest-deadline-first within priority tiers.
/// Higher tiers are always served before lower ones; within a tier the job
/// with the earliest absolute deadline wins (no-deadline jobs sort last and
/// fall back to submission order). Two escape hatches keep it safe for
/// open-loop multi-tenant traffic: a starvation window — a job that has
/// waited longer than `starvation_window` without ever starting preempts
/// the whole order, oldest first — and the Fair scheduler's delay
/// scheduling for map locality.
class DeadlineScheduler final : public Scheduler {
 public:
  DeadlineScheduler(double locality_delay_seconds, double starvation_window_seconds)
      : locality_delay_(locality_delay_seconds),
        starvation_window_(starvation_window_seconds) {}
  const char* name() const override { return "deadline"; }
  bool wants_locality() const override { return true; }
  std::size_t pick(const std::vector<JobSchedView>& views, SlotKind kind,
                   int total_slots) const override;

 private:
  double locality_delay_;
  double starvation_window_;
};

/// Build the configured scheduler (FIFO when `config.scheduler` says so,
/// etc.). Capacity with no queues gets a single catch-all "default" queue.
std::unique_ptr<Scheduler> make_scheduler(const HadoopConfig& config);

const char* to_string(SchedulerPolicy policy);
/// Parse "fifo" / "fair" / "capacity" / "deadline" (exact, lowercase);
/// nullopt otherwise.
std::optional<SchedulerPolicy> scheduler_policy_from_string(const std::string& s);

}  // namespace vhadoop::mapreduce
