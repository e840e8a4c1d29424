#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "hdfs/hdfs.hpp"
#include "mapreduce/hadoop_config.hpp"
#include "mapreduce/scheduler.hpp"
#include "mapreduce/sim_job.hpp"
#include "obs/trace.hpp"
#include "virt/cloud.hpp"

namespace vhadoop::mapreduce {

/// The simulated JobTracker + TaskTrackers of a hadoop virtual cluster.
///
/// Workers heartbeat on a staggered period (plus an out-of-band heartbeat
/// on task completion, as Hadoop 0.20 did); each heartbeat may be assigned
/// one map and one reduce. A map task's life: child-JVM spawn (exec latency
/// + guest CPU), job localization (jar streamed from a datanode, cached per
/// VM), HDFS input read (data-local when the scheduler could honor
/// locality), compute, and map-output materialization — spills are
/// short-lived scratch that normally lives in the guest page cache.
/// Reducers fetch every map's partition as it completes, merge (spilling
/// past io.sort.mb), compute, and commit output through the HDFS pipeline.
///
/// Fault tolerance mirrors Hadoop's: when a worker VM crashes, its running
/// tasks — and completed maps whose outputs died with it — are re-executed
/// elsewhere; reducers re-fetch only what they are missing. Stragglers
/// (e.g. tasks stuck on a silently hung node) are additionally covered by
/// speculative execution: a second attempt races the slow one and the
/// first finisher wins.
///
/// Multiple jobs may be active at once; which job a freed slot goes to is
/// the pluggable Scheduler's decision (HadoopConfig::scheduler). The FIFO
/// policy reproduces the era's default — strictly one job at a time — while
/// Fair and Capacity interleave jobs for multi-tenant traffic.
class SimulatedJobRunner {
 public:
  /// Trace process for JobTracker-level recording: submit/finish instants
  /// go on tid 0, and every job gets a root span (cat "job") on its own
  /// lane, tid = job id, spanning [submitted, finished]. Task attempt spans
  /// are cause-linked from the root ("dispatch" edges), so the critical-path
  /// analyzer (obs/critpath.*) can attribute each job's makespan.
  static constexpr int kJobTrackerPid = 9998;

  SimulatedJobRunner(virt::Cloud& cloud, hdfs::HdfsCluster& hdfs, HadoopConfig config,
                     std::vector<virt::VmId> workers);
  ~SimulatedJobRunner();

  SimulatedJobRunner(const SimulatedJobRunner&) = delete;
  SimulatedJobRunner& operator=(const SimulatedJobRunner&) = delete;

  /// Submit a job; `on_done` fires with the completed timeline. The job is
  /// runnable immediately — whether it actually receives slots while other
  /// jobs are active is the scheduler's call.
  void submit(SimJobSpec spec, std::function<void(const JobTimeline&)> on_done);

  bool idle() const { return jobs_.empty(); }
  /// Tasks currently executing on `vm` (drives the migration dirty model).
  int running_tasks(virt::VmId vm) const;
  const HadoopConfig& config() const { return config_; }
  const std::vector<virt::VmId>& workers() const { return workers_; }
  const char* scheduler_name() const { return scheduler_->name(); }
  /// Map tasks that ran more than once (re-execution or speculation).
  int reexecuted_maps() const { return reexecuted_maps_; }

  /// Register a new TaskTracker (cluster scale-out): the VM starts
  /// heartbeating and receives tasks from the next beat on.
  void add_tracker(virt::VmId vm);

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Tracker {
    virt::VmId vm;
    int free_map_slots = 0;
    int free_reduce_slots = 0;
    int running = 0;
    bool alive = true;
    /// Trace-lane occupancy: map slots take tids [0, map_slots), reduce
    /// slots [map_slots, map_slots + reduce_slots).
    std::vector<bool> map_slot_busy;
    std::vector<bool> reduce_slot_busy;
  };

  /// Attempt slot 0 holds the primary attempt, slot 1 a speculative
  /// duplicate racing it under the same attempt number.
  struct MapState {
    int attempt = 0;
    bool done = false;
    std::size_t tracker[2] = {kNone, kNone};  ///< tracker per attempt slot
    virt::VmId output_vm = 0;          ///< where the winning spill lives
    sim::Engine::EventId watchdog[2];  ///< task timeout per attempt slot
    int tid[2] = {-1, -1};             ///< trace lane per attempt slot
    obs::SpanId span[2] = {0, 0};      ///< task attempt span per slot
    /// Winning attempt's span: the `from` of the "shuffle" cause edges the
    /// reducers record when this map's partition arrives.
    obs::SpanId done_span = 0;
  };

  struct ReduceState {
    int attempt = 0;
    bool assigned = false;
    bool ready = false;  ///< JVM + localization finished, may fetch
    bool done = false;
    std::size_t tracker = kNone;
    std::vector<bool> fetched;
    std::size_t fetch_count = 0;
    double fetched_bytes = 0.0;
    /// Map indices waiting for a copier slot (FIFO; see pump_fetches).
    std::deque<std::size_t> fetch_queue;
    /// In-flight parallel copies (≤ config.reduce_parallel_copies).
    int copiers = 0;
    double last_progress = 0.0;        ///< refreshed by shuffle arrivals
    sim::Engine::EventId watchdog;
    int tid = -1;                  ///< trace lane of the current attempt
    obs::SpanId span = 0;          ///< current attempt's task span
    obs::SpanId shuffle_span = 0;  ///< current attempt's shuffle span
  };

  /// One in-flight job: the per-job state machine that used to be the whole
  /// runner, now instantiated once per concurrent job.
  struct ActiveJob {
    std::uint64_t id = 0;        ///< unique; guards stale callbacks
    std::size_t submit_index = 0;  ///< FIFO order for the schedulers
    SimJobSpec spec;
    std::function<void(const JobTimeline&)> on_done;
    JobTimeline timeline;
    std::deque<std::size_t> pending_maps;
    std::deque<std::size_t> retry_reduces;
    std::vector<MapState> maps;
    std::vector<ReduceState> reduces;
    std::size_t maps_done = 0;
    std::size_t reduces_done = 0;
    std::size_t next_reduce = 0;
    int running_maps = 0;     ///< live map attempts (scheduler share basis)
    int running_reduces = 0;  ///< live reduce attempts
    bool started = false;     ///< first slot granted (queue-wait observed)
    obs::SpanId root_span = 0;  ///< job span on the JobTracker lane
    /// Delay scheduling: when this job first got skipped for lacking a
    /// data-local map on an offered VM (<0 = not currently waiting).
    double locality_wait_since = -1.0;
  };

  using JobFn = std::function<void(ActiveJob&)>;

  ActiveJob* find_job(std::uint64_t id);
  void erase_job(std::uint64_t id);
  void fail_all_jobs();
  void start_heartbeats();
  void heartbeat(std::size_t tracker_idx);
  void out_of_band_heartbeat(std::size_t tracker_idx);
  void localize(ActiveJob& job, virt::VmId vm, std::function<void()> next);

  /// Ask the scheduler which job gets a slot of `kind` on this tracker.
  /// Returns an index into jobs_ or kNone.
  std::size_t pick_job(SlotKind kind, std::size_t tracker_idx);
  /// Tasks of `kind` the scheduler may place for this job right now
  /// (reduce counts respect slow-start).
  std::size_t schedulable_tasks(const ActiveJob& job, SlotKind kind) const;
  /// Best locality any pending map of this job can achieve on `vm`: `node`
  /// when some map's block has a replica on the VM itself (or needs no
  /// locality), `rack` when the best on offer is a replica elsewhere in the
  /// VM's rack.
  struct MapLocality {
    bool node = false;
    bool rack = false;
  };
  MapLocality job_map_locality(const ActiveJob& job, virt::VmId vm) const;
  int total_live_slots(SlotKind kind) const;
  void note_job_started(ActiveJob& job);

  void maybe_assign_map(std::size_t tracker_idx);
  void maybe_speculate(std::size_t tracker_idx);
  void maybe_assign_reduce(std::size_t tracker_idx);

  // Task-attempt transitions. Each is written once; every path that moves
  // an attempt goes through these.
  /// Take a free slot of `kind` on the tracker for one attempt of `job`;
  /// returns the attempt's trace lane.
  int take_slot(ActiveJob& job, SlotKind kind, std::size_t tracker_idx);
  /// Give back the slot an attempt held in lane `tid`. The job's running
  /// count always drops; the tracker's counters and lane only while it is
  /// alive, since a crash has already zeroed them.
  void give_slot(ActiveJob& job, SlotKind kind, std::size_t tracker_idx, int tid);
  /// Start an attempt of map m in attempt slot `slot` (0 primary, 1
  /// speculative) on the tracker: take a slot, arm the task timeout, run.
  void run_map(ActiveJob& job, std::size_t m, std::size_t tracker_idx, int slot);
  /// Write off map m's attempt in `slot`: cancel its timeout and give back
  /// its slot. Returns whether the other slot still holds an attempt (a
  /// crash drops every attempt of the dead tracker, so a held slot is live).
  bool drop_map_attempt(ActiveJob& job, std::size_t m, int slot);
  /// Queue map m for a fresh attempt, invalidating every continuation of
  /// the old ones. No attempt slot may be held; a completed map whose
  /// output was lost becomes incomplete again.
  void requeue_map(ActiveJob& job, std::size_t m);
  void finish_map(ActiveJob& job, std::size_t m, std::size_t tracker_idx);
  /// Start reduce r's current attempt on the tracker: take a slot, arm the
  /// watchdog, then spawn, localize and begin the shuffle.
  void run_reduce(ActiveJob& job, std::size_t r, std::size_t tracker_idx);
  /// Arm reduce r's watchdog at the absolute deadline last_progress +
  /// task_timeout_seconds. At the deadline it re-arms if shuffle progress
  /// moved the deadline past now, and otherwise restarts the attempt.
  void arm_reduce_watchdog(ActiveJob& job, std::size_t r);
  /// Kill reduce r's attempt (give back its slot, cancel its watchdog) and
  /// queue a fresh attempt that starts over from an empty shuffle.
  void restart_reduce(ActiveJob& job, std::size_t r);
  /// Queue map `m`'s partition for reduce `r` and start copies while
  /// copier slots are free.
  void start_fetch(ActiveJob& job, std::size_t m, std::size_t r);
  /// Launch queued fetches up to reduce_parallel_copies in flight.
  void pump_fetches(ActiveJob& job, std::size_t r);
  void maybe_merge(ActiveJob& job, std::size_t r);
  void finish_reduce(ActiveJob& job, std::size_t r);
  void maybe_finish_job(ActiveJob& job);
  void on_vm_crash(virt::VmId vm);
  /// Drop job's attempts on the dead tracker, requeue the maps left without
  /// a live attempt or whose unfetched output died with `vm`, and restart
  /// the reduces that ran there.
  void crash_job(ActiveJob& job, std::size_t dead, virt::VmId vm);

  /// Continuation valid only while job `id` is active and map m is still on
  /// attempt `attempt` (re-execution invalidates older chains). The live
  /// ActiveJob is re-resolved at fire time — never captured.
  std::function<void()> map_guard(std::uint64_t id, std::size_t m, int attempt, JobFn fn);
  std::function<void()> reduce_guard(std::uint64_t id, std::size_t r, int attempt, JobFn fn);

  /// Page-cache key for map task m's final spill (unique per job).
  static std::string map_output_key(const ActiveJob& job, std::size_t m) {
    return "job" + std::to_string(job.id) + "/spill-m" + std::to_string(m);
  }

  obs::Tracer& tracer() { return cloud_.engine().tracer(); }
  obs::Counter* queue_counter(const ActiveJob& job, const char* what);
  /// Per-tenant latency histogram (`mr.queue.<queue>.<what>`), created on
  /// first use with the same buckets as mr.job_seconds.
  obs::Histogram* queue_histogram(const ActiveJob& job, const char* what);

  virt::Cloud& cloud_;
  hdfs::HdfsCluster& hdfs_;
  HadoopConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<virt::VmId> workers_;
  std::vector<Tracker> trackers_;
  /// Active jobs in submission order (completed/failed jobs are removed).
  std::vector<std::unique_ptr<ActiveJob>> jobs_;
  /// pick_job's views of jobs_[0..n), cleared and refilled by every pick:
  /// once it has grown to the backlog, a pick allocates nothing.
  std::vector<JobSchedView> views_;
  std::uint64_t next_job_id_ = 0;
  std::size_t submit_counter_ = 0;
  int reexecuted_maps_ = 0;
  std::vector<sim::Engine::EventId> heartbeat_events_;

  obs::Counter* m_map_attempts_;
  obs::Counter* m_reduce_attempts_;
  obs::Counter* m_speculative_launched_;
  obs::Counter* m_speculative_wins_;
  obs::Counter* m_reexecutions_;
  obs::Counter* m_heartbeats_;
  obs::Counter* m_jobs_completed_;
  obs::Counter* m_jobs_failed_;
  obs::Counter* m_shuffle_bytes_;
  /// Map input locality tiers actually achieved (HDFS-backed maps only).
  obs::Counter* m_locality_node_;
  obs::Counter* m_locality_rack_;
  obs::Counter* m_locality_off_;
  obs::Gauge* g_jobs_running_;
  obs::Histogram* h_map_seconds_;
  obs::Histogram* h_reduce_seconds_;
  obs::Histogram* h_job_seconds_;
  obs::Histogram* h_queue_wait_seconds_;
  obs::Histogram* h_map_slot_share_;
};

}  // namespace vhadoop::mapreduce
