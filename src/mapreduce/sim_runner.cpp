#include "mapreduce/sim_runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/latch.hpp"

namespace vhadoop::mapreduce {

SimulatedJobRunner::SimulatedJobRunner(virt::Cloud& cloud, hdfs::HdfsCluster& hdfs,
                                       HadoopConfig config, std::vector<virt::VmId> workers)
    : cloud_(cloud),
      hdfs_(hdfs),
      config_(config),
      scheduler_(make_scheduler(config_)),
      workers_(std::move(workers)),
      m_map_attempts_(cloud.engine().metrics().counter("mr.map_attempts")),
      m_reduce_attempts_(cloud.engine().metrics().counter("mr.reduce_attempts")),
      m_speculative_launched_(cloud.engine().metrics().counter("mr.speculative_launched")),
      m_speculative_wins_(cloud.engine().metrics().counter("mr.speculative_wins")),
      m_reexecutions_(cloud.engine().metrics().counter("mr.reexecutions")),
      m_heartbeats_(cloud.engine().metrics().counter("mr.heartbeats")),
      m_jobs_completed_(cloud.engine().metrics().counter("mr.jobs_completed")),
      m_jobs_failed_(cloud.engine().metrics().counter("mr.jobs_failed")),
      m_shuffle_bytes_(cloud.engine().metrics().counter("mr.shuffle_bytes")),
      m_locality_node_(cloud.engine().metrics().counter("mr.locality.node")),
      m_locality_rack_(cloud.engine().metrics().counter("mr.locality.rack")),
      m_locality_off_(cloud.engine().metrics().counter("mr.locality.off")),
      g_jobs_running_(cloud.engine().metrics().gauge("mr.jobs_running")),
      h_map_seconds_(cloud.engine().metrics().histogram(
          "mr.map_seconds", obs::Histogram::exponential_buckets(1.0, 2.0, 12))),
      h_reduce_seconds_(cloud.engine().metrics().histogram(
          "mr.reduce_seconds", obs::Histogram::exponential_buckets(1.0, 2.0, 12))),
      h_job_seconds_(cloud.engine().metrics().histogram(
          "mr.job_seconds", obs::Histogram::exponential_buckets(4.0, 2.0, 14))),
      h_queue_wait_seconds_(cloud.engine().metrics().histogram(
          "mr.job_queue_wait_seconds", obs::Histogram::exponential_buckets(0.5, 2.0, 14))),
      h_map_slot_share_(cloud.engine().metrics().histogram(
          "mr.map_slot_share", obs::Histogram::linear_buckets(1.0, 10))) {
  if (workers_.empty()) throw std::invalid_argument("SimulatedJobRunner: no workers");
  trackers_.reserve(workers_.size());
  for (virt::VmId vm : workers_) {
    trackers_.push_back(
        {vm, config_.map_slots_per_worker, config_.reduce_slots_per_worker, 0, true});
    trackers_.back().map_slot_busy.assign(config_.map_slots_per_worker, false);
    trackers_.back().reduce_slot_busy.assign(config_.reduce_slots_per_worker, false);
  }
  heartbeat_events_.resize(trackers_.size());
  tracer().set_process_name(kJobTrackerPid, "jobtracker");
  cloud_.on_crash([this](virt::VmId vm) { on_vm_crash(vm); });
}

int SimulatedJobRunner::take_slot(ActiveJob& job, SlotKind kind, std::size_t i) {
  Tracker& tr = trackers_[i];
  const bool map = kind == SlotKind::Map;
  --(map ? tr.free_map_slots : tr.free_reduce_slots);
  ++tr.running;
  ++(map ? job.running_maps : job.running_reduces);
  // The attempt's trace lane: the lowest free one of its kind, grown
  // defensively.
  std::vector<bool>& busy = map ? tr.map_slot_busy : tr.reduce_slot_busy;
  const int base = map ? 0 : config_.map_slots_per_worker;
  auto lane = std::find(busy.begin(), busy.end(), false);
  if (lane == busy.end()) lane = busy.insert(busy.end(), false);
  *lane = true;
  return base + static_cast<int>(lane - busy.begin());
}

void SimulatedJobRunner::give_slot(ActiveJob& job, SlotKind kind, std::size_t i, int tid) {
  const bool map = kind == SlotKind::Map;
  --(map ? job.running_maps : job.running_reduces);
  Tracker& tr = trackers_[i];
  if (!tr.alive) return;
  ++(map ? tr.free_map_slots : tr.free_reduce_slots);
  --tr.running;
  const int base = map ? 0 : config_.map_slots_per_worker;
  (map ? tr.map_slot_busy : tr.reduce_slot_busy)[static_cast<std::size_t>(tid - base)] = false;
  // Close any spans a dropped continuation chain left open on the lane.
  tracer().end_all(static_cast<int>(tr.vm), tid);
}

obs::Counter* SimulatedJobRunner::queue_counter(const ActiveJob& job, const char* what) {
  return cloud_.engine().metrics().counter("mr.queue." + job.spec.queue + "." + what);
}

obs::Histogram* SimulatedJobRunner::queue_histogram(const ActiveJob& job, const char* what) {
  return cloud_.engine().metrics().histogram(
      "mr.queue." + job.spec.queue + "." + what,
      obs::Histogram::exponential_buckets(4.0, 2.0, 14));
}

SimulatedJobRunner::~SimulatedJobRunner() {
  for (auto& ev : heartbeat_events_) {
    if (ev.valid()) cloud_.engine().cancel(ev);
  }
}

void SimulatedJobRunner::start_heartbeats() {
  // Staggered heartbeats: tracker i first beats at i/N of a period. Only
  // lapsed timers are re-armed, so duplicates cannot accumulate.
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    if (heartbeat_events_[i].valid() || !trackers_[i].alive) continue;
    const double phase = config_.heartbeat_seconds * static_cast<double>(i) /
                         static_cast<double>(trackers_.size());
    heartbeat_events_[i] = cloud_.engine().schedule_in(phase, [this, i] { heartbeat(i); });
  }
}

void SimulatedJobRunner::add_tracker(virt::VmId vm) {
  for (const Tracker& t : trackers_) {
    if (t.vm == vm) return;
  }
  workers_.push_back(vm);
  trackers_.push_back(
      {vm, config_.map_slots_per_worker, config_.reduce_slots_per_worker, 0, true});
  trackers_.back().map_slot_busy.assign(config_.map_slots_per_worker, false);
  trackers_.back().reduce_slot_busy.assign(config_.reduce_slots_per_worker, false);
  heartbeat_events_.push_back({});
  if (!jobs_.empty()) start_heartbeats();
}

int SimulatedJobRunner::running_tasks(virt::VmId vm) const {
  for (const Tracker& t : trackers_) {
    if (t.vm == vm) return t.running;
  }
  return 0;
}

SimulatedJobRunner::ActiveJob* SimulatedJobRunner::find_job(std::uint64_t id) {
  for (auto& job : jobs_) {
    if (job->id == id) return job.get();
  }
  return nullptr;
}

void SimulatedJobRunner::erase_job(std::uint64_t id) {
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [id](const std::unique_ptr<ActiveJob>& j) { return j->id == id; }),
              jobs_.end());
  g_jobs_running_->set(static_cast<double>(jobs_.size()));
}

void SimulatedJobRunner::submit(SimJobSpec spec, std::function<void(const JobTimeline&)> on_done) {
  if (spec.maps.empty()) throw std::invalid_argument("SimJobSpec: no map tasks");
  // `!(x >= 0)` also catches NaN, which every ordered comparison rejects.
  if (!(spec.deadline_seconds >= 0.0) || !std::isfinite(spec.deadline_seconds)) {
    throw std::invalid_argument("SimJobSpec: deadline_seconds must be finite and >= 0 (0 = none), got " +
                                std::to_string(spec.deadline_seconds));
  }
  if (spec.priority < 0 || spec.priority > 9) {
    throw std::invalid_argument("SimJobSpec: priority must be in [0, 9], got " +
                                std::to_string(spec.priority));
  }
  if (!spec.shuffle_matrix.empty()) {
    if (spec.shuffle_matrix.size() != spec.maps.size() ||
        (!spec.reduces.empty() && spec.shuffle_matrix[0].size() != spec.reduces.size())) {
      throw std::invalid_argument("SimJobSpec: shuffle matrix shape mismatch");
    }
  }
  auto job = std::make_unique<ActiveJob>();
  job->id = ++next_job_id_;
  job->submit_index = submit_counter_++;
  job->spec = std::move(spec);
  job->on_done = std::move(on_done);
  job->timeline.name = job->spec.name;
  job->timeline.submitted = cloud_.engine().now();
  job->timeline.maps.resize(job->spec.maps.size());
  job->timeline.reduces.resize(job->spec.reduces.size());
  job->maps.assign(job->spec.maps.size(), {});
  job->reduces.assign(job->spec.reduces.size(), {});
  for (auto& rs : job->reduces) rs.fetched.assign(job->spec.maps.size(), false);
  for (std::size_t m = 0; m < job->spec.maps.size(); ++m) job->pending_maps.push_back(m);
  if (tracer().enabled()) {
    tracer().instant(kJobTrackerPid, 0, "submit:" + job->spec.name, "job");
    // Job root span on its own JobTracker lane: covers [submitted,
    // finished] and anchors the "dispatch" cause edges of every task
    // attempt. The critical-path analyzer keys on cat "job".
    tracer().set_thread_name(kJobTrackerPid, static_cast<int>(job->id),
                             "job:" + job->spec.name);
    job->root_span = tracer().begin(kJobTrackerPid, static_cast<int>(job->id),
                                    "job:" + job->spec.name, "job", job->id);
  }
  jobs_.push_back(std::move(job));
  g_jobs_running_->set(static_cast<double>(jobs_.size()));
  start_heartbeats();
}

std::function<void()> SimulatedJobRunner::map_guard(std::uint64_t id, std::size_t m,
                                                    int attempt, JobFn fn) {
  return [this, id, m, attempt, fn = std::move(fn)] {
    ActiveJob* job = find_job(id);
    if (job && job->maps[m].attempt == attempt) fn(*job);
  };
}

std::function<void()> SimulatedJobRunner::reduce_guard(std::uint64_t id, std::size_t r,
                                                       int attempt, JobFn fn) {
  return [this, id, r, attempt, fn = std::move(fn)] {
    ActiveJob* job = find_job(id);
    if (job && job->reduces[r].attempt == attempt) fn(*job);
  };
}

void SimulatedJobRunner::heartbeat(std::size_t i) {
  if (!trackers_[i].alive) {
    heartbeat_events_[i] = {};
    return;
  }
  if (jobs_.empty()) {
    // Idle: let this timer lapse so a finished simulation can drain its
    // event queue. submit() re-arms lapsed timers.
    heartbeat_events_[i] = {};
    return;
  }
  heartbeat_events_[i] =
      cloud_.engine().schedule_in(config_.heartbeat_seconds, [this, i] { heartbeat(i); });
  m_heartbeats_->inc();
  // One map and one reduce may be handed out per heartbeat (0.20 protocol).
  maybe_assign_map(i);
  maybe_assign_reduce(i);
}

void SimulatedJobRunner::out_of_band_heartbeat(std::size_t i) {
  if (!config_.out_of_band_heartbeats) return;
  // Hadoop 0.20 TaskTrackers heartbeat immediately after a task completes
  // so freed slots refill without waiting out the period.
  cloud_.engine().schedule_in(0.1, [this, i] {
    if (jobs_.empty() || !trackers_[i].alive) return;
    maybe_assign_map(i);
    maybe_assign_reduce(i);
  });
}

std::size_t SimulatedJobRunner::schedulable_tasks(const ActiveJob& job, SlotKind kind) const {
  if (kind == SlotKind::Map) return job.pending_maps.size();
  std::size_t n = job.retry_reduces.size();
  if (job.next_reduce < job.spec.reduces.size()) {
    const double done_frac = job.spec.maps.empty()
                                 ? 1.0
                                 : static_cast<double>(job.maps_done) /
                                       static_cast<double>(job.spec.maps.size());
    // Reducers slow-start once enough maps have finished; a tiny threshold
    // (the default) launches them immediately so shuffle overlaps the map
    // waves, as Hadoop does.
    if (!(config_.reduce_slowstart > 0.05 && done_frac < config_.reduce_slowstart)) {
      n += job.spec.reduces.size() - job.next_reduce;
    }
  }
  return n;
}

SimulatedJobRunner::MapLocality SimulatedJobRunner::job_map_locality(const ActiveJob& job,
                                                                     virt::VmId vm) const {
  MapLocality loc;
  for (std::size_t m : job.pending_maps) {
    const auto& mt = job.spec.maps[m];
    if (mt.input_path.empty()) {  // no locality to honour
      loc.node = true;
      return loc;
    }
    const auto& block =
        hdfs_.blocks(mt.input_path)[static_cast<std::size_t>(std::max(0, mt.block_index))];
    switch (hdfs_.locality_tier(block, vm)) {
      case hdfs::LocalityTier::Node:
        loc.node = true;
        return loc;
      case hdfs::LocalityTier::Rack:
        loc.rack = true;
        break;
      case hdfs::LocalityTier::Off:
        break;
    }
  }
  return loc;
}

int SimulatedJobRunner::total_live_slots(SlotKind kind) const {
  int alive = 0;
  for (const Tracker& t : trackers_) alive += t.alive ? 1 : 0;
  return alive *
         (kind == SlotKind::Map ? config_.map_slots_per_worker : config_.reduce_slots_per_worker);
}

std::size_t SimulatedJobRunner::pick_job(SlotKind kind, std::size_t tracker_idx) {
  const bool locality = kind == SlotKind::Map && scheduler_->wants_locality();
  const virt::VmId vm = trackers_[tracker_idx].vm;
  const double now = cloud_.engine().now();
  // A head-of-line policy reads only the oldest job's view, so build just
  // that one: the pick then costs the same however long the backlog is.
  const std::size_t n = scheduler_->head_of_line() ? std::min<std::size_t>(jobs_.size(), 1)
                                                   : jobs_.size();
  views_.clear();
  for (std::size_t j = 0; j < n; ++j) {
    ActiveJob& job = *jobs_[j];
    JobSchedView& v = views_.emplace_back();
    v.id = job.id;
    v.submit_index = job.submit_index;
    v.queue = job.spec.queue;
    v.user = job.spec.user;
    v.running = kind == SlotKind::Map ? job.running_maps : job.running_reduces;
    v.pending = schedulable_tasks(job, kind);
    v.priority = job.spec.priority;
    v.deadline = job.spec.deadline_seconds > 0.0
                     ? job.timeline.submitted + job.spec.deadline_seconds
                     : sim::kNever;
    v.age = now - job.timeline.submitted;
    v.started = job.started;
    if (locality && v.pending > 0) {
      const MapLocality loc = job_map_locality(job, vm);
      v.local_available = loc.node;
      // On a single-rack cluster every replica is "rack-local", so the
      // two-tier delay walk must collapse to the pre-topology behaviour.
      v.rack_local_available = cloud_.rack_count() <= 1 ? true : (loc.node || loc.rack);
      if (v.local_available) {
        job.locality_wait_since = -1.0;
      } else {
        // Delay scheduling: start (or continue) the clock on how long this
        // job has been passed over for lack of a local block.
        if (job.locality_wait_since < 0.0) job.locality_wait_since = now;
        v.locality_wait = now - job.locality_wait_since;
      }
    }
  }
  return scheduler_->pick(views_, kind, total_live_slots(kind));
}

void SimulatedJobRunner::note_job_started(ActiveJob& job) {
  if (job.started) return;
  job.started = true;
  job.timeline.first_task_at = cloud_.engine().now();
  h_queue_wait_seconds_->observe(job.timeline.queue_wait());
}

void SimulatedJobRunner::maybe_assign_map(std::size_t i) {
  Tracker& tr = trackers_[i];
  // A silently hung guest cannot answer the heartbeat RPC, so the
  // JobTracker never hands it work (its in-flight tasks die by timeout).
  if (!tr.alive || !cloud_.responsive(tr.vm) || tr.free_map_slots <= 0) return;
  const std::size_t j = pick_job(SlotKind::Map, i);
  if (j == Scheduler::kNone) {
    maybe_speculate(i);
    return;
  }
  ActiveJob& job = *jobs_[j];

  // Locality-aware pick: first pending map whose block has a replica on
  // this tracker's VM; failing that (on a multi-rack cluster) the first map
  // with a replica in this VM's rack; otherwise the head of the queue.
  std::size_t chosen_pos = 0;
  std::size_t rack_pos = kNone;
  bool found_node_local = false;
  const bool multi_rack = cloud_.rack_count() > 1;
  for (std::size_t pos = 0; pos < job.pending_maps.size(); ++pos) {
    const auto& mt = job.spec.maps[job.pending_maps[pos]];
    if (mt.input_path.empty()) continue;
    const auto& block =
        hdfs_.blocks(mt.input_path)[static_cast<std::size_t>(std::max(0, mt.block_index))];
    if (hdfs_.is_local(block, tr.vm)) {
      chosen_pos = pos;
      found_node_local = true;
      break;
    }
    if (multi_rack && rack_pos == kNone &&
        hdfs_.locality_tier(block, tr.vm) == hdfs::LocalityTier::Rack) {
      rack_pos = pos;
    }
  }
  if (!found_node_local && rack_pos != kNone) chosen_pos = rack_pos;
  const std::size_t m = job.pending_maps[chosen_pos];
  job.pending_maps.erase(job.pending_maps.begin() + static_cast<std::ptrdiff_t>(chosen_pos));
  job.locality_wait_since = -1.0;  // granted a slot: the delay clock resets
  note_job_started(job);
  job.timeline.maps[m].vm = tr.vm;
  job.timeline.maps[m].assigned = cloud_.engine().now();
  run_map(job, m, i, 0);
  h_map_slot_share_->observe(static_cast<double>(job.running_maps));
}

void SimulatedJobRunner::maybe_speculate(std::size_t i) {
  if (!config_.speculative_execution) return;
  for (auto& jp : jobs_) {
    ActiveJob& job = *jp;
    if (job.maps_done == 0) continue;

    // Mean wall-clock of this job's completed maps.
    double mean = 0.0;
    std::size_t n = 0;
    for (std::size_t m = 0; m < job.maps.size(); ++m) {
      if (job.maps[m].done) {
        mean += job.timeline.maps[m].finished - job.timeline.maps[m].assigned;
        ++n;
      }
    }
    if (n == 0) continue;
    mean /= static_cast<double>(n);

    for (std::size_t m = 0; m < job.maps.size(); ++m) {
      const MapState& ms = job.maps[m];
      if (ms.done || ms.tracker[0] == kNone || ms.tracker[1] != kNone || ms.tracker[0] == i) {
        continue;
      }
      const double running_for = cloud_.engine().now() - job.timeline.maps[m].assigned;
      if (running_for < config_.speculative_slowdown * mean) continue;
      ++reexecuted_maps_;
      m_reexecutions_->inc();
      m_speculative_launched_->inc();
      // The duplicate races the original under the same attempt number; the
      // first finisher wins and the loser's chain is invalidated.
      run_map(job, m, i, 1);
      return;  // at most one speculative launch per heartbeat
    }
  }
}

void SimulatedJobRunner::maybe_assign_reduce(std::size_t i) {
  Tracker& tr = trackers_[i];
  if (!tr.alive || !cloud_.responsive(tr.vm) || tr.free_reduce_slots <= 0) return;
  const std::size_t j = pick_job(SlotKind::Reduce, i);
  if (j == Scheduler::kNone) return;
  ActiveJob& job = *jobs_[j];
  std::size_t r;
  if (!job.retry_reduces.empty()) {
    r = job.retry_reduces.front();
    job.retry_reduces.pop_front();
  } else {
    r = job.next_reduce;
    ++job.next_reduce;
  }
  note_job_started(job);
  job.timeline.reduces[r].vm = tr.vm;
  job.timeline.reduces[r].assigned = cloud_.engine().now();
  run_reduce(job, r, i);
}

void SimulatedJobRunner::run_map(ActiveJob& job0, std::size_t m, std::size_t i, int slot) {
  MapState& ms = job0.maps[m];
  const auto id = job0.id;
  const int attempt = ms.attempt;
  const virt::VmId vm = trackers_[i].vm;
  auto G = [this, id, m, attempt](JobFn fn) { return map_guard(id, m, attempt, std::move(fn)); };
  const int tid = take_slot(job0, SlotKind::Map, i);
  ms.tracker[slot] = i;
  ms.tid[slot] = tid;
  // Task timeout: write the attempt off, and requeue the map unless the
  // attempt in the other slot still races.
  ms.watchdog[slot] = cloud_.engine().schedule_in(
      config_.task_timeout_seconds, G([this, m, slot](ActiveJob& job) {
        job.maps[m].watchdog[slot] = {};  // fired
        if (!drop_map_attempt(job, m, slot)) requeue_map(job, m);
      }));
  m_map_attempts_->inc();
  const int pid = static_cast<int>(vm);
  if (tracer().enabled()) {
    const obs::SpanId task_span =
        tracer().begin(pid, tid,
                       "map-" + std::to_string(m) +
                           (attempt > 0 ? "/a" + std::to_string(attempt) : ""),
                       "map", id);
    ms.span[slot] = task_span;
    tracer().cause(job0.root_span, task_span, "dispatch");
  }

  // 1. child JVM spawn: fixed exec latency plus guest CPU work (the CPU
  // part is what host oversubscription stretches).
  cloud_.engine().schedule_in(config_.task_start_latency, G([this, m, i, vm, pid, tid,
                                                             G](ActiveJob&) {
  tracer().begin(pid, tid, "jvm_spawn", "map");
  cloud_.run_compute(vm, config_.task_start_cpu_seconds, G([this, m, i, vm, pid, tid,
                                                            G](ActiveJob& job) {
    tracer().end(pid, tid);  // jvm_spawn
    // 2. job localization: stream jar + conf from a datanode
    // (DistributedCache — cold once per VM per job, cached afterwards).
    tracer().begin(pid, tid, "localize", "map");
    localize(job, vm, G([this, m, i, vm, pid, tid, G](ActiveJob& job2) {
      tracer().end(pid, tid);  // localize
      auto& timing = job2.timeline.maps[m];
      timing.started = cloud_.engine().now();
      const auto& mt = job2.spec.maps[m];
      auto after_read = G([this, m, i, vm, pid, tid, G](ActiveJob& job3) {
        tracer().end(pid, tid);  // read
        // 4. user map function.
        tracer().begin(pid, tid, "compute", "map");
        cloud_.run_compute(vm, job3.spec.maps[m].cpu_seconds, G([this, m, i, vm, pid, tid,
                                                                G](ActiveJob& job4) {
          tracer().end(pid, tid);  // compute
          // 5. materialize map output. The spill/commit span (and the
          // enclosing map span) are closed by the slot release in
          // finish_map via end_all.
          const auto& mt3 = job4.spec.maps[m];
          auto done = G([this, m, i](ActiveJob& job5) { finish_map(job5, m, i); });
          if (mt3.output_bytes <= 0.0) {
            done();
          } else if (job4.spec.map_output_to_hdfs) {
            const obs::SpanId commit_span = tracer().begin(pid, tid, "commit", "map");
            const int attempt_now = job4.maps[m].attempt;
            const std::string path =
                job4.spec.output_path + "/map-" + std::to_string(m) +
                (attempt_now > 0 ? "-a" + std::to_string(attempt_now) : "");
            if (hdfs_.exists(path)) {
              // A speculative duplicate races the original under the same
              // attempt number; whichever commits second finds the file in
              // place and its commit is a no-op rename (OutputCommitter).
              done();
            } else {
              // The HDFS write pipeline cause-links its root span to us.
              obs::AmbientCause amb(tracer(), commit_span);
              hdfs_.write_file(path, mt3.output_bytes, vm, std::move(done),
                               config_.output_replication);
            }
          } else {
            tracer().begin(pid, tid, "spill", "map");
            // Spill to local disk; one extra merge pass if the output
            // exceeds io.sort.mb. The final spill stays hot in the page
            // cache for the imminent shuffle fetches; the intermediate
            // pass is forced writeback.
            const bool extra = mt3.output_bytes > config_.io_sort_bytes;
            const std::string key = map_output_key(job4, m);
            auto write_final = [this, vm, mt3, key, done = std::move(done)]() mutable {
              cloud_.scratch_write(vm, mt3.output_bytes, std::move(done), key);
            };
            if (extra) {
              cloud_.disk_write(vm, mt3.output_bytes, [this, vm, mt3, write_final]() mutable {
                cloud_.disk_read(vm, mt3.output_bytes, std::move(write_final));
              });
            } else {
              write_final();
            }
          }
        }));
      });
      // 3. input: HDFS block or whole file (locality recorded) or raw
      // local-disk bytes.
      const obs::SpanId read_span = tracer().begin(pid, tid, "read", "map");
      // Flows the read starts synchronously link back to the read span.
      obs::AmbientCause amb(tracer(), read_span);
      if (!mt.input_path.empty()) {
        const auto& block =
            hdfs_.blocks(mt.input_path)[static_cast<std::size_t>(std::max(0, mt.block_index))];
        timing.data_local = hdfs_.is_local(block, vm);
        switch (hdfs_.locality_tier(block, vm)) {
          case hdfs::LocalityTier::Node: m_locality_node_->inc(); break;
          case hdfs::LocalityTier::Rack: m_locality_rack_->inc(); break;
          case hdfs::LocalityTier::Off: m_locality_off_->inc(); break;
        }
        if (mt.block_index < 0) {
          hdfs_.read_file(mt.input_path, vm, std::move(after_read));
        } else {
          hdfs_.read_block(mt.input_path, mt.block_index, vm, std::move(after_read));
        }
      } else if (mt.input_bytes > 0.0) {
        cloud_.disk_read(vm, mt.input_bytes, std::move(after_read));
      } else {
        after_read();
      }
    }));
  }));
  }));
}

void SimulatedJobRunner::localize(ActiveJob& job, virt::VmId vm, std::function<void()> next) {
  // job.jar/job.xml live in HDFS: localization streams them from a live
  // datanode (page-cache-hot there after the first fetch), so in a
  // cross-domain layout roughly half the fetches cross the GbE wire. The
  // local copy is cached, making later tasks on the same VM free.
  const std::string key = "job" + std::to_string(job.id) + "-jar";
  if (cloud_.cached(vm, key)) {
    next();
    return;
  }
  virt::VmId source = vm;
  const std::size_t start = (job.id * 31 + vm * 17) % workers_.size();
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    virt::VmId candidate = workers_[(start + k) % workers_.size()];
    if (cloud_.alive(candidate)) {
      source = candidate;
      break;
    }
  }
  if (source == vm) {
    cloud_.disk_read(vm, config_.task_localization_bytes, std::move(next), 1.0, key);
    return;
  }
  auto latch = sim::Latch::create(2, std::move(next));
  cloud_.disk_read(source, config_.task_localization_bytes, [latch] { latch->arrive(); }, 1.0,
                   key + "-src");
  cloud_.vm_transfer(source, vm, config_.task_localization_bytes, [this, vm, key, latch] {
    cloud_.cache_insert(vm, key, config_.task_localization_bytes);
    latch->arrive();
  });
}

bool SimulatedJobRunner::drop_map_attempt(ActiveJob& job, std::size_t m, int slot) {
  MapState& ms = job.maps[m];
  cloud_.engine().cancel(std::exchange(ms.watchdog[slot], {}));
  give_slot(job, SlotKind::Map, ms.tracker[slot], ms.tid[slot]);
  ms.tracker[slot] = kNone;
  ms.tid[slot] = -1;
  ms.span[slot] = 0;
  return ms.tracker[1 - slot] != kNone;
}

void SimulatedJobRunner::requeue_map(ActiveJob& job, std::size_t m) {
  MapState& ms = job.maps[m];
  if (ms.done) {
    ms.done = false;
    ms.done_span = 0;  // the re-run's winner sources future shuffle edges
    --job.maps_done;
  }
  ++ms.attempt;  // invalidates every continuation still in flight
  ++reexecuted_maps_;
  m_reexecutions_->inc();
  job.pending_maps.push_back(m);
}

void SimulatedJobRunner::finish_map(ActiveJob& job, std::size_t m, std::size_t i) {
  MapState& ms = job.maps[m];
  if (ms.done) return;  // a speculative loser crossing the line
  // A late completion of an attempt already written off (a timeout freed
  // its slot) must not release anything twice.
  const int win = ms.tracker[0] == i ? 0 : 1;
  if (ms.tracker[win] != i) return;
  ms.done = true;
  ms.output_vm = trackers_[i].vm;
  if (win == 1) m_speculative_wins_->inc();
  // The winner's span becomes the source of this map's shuffle edges.
  ms.done_span = ms.span[win];
  // Free the winner's slot, and kill the losing attempt if one is racing.
  drop_map_attempt(job, m, win);
  out_of_band_heartbeat(i);
  const std::size_t loser = ms.tracker[1 - win];
  if (loser != kNone) {
    ++ms.attempt;  // invalidates the loser's continuation chain
    drop_map_attempt(job, m, 1 - win);
    out_of_band_heartbeat(loser);
  }

  job.timeline.maps[m].vm = trackers_[i].vm;
  job.timeline.maps[m].finished = cloud_.engine().now();
  h_map_seconds_->observe(job.timeline.maps[m].finished - job.timeline.maps[m].assigned);
  ++job.maps_done;
  // Feed every ready reducer that does not have this partition yet.
  for (std::size_t r = 0; r < job.reduces.size(); ++r) {
    if (job.reduces[r].assigned && job.reduces[r].ready) start_fetch(job, m, r);
  }
  maybe_finish_job(job);
}

void SimulatedJobRunner::run_reduce(ActiveJob& job0, std::size_t r, std::size_t i) {
  ReduceState& rs = job0.reduces[r];
  const auto id = job0.id;
  const int attempt = rs.attempt;
  const virt::VmId vm = trackers_[i].vm;
  auto G = [this, id, r, attempt](JobFn fn) { return reduce_guard(id, r, attempt, std::move(fn)); };
  const int tid = take_slot(job0, SlotKind::Reduce, i);
  rs.assigned = true;
  rs.tracker = i;
  rs.tid = tid;
  rs.last_progress = cloud_.engine().now();
  arm_reduce_watchdog(job0, r);
  m_reduce_attempts_->inc();
  const int pid = static_cast<int>(vm);
  if (tracer().enabled()) {
    const obs::SpanId task_span =
        tracer().begin(pid, tid,
                       "reduce-" + std::to_string(r) +
                           (attempt > 0 ? "/a" + std::to_string(attempt) : ""),
                       "reduce", id);
    rs.span = task_span;
    tracer().cause(job0.root_span, task_span, "dispatch");
  }
  cloud_.engine().schedule_in(config_.task_start_latency, G([this, r, vm, pid, tid,
                                                             G](ActiveJob&) {
  tracer().begin(pid, tid, "jvm_spawn", "reduce");
  cloud_.run_compute(vm, config_.task_start_cpu_seconds, G([this, r, vm, pid, tid,
                                                            G](ActiveJob& job) {
    tracer().end(pid, tid);  // jvm_spawn
    tracer().begin(pid, tid, "localize", "reduce");
    localize(job, vm, G([this, r, pid, tid](ActiveJob& job2) {
      tracer().end(pid, tid);  // localize
      // The shuffle span runs from fetch-readiness to the last partition's
      // arrival; maybe_merge closes it. It is the `to` of the "shuffle"
      // cause edges recorded as partitions land.
      job2.reduces[r].shuffle_span = tracer().begin(pid, tid, "shuffle", "reduce");
      job2.timeline.reduces[r].started = cloud_.engine().now();
      job2.reduces[r].ready = true;
      job2.reduces[r].last_progress = cloud_.engine().now();
      // Fetch everything already finished; the rest arrives via finish_map.
      for (std::size_t m = 0; m < job2.maps.size(); ++m) {
        if (job2.maps[m].done) start_fetch(job2, m, r);
      }
      maybe_merge(job2, r);  // degenerate: zero maps already fetched
    }));
  }));
  }));
}

void SimulatedJobRunner::start_fetch(ActiveJob& job, std::size_t m, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  if (rs.fetched[m]) return;  // already have this partition
  rs.fetch_queue.push_back(m);
  pump_fetches(job, r);
}

void SimulatedJobRunner::pump_fetches(ActiveJob& job, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  const auto id = job.id;
  while (rs.copiers < config_.reduce_parallel_copies && !rs.fetch_queue.empty()) {
    const std::size_t m = rs.fetch_queue.front();
    rs.fetch_queue.pop_front();
    if (rs.fetched[m]) continue;  // duplicate enqueue after a re-fetch
    const double bytes = job.spec.shuffle_bytes(m, r);
    const virt::VmId map_vm = job.maps[m].output_vm;
    const virt::VmId red_vm = job.timeline.reduces[r].vm;
    if (bytes > 0.0 && !cloud_.alive(map_vm)) {
      // Fetch failure against a dead node: the map output is gone for good;
      // re-execute the map (the re-run's finish re-feeds this reducer) —
      // Hadoop's "too many fetch failures". A map already re-executing
      // stays as it is.
      if (job.maps[m].done) requeue_map(job, m);
      continue;
    }
    ++rs.copiers;
    const double fetch_start = cloud_.engine().now();
    const obs::SpanId map_span = job.maps[m].done_span;
    auto arrived = reduce_guard(id, r, rs.attempt, [this, m, r, bytes, fetch_start,
                                                    map_span](ActiveJob& job2) {
      ReduceState& rs2 = job2.reduces[r];
      --rs2.copiers;
      if (!rs2.fetched[m]) {
        rs2.fetched[m] = true;
        ++rs2.fetch_count;
        rs2.fetched_bytes += bytes;
        job2.timeline.shuffle_fetched_bytes += bytes;
        m_shuffle_bytes_->add(bytes);
        rs2.last_progress = cloud_.engine().now();
        // Map output → shuffle arrival: the edge the critical-path walker
        // follows back to the last-arriving map attempt.
        tracer().cause(map_span, rs2.shuffle_span, "shuffle", fetch_start);
        maybe_merge(job2, r);
      }
      pump_fetches(job2, r);
    });
    if (bytes <= 0.0) {
      arrived();  // frees the copier slot synchronously
      continue;
    }
    // Segment fetch: read the mapper's spill (usually still in its page
    // cache) while streaming it to the reducer (concurrent stages,
    // latch-joined) — so shuffle cost is network-topology-bound, exactly the
    // term the cross-domain placement inflates.
    auto latch = sim::Latch::create(2, std::move(arrived));
    // Fetch flows link back to this reducer's shuffle span.
    obs::AmbientCause amb(tracer(), rs.shuffle_span);
    cloud_.disk_read(map_vm, bytes, [latch] { latch->arrive(); }, 1.0, map_output_key(job, m));
    cloud_.vm_transfer(map_vm, red_vm, bytes, [latch] { latch->arrive(); });
  }
}

void SimulatedJobRunner::maybe_merge(ActiveJob& job, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  if (!rs.ready || rs.fetch_count < job.maps.size()) return;
  const auto id = job.id;
  const int attempt = rs.attempt;
  const virt::VmId vm = job.timeline.reduces[r].vm;
  const int pid = static_cast<int>(vm);
  const int tid = rs.tid;
  const double fetched = rs.fetched_bytes;
  const obs::SpanId shuffle_span = rs.shuffle_span;
  tracer().end(pid, tid);  // shuffle

  auto compute = reduce_guard(id, r, attempt, [this, r, vm, pid, tid, id, attempt,
                                               shuffle_span](ActiveJob& job2) {
    const obs::SpanId compute_span = tracer().begin(pid, tid, "compute", "reduce");
    // The completed shuffle made the reduce runnable.
    tracer().cause(shuffle_span, compute_span, "reduce-start");
    cloud_.run_compute(
        vm, job2.spec.reduces[r].cpu_seconds,
        reduce_guard(id, r, attempt, [this, r, vm, pid, tid, id, attempt](ActiveJob& job3) {
          tracer().end(pid, tid);  // compute
          const double out = job3.spec.reduces[r].output_bytes;
          auto done = reduce_guard(id, r, attempt,
                                   [this, r](ActiveJob& job4) { finish_reduce(job4, r); });
          if (out <= 0.0) {
            done();
          } else {
            // The commit span (and the enclosing reduce span) are closed by
            // the slot release in finish_reduce via end_all.
            const obs::SpanId commit_span = tracer().begin(pid, tid, "commit", "reduce");
            const std::string path =
                job3.spec.output_path + "/part-" + std::to_string(r) +
                (attempt > 0 ? "-a" + std::to_string(attempt) : "");
            // The HDFS write pipeline cause-links its root span to us.
            obs::AmbientCause amb(tracer(), commit_span);
            hdfs_.write_file(path, out, vm, std::move(done), config_.output_replication);
          }
        }));
  });
  if (fetched > config_.io_sort_bytes) {
    // On-disk merge pass before the reduce can run. The merge file is a
    // short-lived temp: it stays in the guest page cache while it fits and
    // spills to the NFS-backed disk beyond that — the superlinear knee the
    // paper's TeraSort curve shows past ~400 MB.
    tracer().begin(pid, tid, "merge", "reduce");
    auto compute_after_merge =
        reduce_guard(id, r, attempt, [this, pid, tid, compute](ActiveJob&) {
          tracer().end(pid, tid);  // merge
          compute();
        });
    const std::string key = "job" + std::to_string(id) + "/merge-r" + std::to_string(r);
    cloud_.scratch_write(vm, fetched,
                         reduce_guard(id, r, attempt,
                                      [this, vm, fetched, key, compute_after_merge](ActiveJob&) {
                                        cloud_.disk_read(vm, fetched, compute_after_merge,
                                                         1.0, key);
                                      }),
                         key);
  } else {
    compute();
  }
}

void SimulatedJobRunner::finish_reduce(ActiveJob& job, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  if (rs.done) return;
  rs.done = true;
  cloud_.engine().cancel(std::exchange(rs.watchdog, {}));
  give_slot(job, SlotKind::Reduce, rs.tracker, rs.tid);
  out_of_band_heartbeat(rs.tracker);
  job.timeline.reduces[r].finished = cloud_.engine().now();
  h_reduce_seconds_->observe(job.timeline.reduces[r].finished -
                             job.timeline.reduces[r].assigned);
  ++job.reduces_done;
  maybe_finish_job(job);
}

void SimulatedJobRunner::maybe_finish_job(ActiveJob& job) {
  if (job.maps_done < job.spec.maps.size()) return;
  if (job.reduces_done < job.spec.reduces.size()) return;
  m_jobs_completed_->inc();
  queue_counter(job, "jobs_completed")->inc();
  job.timeline.finished = cloud_.engine().now();
  const double elapsed = job.timeline.elapsed();
  h_job_seconds_->observe(elapsed);
  // Per-tenant SLO accounting: the queue is the tenant. The counter is
  // created even when nothing missed, so reports and bench gates can rely
  // on the row existing.
  queue_histogram(job, "job_seconds")->observe(elapsed);
  obs::Counter* slo_missed = queue_counter(job, "slo_missed");
  if (job.spec.deadline_seconds > 0.0 && elapsed > job.spec.deadline_seconds) {
    slo_missed->inc();
  }
  if (tracer().enabled()) {
    tracer().instant(kJobTrackerPid, 0, "finish:" + job.spec.name, "job");
    tracer().end(kJobTrackerPid, static_cast<int>(job.id));  // job root span
  }
  const auto id = job.id;
  auto timeline = std::move(job.timeline);
  auto on_done = std::move(job.on_done);
  erase_job(id);  // `job` is dangling from here on
  if (on_done) on_done(timeline);
}

void SimulatedJobRunner::arm_reduce_watchdog(ActiveJob& job, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  // The deadline is absolute, and the expiry test below compares against
  // the same sum: a watchdog that fires at its deadline with no progress
  // since expires, instead of re-arming a rounding error ahead.
  rs.watchdog = cloud_.engine().schedule_at(
      rs.last_progress + config_.task_timeout_seconds,
      reduce_guard(job.id, r, rs.attempt, [this, r](ActiveJob& job2) {
        ReduceState& rs2 = job2.reduces[r];
        rs2.watchdog = {};  // fired
        if (cloud_.engine().now() < rs2.last_progress + config_.task_timeout_seconds) {
          arm_reduce_watchdog(job2, r);  // shuffle arrivals moved the deadline
        } else {
          restart_reduce(job2, r);  // wedged
        }
      }));
}

void SimulatedJobRunner::restart_reduce(ActiveJob& job, std::size_t r) {
  ReduceState& rs = job.reduces[r];
  cloud_.engine().cancel(rs.watchdog);
  give_slot(job, SlotKind::Reduce, rs.tracker, rs.tid);
  // A fresh state under the next attempt number: continuations and copier
  // completions of the old attempt never fire, so nothing of it (fetched
  // partitions, copier window, trace spans) may carry over.
  rs = ReduceState{.attempt = rs.attempt + 1,
                   .fetched = std::vector<bool>(job.maps.size(), false)};
  job.retry_reduces.push_back(r);
}

void SimulatedJobRunner::fail_all_jobs() {
  // Hadoop reports every job as failed once the last TaskTracker is lost.
  // Callbacks run after their job is removed; one that resubmits puts the
  // new job back into jobs_, where this loop fails it too.
  while (!jobs_.empty()) {
    ActiveJob& job = *jobs_.front();
    m_jobs_failed_->inc();
    queue_counter(job, "jobs_failed")->inc();
    job.timeline.finished = cloud_.engine().now();
    job.timeline.failed = true;
    if (tracer().enabled()) {
      tracer().end_all(kJobTrackerPid, static_cast<int>(job.id));  // job root span
    }
    const auto id = job.id;
    auto timeline = std::move(job.timeline);
    auto on_done = std::move(job.on_done);
    erase_job(id);
    if (on_done) on_done(timeline);
  }
}

void SimulatedJobRunner::crash_job(ActiveJob& job, std::size_t dead, virt::VmId vm) {
  for (std::size_t m = 0; m < job.maps.size(); ++m) {
    MapState& ms = job.maps[m];
    if (ms.done) {
      // Output lost? Completed maps must re-run unless every reducer has
      // already fetched them (or the output was committed to HDFS).
      const bool output_safe =
          job.spec.map_output_to_hdfs || job.spec.reduces.empty() ||
          std::all_of(job.reduces.begin(), job.reduces.end(),
                      [m](const ReduceState& rs) { return rs.fetched[m]; });
      if (ms.output_vm == vm && !output_safe) requeue_map(job, m);
      continue;
    }
    // A racing attempt on a live tracker may still win; only requeue when
    // no live attempt remains. (A speculative attempt never shares its
    // primary's tracker.)
    const int slot = ms.tracker[0] == dead ? 0 : 1;
    if (ms.tracker[slot] == dead && !drop_map_attempt(job, m, slot)) requeue_map(job, m);
  }
  // Reduces running on the dead tracker start over elsewhere. Maps go
  // first, so output_safe above still counts what such a reducer fetched;
  // when its retry finds a map's output gone, the fetch failure requeues
  // that map.
  for (std::size_t r = 0; r < job.reduces.size(); ++r) {
    const ReduceState& rs = job.reduces[r];
    if (rs.assigned && !rs.done && rs.tracker == dead) restart_reduce(job, r);
  }
}

void SimulatedJobRunner::on_vm_crash(virt::VmId vm) {
  std::size_t dead = kNone;
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    if (trackers_[i].vm == vm) {
      dead = i;
      break;
    }
  }
  if (dead == kNone) return;
  Tracker& tr = trackers_[dead];
  tr.alive = false;
  tr.free_map_slots = 0;
  tr.free_reduce_slots = 0;
  tr.running = 0;
  // Close every span still open on the dead VM's task lanes.
  for (std::size_t k = 0; k < tr.map_slot_busy.size(); ++k) {
    if (tr.map_slot_busy[k]) tracer().end_all(static_cast<int>(vm), static_cast<int>(k));
    tr.map_slot_busy[k] = false;
  }
  for (std::size_t k = 0; k < tr.reduce_slot_busy.size(); ++k) {
    if (tr.reduce_slot_busy[k]) {
      tracer().end_all(static_cast<int>(vm),
                       config_.map_slots_per_worker + static_cast<int>(k));
    }
    tr.reduce_slot_busy[k] = false;
  }
  cloud_.engine().cancel(std::exchange(heartbeat_events_[dead], {}));
  for (auto& jp : jobs_) crash_job(*jp, dead, vm);
  // With no live tracker left, every job (active and queued) fails.
  if (std::none_of(trackers_.begin(), trackers_.end(), [](const Tracker& t) { return t.alive; })) {
    fail_all_jobs();
  }
}

}  // namespace vhadoop::mapreduce
