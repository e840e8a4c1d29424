#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vhadoop::sim {

/// Deterministic discrete-event engine.
///
/// Events fire in (time, sequence number) order, so events scheduled at the
/// same instant fire in scheduling order, which makes every simulation run
/// reproducible. The engine is single-threaded by design: all parallelism
/// in vHadoop is *modeled* through the fluid resource model, while real
/// computation (the logical MapReduce executor) happens outside the engine.
///
/// Pending events live in a slot array recycled through a free list, and
/// the binary heap orders (time, seq, slot) entries; an event's handle
/// carries its slot, so scheduling, cancelling and firing make no hash
/// lookup, and a steady schedule/fire cycle allocates nothing (DESIGN.md
/// §10, "Storage").
class Engine {
 public:
  using Callback = std::function<void()>;

  /// Opaque handle for cancellation. Default-constructed ids are invalid.
  /// A handle names its event by sequence number; the slot it also carries
  /// may since hold a later event, which the sequence number tells apart.
  struct EventId {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool valid() const { return seq != 0; }
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedule `cb` at absolute time `t` (finite and >= now(); anything
  /// else throws std::invalid_argument). Daemon events
  /// (periodic samplers, watchdogs) fire normally while the simulation is
  /// driven by regular events, but never keep `run()` alive on their own —
  /// like daemon threads.
  EventId schedule_at(SimTime t, Callback cb, bool daemon = false);

  /// Schedule `cb` after `dt` seconds of simulated time.
  EventId schedule_in(SimTime dt, Callback cb, bool daemon = false) {
    return schedule_at(now_ + dt, std::move(cb), daemon);
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Run `cb` once the current instant is over: after every event due at
  /// now() has fired, before the clock advances or the queue drains. This
  /// lets a model batch all mutations of one instant into one update (the
  /// fluid model solves each touched component once per instant). Hooks
  /// run in registration order and may schedule events, including at
  /// now(), which then fire before the clock moves on. A registered hook
  /// counts as pending work: run() and step() end the instant before they
  /// stop.
  void at_instant_end(Callback cb);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Run until no regular (non-daemon) events remain.
  void run();

  /// Run until simulated time `t` (inclusive of events at exactly `t`), then
  /// set now() to `t`, whether events remain past it or the queue drained
  /// first. Returns true if pending events remain. `t` must be finite and
  /// not before now() (slop below kEps is absorbed); anything else throws
  /// std::invalid_argument and changes nothing, since the clock never runs
  /// backwards.
  bool run_until(SimTime t);

  /// Fire at most one event, ending the current instant first if the next
  /// event lies later (see at_instant_end). Returns false if no event was
  /// left to fire.
  bool step();

  /// Scheduled events plus registered end-of-instant hooks.
  std::size_t pending() const { return live_events() + instant_end_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Platform-wide observability, anchored here because every component
  /// already holds an Engine reference. Metrics are always live (untouched
  /// metrics cost nothing); the tracer records only once enabled and is
  /// pre-wired to this engine's simulated clock.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  obs::TimeSeries& timeseries() { return timeseries_; }
  const obs::TimeSeries& timeseries() const { return timeseries_; }

  /// Sample every registered time series each `period` simulated seconds,
  /// via a self-re-arming daemon event (so an armed sampler never keeps
  /// run() alive). Calling again adjusts the period; period <= 0 stops the
  /// chain at its next firing. A NaN or infinite period throws
  /// std::invalid_argument and changes nothing.
  void sample_timeseries_every(SimTime period);

 private:
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  /// One slot of the event array; `seq` is 0 while the slot is free.
  struct Pending {
    Callback cb;
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    bool daemon = false;
  };

  /// A heap entry whose slot no longer holds its event is a tombstone: the
  /// event fired or was cancelled, and the slot may hold a later one.
  bool live(const QueueEntry& e) const { return slots_[e.slot].seq == e.seq; }
  /// Scheduled events not yet fired or cancelled: the occupied slots.
  std::size_t live_events() const { return slots_.size() - free_slots_.size(); }
  /// Free a fired or cancelled event's slot for reuse.
  void release(std::uint32_t slot);
  /// Cancelled events leave tombstones in the heap; once they outnumber the
  /// live entries the heap is rebuilt from the slot array. Timer re-arming
  /// (the fluid model cancels and re-schedules completion events as rates
  /// change) would otherwise grow the heap without bound.
  void compact_queue();

  /// One link of the sampler chain armed by sample_timeseries_every.
  void sample_timeseries_tick();

  /// True when hooks wait and no live event is due at now(): the instant is
  /// over. (With a live event pending the heap top is a real lower bound.)
  bool instant_over() const {
    return !instant_end_.empty() && (live_events() == 0 || queue_.front().time > now_);
  }
  /// Run the hooks registered so far; hooks they register wait for the
  /// next round, after any events the first round scheduled at now().
  void end_instant();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t regular_pending_ = 0;
  std::size_t tombstones_ = 0;
  /// Min-heap on (time, seq) under std::greater, tombstones included.
  std::vector<QueueEntry> queue_;
  std::vector<Pending> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Callback> instant_end_;
  std::vector<Callback> instant_end_running_;  ///< reused batch buffer

  obs::Registry metrics_;
  obs::Tracer tracer_;
  obs::TimeSeries timeseries_;
  SimTime timeseries_period_ = 0.0;
  bool timeseries_armed_ = false;
  obs::Counter* events_scheduled_;
  obs::Counter* events_fired_;
  obs::Counter* events_cancelled_;
  obs::Counter* queue_compactions_;
  obs::Gauge* queue_depth_;
};

}  // namespace vhadoop::sim
