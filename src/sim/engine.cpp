#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vhadoop::sim {

Engine::Engine()
    : events_scheduled_(metrics_.counter("sim.events_scheduled")),
      events_fired_(metrics_.counter("sim.events_fired")),
      events_cancelled_(metrics_.counter("sim.events_cancelled")),
      queue_compactions_(metrics_.counter("sim.queue_compactions")),
      queue_depth_(metrics_.gauge("sim.queue_depth")) {
  tracer_.set_clock([this] { return now_; });
}

Engine::EventId Engine::schedule_at(SimTime t, Callback cb, bool daemon) {
  // A NaN key would break the heap's strict weak ordering; an infinite one
  // would never fire yet keep run() alive.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("Engine::schedule_at: time must be finite");
  }
  if (t < now_ - kEps) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  if (t < now_) t = now_;  // absorb fp slop
  const std::uint64_t seq = next_seq_++;
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  queue_.push_back(QueueEntry{t, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
  Pending& p = slots_[slot];
  p.cb = std::move(cb);
  p.time = t;
  p.seq = seq;
  p.daemon = daemon;
  if (!daemon) ++regular_pending_;
  events_scheduled_->inc();
  if (static_cast<double>(live_events()) > queue_depth_->max()) {
    queue_depth_->set(static_cast<double>(live_events()));
  }
  return EventId{seq, slot};
}

void Engine::release(std::uint32_t slot) {
  Pending& p = slots_[slot];
  if (!p.daemon) --regular_pending_;
  p.cb = nullptr;  // a cancelled closure's captures die now, not on reuse
  p.seq = 0;
  free_slots_.push_back(slot);
}

bool Engine::cancel(EventId id) {
  // The heap entry becomes a tombstone; it is skipped on pop.
  if (!id.valid() || id.slot >= slots_.size() || slots_[id.slot].seq != id.seq) return false;
  release(id.slot);
  events_cancelled_->inc();
  ++tombstones_;
  if (tombstones_ > 64 && tombstones_ > live_events()) compact_queue();
  return true;
}

void Engine::compact_queue() {
  // Rebuilt in place, so the heap keeps its capacity. Pop order is total
  // ((time, seq) is a strict order) whatever the heap's layout.
  queue_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Pending& p = slots_[slot];
    if (p.seq != 0) queue_.push_back(QueueEntry{p.time, p.seq, slot});
  }
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>());
  tombstones_ = 0;
  queue_compactions_->inc();
}

void Engine::at_instant_end(Callback cb) { instant_end_.push_back(std::move(cb)); }

void Engine::end_instant() {
  instant_end_running_.swap(instant_end_);
  for (Callback& cb : instant_end_running_) cb();
  instant_end_running_.clear();
}

bool Engine::step() {
  for (;;) {
    if (instant_over()) {
      end_instant();
      continue;
    }
    // Only tombstones left: nothing to fire, and they are left for the
    // next pop or compaction, as run() leaves them.
    if (live_events() == 0) return false;
    const QueueEntry top = queue_.front();
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
    queue_.pop_back();
    if (!live(top)) {  // cancelled
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    Callback cb = std::move(slots_[top.slot].cb);
    release(top.slot);
    assert(top.time >= now_ - kEps);
    now_ = std::max(now_, top.time);
    ++processed_;
    events_fired_->inc();
    cb();
    return true;
  }
}

void Engine::run() {
  for (;;) {
    // Deferred end-of-instant work may arm regular events, so it must run
    // before "nothing regular left" can end the run.
    if (regular_pending_ == 0 && !instant_end_.empty()) end_instant();
    if (regular_pending_ == 0 || !step()) return;
  }
}

void Engine::sample_timeseries_every(SimTime period) {
  // Checked before any state changes: an accepted +inf period would throw
  // out of run() at the next tick, and a rejected first call must leave
  // the sampler unarmed.
  if (!std::isfinite(period)) {
    throw std::invalid_argument("Engine::sample_timeseries_every: period must be finite");
  }
  timeseries_period_ = period;
  if (period <= 0.0 || timeseries_armed_) return;
  schedule_in(timeseries_period_, [this] { sample_timeseries_tick(); }, /*daemon=*/true);
  timeseries_armed_ = true;
}

void Engine::sample_timeseries_tick() {
  if (timeseries_period_ <= 0.0) {
    timeseries_armed_ = false;
    return;
  }
  timeseries_.sample(now_);
  // Self-re-arming daemon chain.
  schedule_in(timeseries_period_, [this] { sample_timeseries_tick(); }, /*daemon=*/true);
}

bool Engine::run_until(SimTime t) {
  // Checked before any state changes: a NaN horizon compares false with
  // every event time and would fire them all, an infinite one would leave
  // now() at +inf, and a past one would move the clock backwards.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("Engine::run_until: horizon must be finite");
  }
  if (t < now_ - kEps) {
    throw std::invalid_argument("Engine::run_until: horizon in the past");
  }
  if (t < now_) t = now_;  // absorb fp slop
  for (;;) {
    if (instant_over()) {
      end_instant();
      continue;
    }
    if (queue_.empty()) break;
    // Skip tombstones without advancing time.
    if (!live(queue_.front())) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      queue_.pop_back();
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    if (queue_.front().time > t) {
      now_ = t;
      return true;
    }
    step();
  }
  now_ = t;
  return false;
}

}  // namespace vhadoop::sim
