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
  queue_.push(QueueEntry{t, seq});
  callbacks_.emplace(seq, Pending{std::move(cb), daemon, t});
  if (!daemon) ++regular_pending_;
  events_scheduled_->inc();
  if (static_cast<double>(callbacks_.size()) > queue_depth_->max()) {
    queue_depth_->set(static_cast<double>(callbacks_.size()));
  }
  return EventId{seq};
}

bool Engine::cancel(EventId id) {
  // The heap entry becomes a tombstone; it is skipped on pop.
  auto it = callbacks_.find(id.seq);
  if (it == callbacks_.end()) return false;
  if (!it->second.daemon) --regular_pending_;
  callbacks_.erase(it);
  events_cancelled_->inc();
  ++tombstones_;
  if (tombstones_ > 64 && tombstones_ > callbacks_.size()) compact_queue();
  return true;
}

void Engine::compact_queue() {
  std::vector<QueueEntry> live;
  live.reserve(callbacks_.size());
  // vlint: allow(no-unordered-iteration) audited PR 8: collects entries, sorted before the heap is rebuilt
  for (const auto& [seq, pending] : callbacks_) live.push_back(QueueEntry{pending.time, seq});
  // Sorted input gives one canonical heap layout; pop order is total
  // ((time, seq) is a strict order) either way.
  std::sort(live.begin(), live.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return b > a; });
  queue_ = decltype(queue_)(std::greater<>(), std::move(live));
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
    if (callbacks_.empty()) return false;
    const QueueEntry top = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(top.seq);
    if (it == callbacks_.end()) {  // cancelled
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    Callback cb = std::move(it->second.cb);
    if (!it->second.daemon) --regular_pending_;
    callbacks_.erase(it);
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
  timeseries_period_ = period;
  if (period <= 0.0 || timeseries_armed_) return;
  timeseries_armed_ = true;
  schedule_in(timeseries_period_, [this] { sample_timeseries_tick(); }, /*daemon=*/true);
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
  for (;;) {
    if (instant_over()) {
      end_instant();
      continue;
    }
    if (queue_.empty()) break;
    // Skip tombstones without advancing time.
    if (!callbacks_.contains(queue_.top().seq)) {
      queue_.pop();
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    if (queue_.top().time > t) {
      now_ = t;
      return true;
    }
    step();
  }
  now_ = std::max(now_, t);
  return false;
}

}  // namespace vhadoop::sim
