#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace vhadoop::sim {

namespace {

// When a completion event fires slightly early by fp rounding, force the
// finish if it is within a microsecond of simulated time (far below
// anything the platform measures) — otherwise rescheduling could ping-pong
// at a frozen timestamp forever.
constexpr double kForcedFinishEta = 1e-6;

// Canonical order for component member lists (pointer values never decide
// anything — ids do, so the solve order is reproducible run to run).
constexpr auto by_id = [](const auto* a, const auto* b) { return a->id < b->id; };

bool reference_mode_from_env() {
  // vlint: allow(no-os-entropy) audited PR 8: opt-in oracle switch; both modes produce bit-identical simulations, verified by the churn suite
  const char* v = std::getenv("VHADOOP_FLUID_REFERENCE");
  return v != nullptr && *v != '\0' && *v != '0';
}

int verify_every_from_env() {
  // vlint: allow(no-os-entropy) audited PR 9: oracle sampling period only; never read outside reference mode, never alters the simulation itself
  const char* v = std::getenv("VHADOOP_FLUID_VERIFY_EVERY");
  if (v == nullptr || *v == '\0') return 1;
  const int every = std::atoi(v);
  return every > 1 ? every : 1;
}

}  // namespace

FluidModel::FluidModel(Engine& engine) : FluidModel(engine, reference_mode_from_env()) {}

FluidModel::FluidModel(Engine& engine, bool reference)
    : engine_(engine),
      reference_(reference),
      verify_every_(reference ? verify_every_from_env() : 1),
      activities_started_(engine.metrics().counter("sim.fluid.activities_started")),
      rate_recomputes_(engine.metrics().counter("sim.fluid.rate_recomputes")),
      recomputes_(engine.metrics().counter("sim.fluid.recomputes")),
      component_size_(engine.metrics().histogram(
          "sim.fluid.component_size", obs::Histogram::exponential_buckets(1.0, 2.0, 16))) {}

FluidModel::ResourceId FluidModel::add_resource(std::string name, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("resource capacity < 0");
  const std::uint64_t id = next_id_++;
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  r.last_update = engine_.now();
  r.id = id;
  resources_.emplace(id, std::move(r));
  return ResourceId{id};
}

void FluidModel::set_capacity(ResourceId id, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("resource capacity < 0");
  Resource& res = resources_.at(id.v);
  // The busy integral settles at the solve, against the allocation that
  // held until now; the new capacity only matters to that solve.
  res.capacity = capacity;
  rate_recomputes_->inc();
  mark_dirty(res);
}

double FluidModel::capacity(ResourceId id) const { return resources_.at(id.v).capacity; }

double FluidModel::allocated(ResourceId id) {
  // The maintained sum equals a fresh summation over users: apply_rates
  // recomputes it from scratch (same order) whenever any user's rate moves.
  solve_dirty();
  return resources_.at(id.v).allocated;
}

double FluidModel::utilization(ResourceId id) {
  solve_dirty();
  const Resource& r = resources_.at(id.v);
  if (r.capacity <= 0.0) return 0.0;
  return std::min(1.0, r.allocated / r.capacity);
}

double FluidModel::busy_integral(ResourceId id) const {
  const Resource& r = resources_.at(id.v);
  // Include the lazily unsettled interval since the resource's last touch.
  // A pending solve changes nothing here: the stored allocation is the one
  // that held over that whole interval.
  return r.busy_integral + r.allocated * (engine_.now() - r.last_update);
}

const std::string& FluidModel::name(ResourceId id) const { return resources_.at(id.v).name; }

FluidModel::ActivityId FluidModel::start(ActivitySpec spec) {
  if (spec.work < 0.0) throw std::invalid_argument("activity work < 0");
  if (spec.weight <= 0.0) throw std::invalid_argument("activity weight <= 0");
  if (spec.resources.empty() && !std::isfinite(spec.cap)) {
    throw std::invalid_argument("activity with no resource must have a finite cap");
  }
  const std::uint64_t id = next_id_++;
  Activity act;
  act.remaining = spec.work;
  act.total = spec.work;
  act.weight = spec.weight;
  act.cap = spec.cap;
  act.last_update = engine_.now();
  act.id = id;
  act.on_complete = std::move(spec.on_complete);
  // Wire adjacency only once the node lives in the map: its address is
  // stable from then on (unordered_map never moves nodes on rehash).
  Activity& node = activities_.emplace(id, std::move(act)).first->second;
  node.resources.reserve(spec.resources.size());
  for (ResourceId r : spec.resources) {
    Resource& res = resources_.at(r.v);
    // Ids are handed out monotonically, so push_back keeps `users` sorted.
    res.users.push_back(&node);
    node.resources.push_back(&res);
  }
  activities_started_->inc();
  rate_recomputes_->inc();
  // The new activity may bridge previously separate components; the solve
  // at the end of the instant collects the merged (true) component.
  touch(node);
  return ActivityId{id};
}

void FluidModel::detach(Activity& act) {
  for (Resource* res : act.resources) {
    auto& users = res->users;
    // `users` is sorted ascending by id; duplicates (an activity listed
    // twice on one resource) are erased one per detach pass, matching attach.
    auto it = std::lower_bound(users.begin(), users.end(), &act, by_id);
    if (it != users.end() && (*it)->id == act.id) users.erase(it);
  }
}

bool FluidModel::cancel(ActivityId id) {
  auto it = activities_.find(id.v);
  if (it == activities_.end()) return false;
  Activity& act = it->second;
  if (act.finish_event.valid()) engine_.cancel(act.finish_event);
  comp_cache_.erase(id.v);
  // Every piece the survivors may split into keeps one of these resources,
  // so seeding the solve with them reaches all of it.
  for (Resource* r : act.resources) mark_dirty(*r);
  detach(act);
  activities_.erase(it);
  rate_recomputes_->inc();
  return true;
}

void FluidModel::add_work(ActivityId id, double extra) {
  if (extra < 0.0) throw std::invalid_argument("add_work: extra < 0");
  Activity& act = activities_.at(id.v);
  settle(act);
  act.remaining += extra;
  act.total += extra;
  // The rate is typically unchanged (same sharing problem), but the ETA
  // moved with the extra work: the solve must re-project it regardless.
  act.reproject = true;
  rate_recomputes_->inc();
  touch(act);
}

void FluidModel::set_cap(ActivityId id, double cap) {
  if (cap < 0.0) throw std::invalid_argument("set_cap: cap < 0");
  Activity& act = activities_.at(id.v);
  act.cap = cap;
  rate_recomputes_->inc();
  touch(act);
}

double FluidModel::rate(ActivityId id) {
  solve_dirty();
  return activities_.at(id.v).rate;
}

double FluidModel::remaining(ActivityId id) const {
  // Like busy_integral(), exact with a solve pending: the stored rate is the
  // one that held since the activity's last settle.
  const Activity& act = activities_.at(id.v);
  return std::max(0.0, act.remaining - act.rate * (engine_.now() - act.last_update));
}

void FluidModel::touch(Activity& act) {
  if (!act.resources.empty()) {
    for (Resource* r : act.resources) mark_dirty(*r);
    return;
  }
  // A resource-less activity is a component of its own.
  if (act.dirty) return;
  act.dirty = true;
  dirty_solo_.push_back(act.id);
  schedule_solve();
}

void FluidModel::mark_dirty(Resource& res) {
  if (res.dirty) return;
  res.dirty = true;
  dirty_res_.push_back(&res);
  schedule_solve();
}

void FluidModel::schedule_solve() {
  if (solve_scheduled_) return;
  solve_scheduled_ = true;
  engine_.at_instant_end([this] {
    solve_scheduled_ = false;
    solve_dirty();
  });
}

bool FluidModel::touched(const Component& comp) {
  // Components with resources are reached through them; only a
  // resource-less activity carries a mark of its own.
  if (comp.res.empty()) {
    return std::any_of(comp.acts.begin(), comp.acts.end(),
                       [](const Activity* a) { return a->dirty; });
  }
  return std::any_of(comp.res.begin(), comp.res.end(),
                     [](const Resource* r) { return r->dirty; });
}

void FluidModel::solve_dirty() {
  if (dirty_res_.empty() && dirty_solo_.empty()) return;
  solve_seeds_.swap(dirty_res_);
  for (Resource* seed : solve_seeds_) {
    if (!seed->dirty) continue;  // solved with an earlier seed's component
    Component comp = collect_component(nullptr, seed);
    for (Resource* r : comp.res) r->dirty = false;
    settle_component(comp);
    if (comp.acts.empty()) {
      seed->allocated = 0.0;  // lost its last user
      continue;
    }
    update_component(std::move(comp));
  }
  solve_seeds_.clear();
  for (std::uint64_t id : dirty_solo_) {
    auto it = activities_.find(id);
    if (it == activities_.end()) continue;  // finished or cancelled meanwhile
    Activity& act = it->second;
    act.dirty = false;
    Component comp;
    comp.acts.push_back(&act);
    settle_component(comp);
    update_component(std::move(comp));
  }
  dirty_solo_.clear();
  maybe_verify();
}

FluidModel::Component FluidModel::collect_component(Activity* seed_act, Resource* seed_res) {
  // Epoch-stamped visit marks instead of hash sets: one counter bump makes
  // every stale stamp invalid, so the BFS allocates nothing in steady state.
  const std::uint64_t epoch = ++visit_epoch_;
  bfs_act_stack_.clear();
  bfs_res_stack_.clear();
  s_act_keys_.clear();
  Component comp;
  if (seed_act != nullptr) {
    seed_act->seen = epoch;
    bfs_act_stack_.push_back(seed_act);
  }
  if (seed_res != nullptr) {
    seed_res->seen = epoch;
    bfs_res_stack_.push_back(seed_res);
  }
  while (!bfs_act_stack_.empty() || !bfs_res_stack_.empty()) {
    if (!bfs_act_stack_.empty()) {
      Activity* act = bfs_act_stack_.back();
      bfs_act_stack_.pop_back();
      s_act_keys_.emplace_back(act->id, act);
      for (Resource* r : act->resources) {
        if (r->seen != epoch) {
          r->seen = epoch;
          bfs_res_stack_.push_back(r);
        }
      }
    } else {
      Resource* res = bfs_res_stack_.back();
      bfs_res_stack_.pop_back();
      comp.res.push_back(res);
      for (Activity* a : res->users) {
        if (a->seen != epoch) {
          a->seen = epoch;
          bfs_act_stack_.push_back(a);
        }
      }
    }
  }
  // Canonical order: the solver runs over activities ascending by id,
  // independent of traversal order. The sort runs over (id, activity)
  // pairs, so comparisons read one contiguous array instead of chasing
  // pointers into scattered map nodes. Resources stay in discovery order:
  // no result depends on it (every per-resource sum runs in activity
  // order, and the water level is an exact minimum).
  std::sort(s_act_keys_.begin(), s_act_keys_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  comp.acts.reserve(s_act_keys_.size());
  for (const auto& key : s_act_keys_) comp.acts.push_back(key.second);
  return comp;
}

void FluidModel::settle(Activity& act) const {
  const SimTime now = engine_.now();
  const double elapsed = now - act.last_update;
  if (elapsed > 0.0) act.remaining = std::max(0.0, act.remaining - act.rate * elapsed);
  act.last_update = now;
}

void FluidModel::settle_component(const Component& comp) {
  const SimTime now = engine_.now();
  for (Activity* act : comp.acts) settle(*act);
  for (Resource* r : comp.res) {
    const double elapsed = now - r->last_update;
    if (elapsed > 0.0) r->busy_integral += r->allocated * elapsed;
    r->last_update = now;
  }
}

void FluidModel::solve_component(const Component& comp, std::vector<double>& rates) {
  // Progressive filling: raise a common water level theta; each unfrozen
  // activity's rate grows as weight*theta until either one of its resources
  // saturates (freezing every unfrozen user of that resource) or its own
  // cap is reached. Scoped to one component — by definition no activity
  // outside it shares any of its resources, so the component solution *is*
  // the global max-min solution restricted to these activities.
  const std::size_t na = comp.acts.size();
  const std::size_t nr = comp.res.size();
  rates.assign(na, 0.0);

  s_slack_.resize(nr);
  s_rescap_.resize(nr);
  for (std::size_t j = 0; j < nr; ++j) {
    Resource* r = comp.res[j];
    r->local_idx = j;  // lets each edge resolve its slot in O(1) below
    s_rescap_[j] = r->capacity;
    s_slack_[j] = s_rescap_[j];
  }

  // Cache each activity's parameters and local resource indices once
  // (flat index array + offsets; all scratch, reused across solves).
  s_weight_.resize(na);
  s_cap_.resize(na);
  s_roff_.resize(na + 1);
  s_ridx_.clear();
  s_unfrozen_.clear();
  for (std::size_t i = 0; i < na; ++i) {
    const Activity* act = comp.acts[i];
    s_weight_[i] = act->weight;
    s_cap_[i] = act->cap;
    s_roff_[i] = s_ridx_.size();
    for (const Resource* r : act->resources) s_ridx_.push_back(r->local_idx);
    if (act->cap > 0.0) s_unfrozen_.push_back(i);  // cap <= 0 is paused
  }
  s_roff_[na] = s_ridx_.size();

  // Weight sum (and count) of unfrozen users per resource, maintained
  // incrementally: built once, then each freeze subtracts the frozen
  // activity's weight. The count snaps a sum exactly to zero when the last
  // user freezes, so subtraction residue can never keep a userless
  // resource in the theta minimization.
  s_sumw_.assign(nr, 0.0);
  s_cnt_.assign(nr, 0);
  for (std::size_t i : s_unfrozen_) {
    for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) {
      s_sumw_[s_ridx_[k]] += s_weight_[i];
      ++s_cnt_[s_ridx_[k]];
    }
  }
  // Resources that still bound some unfrozen user. A weight sum only ever
  // falls, so a resource whose sum is spent never re-enters the minimum and
  // later rounds skip it (most drop out after the first round). Their order
  // is irrelevant: the minimum is exact and each slack update is local.
  s_live_res_.clear();
  for (std::size_t j = 0; j < nr; ++j) {
    if (s_sumw_[j] > 0.0) s_live_res_.push_back(j);
  }
  while (!s_unfrozen_.empty()) {
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t j : s_live_res_) {
      theta = std::min(theta, std::max(0.0, s_slack_[j]) / s_sumw_[j]);
    }
    for (std::size_t i : s_unfrozen_) {
      theta = std::min(theta, (s_cap_[i] - rates[i]) / s_weight_[i]);
    }
    assert(std::isfinite(theta));
    theta = std::max(theta, 0.0);

    for (std::size_t i : s_unfrozen_) rates[i] += s_weight_[i] * theta;
    for (std::size_t j : s_live_res_) s_slack_[j] -= theta * s_sumw_[j];

    // Freeze activities at saturated resources or at their cap.
    s_next_.clear();
    bool froze_any = false;
    for (std::size_t i : s_unfrozen_) {
      bool frozen = rates[i] >= s_cap_[i] * (1.0 - 1e-12) - kEps;
      if (!frozen) {
        for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) {
          const std::size_t j = s_ridx_[k];
          if (s_slack_[j] <= kEps * std::max(1.0, s_rescap_[j])) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        froze_any = true;
        for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) {
          const std::size_t j = s_ridx_[k];
          s_sumw_[j] -= s_weight_[i];
          if (--s_cnt_[j] == 0) s_sumw_[j] = 0.0;
        }
      } else {
        s_next_.push_back(i);
      }
    }
    if (!froze_any) {
      // Numerical guard: theta was the exact minimum, so something must
      // freeze; if rounding prevented it, freeze everything to terminate.
      break;
    }
    s_unfrozen_.swap(s_next_);
    std::erase_if(s_live_res_, [this](std::size_t j) { return !(s_sumw_[j] > 0.0); });
  }
}

void FluidModel::project_finish(Activity& act) const {
  const SimTime now = engine_.now();
  if (finished(act)) {
    act.finish_at = now;
  } else if (act.rate > 0.0) {
    act.finish_at = now + act.remaining / act.rate;
  } else {
    act.finish_at = kNever;
  }
}

FluidModel::Activity* FluidModel::arm_component_timer(const Component& comp) {
  // Earliest projected finisher, smallest id on ties (ascending scan).
  Activity* best = nullptr;
  SimTime best_t = kNever;
  for (Activity* act : comp.acts) {
    if (act->finish_at < best_t) {
      best_t = act->finish_at;
      best = act;
    }
  }
  for (Activity* act : comp.acts) {
    if (act == best) {
      if (act->finish_event.valid() && act->armed_at == act->finish_at) continue;
      if (act->finish_event.valid()) engine_.cancel(act->finish_event);
      act->armed_at = act->finish_at;
      const std::uint64_t aid = act->id;
      act->finish_event =
          engine_.schedule_at(act->finish_at, [this, aid] { on_finish_event(aid); });
    } else if (act->finish_event.valid()) {
      // This member held the timer under an older partition of the graph;
      // its cached component (if any) is superseded by the caller's.
      engine_.cancel(act->finish_event);
      act->finish_event = {};
      act->armed_at = kNever;
      comp_cache_.erase(act->id);
    }
  }
  return best;
}

FluidModel::Activity* FluidModel::apply_rates(const Component& comp,
                                              const std::vector<double>& rates) {
  // Reuses the flat edge index solve_component just built for this very
  // component (s_roff_/s_ridx_ are untouched between solve and apply).
  std::fill(s_sumw_.begin(), s_sumw_.end(), 0.0);
  for (std::size_t i = 0; i < comp.acts.size(); ++i) {
    Activity* act = comp.acts[i];
    // vlint: allow(no-exact-float-compare) audited PR 8: change detection on deterministically recomputed rates; exact compare only skips a redundant re-projection
    if (rates[i] != act->rate || act->reproject) {
      act->rate = rates[i];
      act->reproject = false;
      project_finish(*act);
    }
    // Ascending i == ascending activity id == the order a fresh summation
    // over Resource::users would use, so the sums are bit-identical to one.
    for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) s_sumw_[s_ridx_[k]] += rates[i];
  }
  for (std::size_t j = 0; j < comp.res.size(); ++j) {
    comp.res[j]->allocated = s_sumw_[j];
  }
  return arm_component_timer(comp);
}

void FluidModel::update_component(Component comp) {
  recomputes_->inc();
  component_size_->observe(static_cast<double>(comp.acts.size()));
  solve_component(comp, s_rates_);
  Activity* holder = apply_rates(comp, s_rates_);
  // Hand the sorted member lists to the timer holder: when its finish event
  // fires, on_finish_event reuses them instead of redoing the BFS and sort.
  if (holder != nullptr) comp_cache_[holder->id] = std::move(comp);
}

void FluidModel::on_finish_event(std::uint64_t activity_id) {
  auto it = activities_.find(activity_id);
  if (it == activities_.end()) {
    comp_cache_.erase(activity_id);
    return;  // completed in a batch meanwhile
  }
  Activity& self = it->second;
  self.finish_event = {};
  self.armed_at = kNever;

  // The cached membership is exact while the component is clean: any
  // mutation reaching it since arming would have marked it dirty.
  Component comp;
  if (auto cit = comp_cache_.find(activity_id); cit != comp_cache_.end()) {
    comp = std::move(cit->second);
    comp_cache_.erase(cit);
  } else {
    comp = collect_component(&self, nullptr);
  }
  if (touched(comp)) {
    // A mutation earlier in this instant reached the component after its
    // timer was armed, so membership and rates may be stale. Solve now: the
    // fresh solve re-arms the component's timer, at this very instant if
    // something is due, and that timer completes it.
    solve_dirty();
    return;
  }
  settle_component(comp);

  // Everything in the component that is done completes in one batch: the
  // co-finishers would fire at this same instant anyway, and batching
  // keeps callback order independent of timer arming order.
  std::vector<Activity*> done;
  for (Activity* act : comp.acts) {
    if (finished(*act)) done.push_back(act);
  }
  if (done.empty()) {
    // Scheduled slightly early by fp rounding; force the finish when it is
    // within kForcedFinishEta of simulated time, else re-arm.
    if (self.rate > 0.0 && self.remaining / self.rate < kForcedFinishEta) {
      done.push_back(&self);
    } else {
      // This activity held the component's timer; re-project its finish and
      // pick the component's earliest finisher afresh.
      project_finish(self);
      Activity* holder = arm_component_timer(comp);
      if (holder != nullptr) comp_cache_[holder->id] = std::move(comp);
      return;
    }
  }

  std::vector<Callback> callbacks;
  callbacks.reserve(done.size());
  for (Activity* act : done) {  // ascending id: deterministic callbacks
    if (act->finish_event.valid()) engine_.cancel(act->finish_event);
    comp_cache_.erase(act->id);
    // The survivors re-solve when the instant ends, together with whatever
    // the callbacks below start on the freed resources.
    for (Resource* r : act->resources) mark_dirty(*r);
    detach(*act);
    if (act->on_complete) callbacks.push_back(std::move(act->on_complete));
    activities_.erase(act->id);
  }
  rate_recomputes_->inc();

  // Callbacks run last: the model is consistent and reentrant calls
  // (start/cancel) only mark more of it dirty for the same solve.
  for (Callback& cb : callbacks) cb();
}

void FluidModel::maybe_verify() {
  if (!reference_) return;
  // Sampled oracle: a stale component stays stale until the next mutation
  // touches it, so checking every Nth round still observes the bad state
  // — just a few rounds later. N=1 (the default) checks every round.
  if (verify_every_ > 1 &&
      ++verify_tick_ % static_cast<std::uint64_t>(verify_every_) != 0) {
    return;
  }
  verify_all_components();
}

void FluidModel::verify_all_components() {
  // The reference is the pre-incremental algorithm verbatim: one global
  // progressive filling over every live activity at once. Components are
  // independent subproblems, so the joint water level reaches each
  // component's own bottlenecks and the result is mathematically identical
  // to the per-component solves — but the cost is the old cost, O(freeze
  // rounds × total activities) per round, which is exactly what
  // bench/scale_cluster measures the incremental solver against.
  Component all;
  all.acts.reserve(activities_.size());
  // vlint: allow(no-unordered-iteration) audited PR 8: collects pointers, sorted by id before use
  for (auto& [aid, act] : activities_) all.acts.push_back(&act);
  std::sort(all.acts.begin(), all.acts.end(), by_id);
  for (const Activity* act : all.acts) {
    for (Resource* r : act->resources) all.res.push_back(r);
  }
  std::sort(all.res.begin(), all.res.end(), by_id);
  all.res.erase(std::unique(all.res.begin(), all.res.end()), all.res.end());

  std::vector<double> rates;
  solve_component(all, rates);
  for (std::size_t i = 0; i < all.acts.size(); ++i) {
    const double stored = all.acts[i]->rate;
    // The joint solve reaches each bottleneck through more (smaller) water-
    // level increments, so accumulation differs in the last bits; compare
    // relative, not bitwise.
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(stored), std::abs(rates[i])));
    if (std::abs(stored - rates[i]) > tol) {
      std::fprintf(stderr,
                   "FluidModel reference oracle: activity %llu rate %.17g != reference "
                   "%.17g (stale component?)\n",
                   static_cast<unsigned long long>(all.acts[i]->id), stored, rates[i]);
      std::abort();
    }
  }
}

}  // namespace vhadoop::sim
