#include "sim/fluid.hpp"

#include <algorithm>
#include <bit>
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

constexpr double kUnlimited = std::numeric_limits<double>::infinity();

// Canonical order for resource lists (pointer values never decide
// anything — ids do, so the solve order is reproducible run to run).
constexpr auto by_id = [](const auto* a, const auto* b) { return a->id < b->id; };

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t v) { return std::bit_cast<double>(v); }

/// Strict (finish time, id) order: the earliest finisher, smallest id on
/// ties, without an exact float comparison.
bool earlier(SimTime a, std::uint64_t a_id, SimTime b, std::uint64_t b_id) {
  return a < b || (!(b < a) && a_id < b_id);
}

[[noreturn]] void oracle_abort(const char* what, std::uint64_t id) {
  std::fprintf(stderr, "FluidModel reference oracle: id %llu: %s\n",
               static_cast<unsigned long long>(id), what);
  std::abort();
}

void check_capacity(double capacity) {
  if (!std::isfinite(capacity)) throw std::invalid_argument("resource capacity not finite");
  if (capacity < 0.0) throw std::invalid_argument("resource capacity < 0");
}

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
          "sim.fluid.component_size", obs::Histogram::exponential_buckets(1.0, 2.0, 16))),
      component_classes_(engine.metrics().histogram(
          "sim.fluid.component_classes", obs::Histogram::exponential_buckets(1.0, 2.0, 16))) {}

FluidModel::ResourceId FluidModel::add_resource(std::string name, double capacity) {
  check_capacity(capacity);
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
  check_capacity(capacity);
  Resource& res = resources_.at(id.v);
  // The busy integral settles at the solve, against the allocation that
  // held until now; the new capacity only matters to that solve.
  res.capacity = capacity;
  // A private resource's capacity is part of its user's class key.
  if (res.users.size() == 1) rekey(*res.users.front().act);
  rate_recomputes_->inc();
  mark_dirty(res);
}

double FluidModel::capacity(ResourceId id) const { return resources_.at(id.v).capacity; }

double FluidModel::allocated(ResourceId id) {
  // The maintained sum equals a fresh summation over users: apply_rates
  // recomputes it from scratch (same order) whenever the component solves.
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
  // NaN slips through every ordered comparison, so finiteness is checked
  // first: a NaN-work or NaN-weight activity would never complete.
  if (!std::isfinite(spec.work)) throw std::invalid_argument("activity work not finite");
  if (spec.work < 0.0) throw std::invalid_argument("activity work < 0");
  if (!std::isfinite(spec.weight)) throw std::invalid_argument("activity weight not finite");
  if (spec.weight <= 0.0) throw std::invalid_argument("activity weight <= 0");
  if (std::isnan(spec.cap)) throw std::invalid_argument("activity cap is NaN");
  if (spec.resources.empty() && !std::isfinite(spec.cap)) {
    throw std::invalid_argument("activity with no resource must have a finite cap");
  }
  std::vector<Resource*> uses;
  uses.reserve(spec.resources.size());
  for (ResourceId r : spec.resources) uses.push_back(&resources_.at(r.v));

  const std::uint64_t id = next_id_++;
  Activity act;
  act.id = id;
  act.resources = std::move(uses);
  act.weight = spec.weight;
  act.cap = spec.cap;
  act.total = spec.work;
  act.on_complete = std::move(spec.on_complete);
  // Wire adjacency only once the node lives in the map: its address is
  // stable from then on (unordered_map never moves nodes on rehash).
  Activity& node = activities_.emplace(id, std::move(act)).first->second;
  // A resource that had exactly one user turns shared: that user's key
  // changes, so it is re-keyed once this activity is in place.
  std::vector<Activity*> lone;
  for (Resource* res : node.resources) {
    if (res->users.size() == 1 && res->users.front().act != &node) {
      lone.push_back(res->users.front().act);
    }
    // Ids are handed out monotonically, so push_back keeps `users` sorted.
    res->users.push_back(User{id, &node, nullptr});
  }
  Member m;
  m.id = id;
  m.act = &node;
  m.remaining = spec.work;
  m.last_update = engine_.now();
  key_of(node, s_key_);
  join(*class_for(s_key_), node, m);
  for (Activity* other : lone) rekey(*other);

  activities_started_->inc();
  rate_recomputes_->inc();
  // The new activity may bridge previously separate components; the solve
  // at the end of the instant collects the merged (true) component.
  touch(node);
  return ActivityId{id};
}

// --- class maintenance ---------------------------------------------------

std::size_t FluidModel::ClassKeyHash::operator()(const ClassKey& key) const {
  // FNV-1a over ids and bit patterns: cheap, and a pure function of the key.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (const Resource* r : key.shared) mix(r->id);
  mix(key.shared.size());
  for (std::uint64_t c : key.private_caps) mix(c);
  mix(key.weight);
  mix(key.cap);
  return static_cast<std::size_t>(h ^ (h >> 32));
}

void FluidModel::key_of(const Activity& act, ClassKey& key) const {
  key.shared.clear();
  key.private_caps.clear();
  key.weight = bits(act.weight);
  key.cap = bits(act.cap);
  for (Resource* r : act.resources) {
    if (r->shared()) {
      key.shared.push_back(r);
    } else {
      key.private_caps.push_back(bits(r->capacity));
    }
  }
  std::sort(key.shared.begin(), key.shared.end(), by_id);
  std::sort(key.private_caps.begin(), key.private_caps.end());
}

FluidModel::Class* FluidModel::class_for(const ClassKey& key) {
  const bool indexed = !key.shared.empty();
  const std::size_t hash = indexed ? ClassKeyHash{}(key) : 0;
  if (indexed) {
    for (auto [it, end] = class_index_.equal_range(hash); it != end; ++it) {
      if (it->second->key == key) return it->second;
    }
  }
  Class* cls = nullptr;
  if (free_classes_.empty()) {
    cls = &class_store_.emplace_back();
  } else {
    cls = free_classes_.back();
    free_classes_.pop_back();
  }
  cls->key = key;  // a recycled class reuses its key's buffers
  // Bounded so that no sum of member weights on a resource can outgrow the
  // 53-bit mantissa.
  const std::uint64_t weight_bits = cls->key.weight;
  const double weight = from_bits(weight_bits);
  const std::uint64_t whole_bits = bits(std::trunc(weight));
  cls->integral_weight = whole_bits == weight_bits && weight <= 0x1p32;
  if (indexed) {
    class_index_.emplace(hash, cls);
    const Resource* prev = nullptr;
    for (Resource* r : cls->key.shared) {  // sorted: duplicates are adjacent
      if (r != prev) r->classes.push_back(cls);
      prev = r;
    }
  }
  return cls;
}

void FluidModel::join(Class& cls, Activity& act, const Member& m) {
  if (cls.members.empty() || m.id < cls.min_id) cls.min_id = m.id;
  ++cls.version;
  act.cls = &cls;
  act.slot = cls.members.size();
  cls.members.push_back(m);
  for (Resource* r : act.resources) {
    if (!r->shared()) cls.priv.push_back(r);
    // Mirror the class into act's entries of the resource's user list.
    auto it = std::lower_bound(r->users.begin(), r->users.end(), act.id,
                               [](const User& u, std::uint64_t id) { return u.id < id; });
    for (; it != r->users.end() && it->act == &act; ++it) it->cls = &cls;
  }
}

FluidModel::Member FluidModel::leave(Activity& act) {
  Class& cls = *act.cls;
  const std::size_t np = cls.key.private_caps.size();
  const std::size_t slot = act.slot;
  const std::size_t last = cls.members.size() - 1;
  const Member m = cls.members[slot];
  if (slot != last) {
    cls.members[slot] = cls.members[last];
    cls.members[slot].act->slot = slot;
    std::copy_n(cls.priv.begin() + static_cast<std::ptrdiff_t>(last * np), np,
                cls.priv.begin() + static_cast<std::ptrdiff_t>(slot * np));
  }
  cls.members.pop_back();
  cls.priv.resize(last * np);
  ++cls.version;
  act.cls = nullptr;
  if (cls.members.empty()) {
    if (!cls.key.shared.empty()) {
      for (auto [it, end] = class_index_.equal_range(ClassKeyHash{}(cls.key)); it != end; ++it) {
        if (it->second == &cls) {
          class_index_.erase(it);
          break;
        }
      }
      const Resource* prev = nullptr;
      for (Resource* r : cls.key.shared) {
        if (r != prev) std::erase(r->classes, &cls);
        prev = r;
      }
    }
    free_classes_.push_back(&cls);
  } else if (m.id == cls.min_id) {
    cls.min_id = cls.members.front().id;
    for (const Member& other : cls.members) cls.min_id = std::min(cls.min_id, other.id);
  }
  return m;
}

void FluidModel::rekey(Activity& act) {
  key_of(act, s_key_);
  if (s_key_ == act.cls->key) return;
  // The member carries its own rate and settle time, so it can move
  // between classes mid-instant without settling.
  const Member m = leave(act);
  join(*class_for(s_key_), act, m);
}

FluidModel::Member& FluidModel::member(Activity& act) { return act.cls->members[act.slot]; }

const FluidModel::Member& FluidModel::member(const Activity& act) {
  return act.cls->members[act.slot];
}

void FluidModel::detach(Activity& act) {
  for (Resource* res : act.resources) {
    auto& users = res->users;
    // `users` is sorted ascending by id; duplicates (an activity listed
    // twice on one resource) are erased one per detach pass, matching attach.
    auto it = std::lower_bound(users.begin(), users.end(), act.id,
                               [](const User& u, std::uint64_t id) { return u.id < id; });
    if (it != users.end() && it->act == &act) users.erase(it);
  }
  leave(act);
  // A resource left with one user turns private to it.
  for (Resource* res : act.resources) {
    if (res->users.size() == 1) rekey(*res->users.front().act);
  }
}

bool FluidModel::cancel(ActivityId id) {
  auto it = activities_.find(id.v);
  if (it == activities_.end()) return false;
  Activity& act = it->second;
  if (Member& m = member(act); m.timer.valid()) engine_.cancel(m.timer);
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
  if (!std::isfinite(extra)) throw std::invalid_argument("add_work: extra not finite");
  if (extra < 0.0) throw std::invalid_argument("add_work: extra < 0");
  Activity& act = activities_.at(id.v);
  Member& m = member(act);
  settle(m);
  m.remaining += extra;
  act.total += extra;
  // The rate is typically unchanged (same sharing problem), but the ETA
  // moved with the extra work: the solve must re-project it regardless.
  m.reproject = true;
  rate_recomputes_->inc();
  touch(act);
}

void FluidModel::set_cap(ActivityId id, double cap) {
  if (std::isnan(cap)) throw std::invalid_argument("set_cap: cap is NaN");
  if (cap < 0.0) throw std::invalid_argument("set_cap: cap < 0");
  Activity& act = activities_.at(id.v);
  if (act.resources.empty() && !std::isfinite(cap)) {
    throw std::invalid_argument("set_cap: activity with no resource must keep a finite cap");
  }
  act.cap = cap;
  rekey(act);
  rate_recomputes_->inc();
  touch(act);
}

double FluidModel::rate(ActivityId id) {
  solve_dirty();
  return member(activities_.at(id.v)).rate;
}

double FluidModel::remaining(ActivityId id) const {
  // Like busy_integral(), exact with a solve pending: the stored rate is the
  // one that held since the member's last settle.
  const Member& m = member(activities_.at(id.v));
  return std::max(0.0, m.remaining - m.rate * (engine_.now() - m.last_update));
}

// --- dirty tracking ------------------------------------------------------

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

bool FluidModel::touched(const Component& comp, const Activity& holder) {
  // A member joined or left a class (every such change also dirties a
  // resource, but the private ones may have left the class with it).
  for (std::size_t i = 0; i < comp.classes.size(); ++i) {
    if (comp.classes[i]->version != comp.versions[i]) return true;
  }
  // Otherwise membership is as collected, and mutations are marked on the
  // resources; only a resource-less activity (alone in its component)
  // carries a mark of its own.
  const auto dirty = [](const Resource* r) { return r->dirty; };
  bool has_resources = !comp.shared.empty();
  if (std::any_of(comp.shared.begin(), comp.shared.end(), dirty)) return true;
  for (const Class* cls : comp.classes) {
    has_resources = has_resources || !cls->priv.empty();
    if (std::any_of(cls->priv.begin(), cls->priv.end(), dirty)) return true;
  }
  return !has_resources && holder.dirty;
}

void FluidModel::solve_dirty() {
  if (dirty_res_.empty() && dirty_solo_.empty()) return;
  solve_seeds_.swap(dirty_res_);
  for (Resource* seed : solve_seeds_) {
    if (!seed->dirty) continue;  // solved with an earlier seed's component
    if (seed->users.empty()) {
      // Lost its last user: settle the allocation that held until now.
      seed->dirty = false;
      settle(*seed);
      seed->allocated = 0.0;
      continue;
    }
    // The solve settles the component and clears its dirty marks (in
    // apply_rates), so later seeds inside it are skipped.
    update_component(seed->shared() ? collect_component(nullptr, seed)
                                     : collect_component(seed->users.front().cls, nullptr));
  }
  solve_seeds_.clear();
  for (std::uint64_t id : dirty_solo_) {
    auto it = activities_.find(id);
    if (it == activities_.end()) continue;  // finished or cancelled meanwhile
    Activity& act = it->second;
    act.dirty = false;
    update_component(collect_component(act.cls, nullptr));
  }
  dirty_solo_.clear();
  maybe_verify();
}

// --- solving -------------------------------------------------------------

FluidModel::Component FluidModel::collect_component(Class* seed_cls, Resource* seed_res) {
  // Epoch-stamped visit marks instead of hash sets: one counter bump makes
  // every stale stamp invalid, so the BFS allocates nothing in steady state.
  // The discovered lists double as the BFS queues.
  const std::uint64_t epoch = ++visit_epoch_;
  bfs_cls_.clear();
  bfs_res_.clear();
  if (seed_cls != nullptr) {
    seed_cls->seen = epoch;
    bfs_cls_.push_back(seed_cls);
  }
  if (seed_res != nullptr) {
    seed_res->seen = epoch;
    bfs_res_.push_back(seed_res);
  }
  bool integral = true;
  std::size_t members = 0;
  for (std::size_t ci = 0, ri = 0; ci < bfs_cls_.size() || ri < bfs_res_.size();) {
    if (ci < bfs_cls_.size()) {
      const Class* cls = bfs_cls_[ci++];
      integral = integral && cls->integral_weight;
      members += cls->members.size();
      for (Resource* r : cls->key.shared) {
        if (r->seen != epoch) {
          r->seen = epoch;
          bfs_res_.push_back(r);
        }
      }
    } else {
      for (Class* cls : bfs_res_[ri++]->classes) {
        if (cls->seen != epoch) {
          cls->seen = epoch;
          bfs_cls_.push_back(cls);
        }
      }
    }
  }
  // Canonical order. With integral weights every weight sum is an exact
  // integer, so the classes' order changes no bit of the solution and
  // discovery order serves. Otherwise summation order matters in the last
  // bits: sort by smallest member id, so the rates depend on the state
  // alone, never on the traversal. Shared resources stay in discovery order
  // either way: every per-resource sum runs in class or user order, and the
  // water level is an exact minimum.
  if (!integral) {
    std::sort(bfs_cls_.begin(), bfs_cls_.end(),
              [](const Class* a, const Class* b) { return a->min_id < b->min_id; });
  }
  Component comp;
  comp.members = members;
  comp.classes.assign(bfs_cls_.begin(), bfs_cls_.end());
  comp.versions.reserve(bfs_cls_.size());
  for (const Class* cls : bfs_cls_) comp.versions.push_back(cls->version);
  comp.shared.assign(bfs_res_.begin(), bfs_res_.end());
  return comp;
}

void FluidModel::settle(Member& m) const {
  const SimTime now = engine_.now();
  const double elapsed = now - m.last_update;
  if (elapsed > 0.0) m.remaining = std::max(0.0, m.remaining - m.rate * elapsed);
  m.last_update = now;
}

void FluidModel::settle(Resource& r) const {
  const SimTime now = engine_.now();
  const double elapsed = now - r.last_update;
  if (elapsed > 0.0) r.busy_integral += r.allocated * elapsed;
  r.last_update = now;
}

void FluidModel::settle_component(const Component& comp) {
  for (Class* cls : comp.classes) {
    for (Member& m : cls->members) settle(m);
  }
  for (Resource* r : comp.shared) settle(*r);
  for (Class* cls : comp.classes) {
    for (Resource* r : cls->priv) settle(*r);
  }
}

void FluidModel::load_problem(const std::vector<Resource*>& shared) {
  s_rescap_.resize(shared.size());
  for (std::size_t j = 0; j < shared.size(); ++j) {
    shared[j]->local_idx = j;  // lets each edge resolve its slot in O(1)
    s_rescap_[j] = shared[j]->capacity;
  }
  s_weight_.clear();
  s_cap_.clear();
  s_nweight_.clear();
  s_ridx_.clear();
  s_pcap_.clear();
  s_roff_.assign(1, 0);
  s_poff_.assign(1, 0);
}

void FluidModel::add_class_row(const ClassKey& key, std::size_t members) {
  const double weight = from_bits(key.weight);
  s_weight_.push_back(weight);
  s_cap_.push_back(from_bits(key.cap));
  s_nweight_.push_back(static_cast<double>(members) * weight);
  for (const Resource* r : key.shared) s_ridx_.push_back(r->local_idx);
  s_roff_.push_back(s_ridx_.size());
  for (std::uint64_t c : key.private_caps) s_pcap_.push_back(from_bits(c));
  s_poff_.push_back(s_pcap_.size());
}

void FluidModel::fill_rates() {
  const std::size_t nc = s_weight_.size();
  const std::size_t ns = s_rescap_.size();
  // Progressive filling: raise a common water level theta; each unfrozen
  // class's rate grows as weight*theta until either one of its resources
  // saturates (freezing every unfrozen user of that resource) or its own
  // cap is reached. Scoped to one component — by definition no activity
  // outside it shares any of its resources, so the component solution *is*
  // the global max-min solution restricted to these activities.
  //
  // A class stands for `members` activities of equal weight on the same
  // shared resources, so it weighs members × weight there. Its private
  // constraints are its members' one-user resources: each has the weight
  // sum `weight` while the class is unfrozen, and the arithmetic below
  // repeats, operation for operation, what the resource would do as an
  // entry of the shared set.
  s_rates_.assign(nc, 0.0);
  s_slack_.assign(s_rescap_.begin(), s_rescap_.end());
  s_pslack_.assign(s_pcap_.begin(), s_pcap_.end());
  // Freeze thresholds, computed once per solve instead of once per round.
  s_thresh_.resize(ns);
  for (std::size_t j = 0; j < ns; ++j) s_thresh_[j] = kEps * std::max(1.0, s_rescap_[j]);
  s_pthresh_.resize(s_pcap_.size());
  for (std::size_t p = 0; p < s_pcap_.size(); ++p) {
    s_pthresh_[p] = kEps * std::max(1.0, s_pcap_[p]);
  }
  s_unfrozen_.clear();
  for (std::size_t i = 0; i < nc; ++i) {
    if (s_cap_[i] > 0.0) s_unfrozen_.push_back(i);  // cap <= 0 is paused
  }

  // Weight sum (and edge count) of unfrozen users per shared resource,
  // maintained incrementally: built once, then each freeze subtracts the
  // frozen class's weight. The count snaps a sum exactly to zero when the
  // last user freezes, so subtraction residue can never keep a userless
  // resource in the theta minimization.
  s_sumw_.assign(ns, 0.0);
  s_cnt_.assign(ns, 0);
  for (std::size_t i : s_unfrozen_) {
    for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) {
      s_sumw_[s_ridx_[k]] += s_nweight_[i];
      ++s_cnt_[s_ridx_[k]];
    }
  }
  // Resources that still bound some unfrozen user. A weight sum only ever
  // falls, so a resource whose sum is spent never re-enters the minimum and
  // later rounds skip it (most drop out after the first round). Their order
  // is irrelevant: the minimum is exact and each slack update is local.
  s_live_res_.clear();
  for (std::size_t j = 0; j < ns; ++j) {
    if (s_sumw_[j] > 0.0) s_live_res_.push_back(j);
  }
  while (!s_unfrozen_.empty()) {
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t j : s_live_res_) {
      theta = std::min(theta, std::max(0.0, s_slack_[j]) / s_sumw_[j]);
    }
    for (std::size_t i : s_unfrozen_) {
      // An uncapped class's candidate is +inf: no division needed.
      if (s_cap_[i] < kUnlimited) theta = std::min(theta, (s_cap_[i] - s_rates_[i]) / s_weight_[i]);
      for (std::size_t p = s_poff_[i]; p < s_poff_[i + 1]; ++p) {
        theta = std::min(theta, std::max(0.0, s_pslack_[p]) / s_weight_[i]);
      }
    }
    assert(std::isfinite(theta));
    theta = std::max(theta, 0.0);

    for (std::size_t j : s_live_res_) s_slack_[j] -= theta * s_sumw_[j];
    // Raise every unfrozen class by the level, then freeze the ones now at
    // a saturated resource, a saturated private constraint or their cap.
    // Survivors are compacted in place, keeping their order.
    std::size_t kept = 0;
    bool froze_any = false;
    for (std::size_t i : s_unfrozen_) {
      const double weight = s_weight_[i];
      s_rates_[i] += weight * theta;
      bool frozen = s_cap_[i] < kUnlimited && s_rates_[i] >= s_cap_[i] * (1.0 - 1e-12) - kEps;
      for (std::size_t p = s_poff_[i]; p < s_poff_[i + 1]; ++p) {
        s_pslack_[p] -= theta * weight;
        frozen = frozen || s_pslack_[p] <= s_pthresh_[p];
      }
      for (std::size_t k = s_roff_[i]; !frozen && k < s_roff_[i + 1]; ++k) {
        frozen = s_slack_[s_ridx_[k]] <= s_thresh_[s_ridx_[k]];
      }
      if (frozen) {
        froze_any = true;
        for (std::size_t k = s_roff_[i]; k < s_roff_[i + 1]; ++k) {
          const std::size_t j = s_ridx_[k];
          s_sumw_[j] -= s_nweight_[i];
          if (--s_cnt_[j] == 0) s_sumw_[j] = 0.0;
        }
      } else {
        s_unfrozen_[kept++] = i;
      }
    }
    if (!froze_any) {
      // Numerical guard: theta was the exact minimum, so something must
      // freeze; if rounding prevented it, freeze everything to terminate.
      break;
    }
    s_unfrozen_.resize(kept);
    std::erase_if(s_live_res_, [this](std::size_t j) { return !(s_sumw_[j] > 0.0); });
  }
}

void FluidModel::project_finish(Member& m) const {
  const SimTime now = engine_.now();
  if (finished(m)) {
    m.finish_at = now;
  } else if (m.rate > 0.0) {
    m.finish_at = now + m.remaining / m.rate;
  } else {
    m.finish_at = kNever;
  }
}

void FluidModel::scan_timer(Member& m, Member*& best) {
  // Earliest projected finisher, smallest id on ties; and every member
  // holding a timer, since all but the finisher's must go.
  if (m.finish_at < kNever &&
      (best == nullptr || earlier(m.finish_at, m.id, best->finish_at, best->id))) {
    best = &m;
  }
  if (m.timer.valid()) s_timed_.emplace_back(m.id, &m);
}

FluidModel::Activity* FluidModel::arm_timer(Member* best) {
  if (best != nullptr && !best->timer.valid()) s_timed_.emplace_back(best->id, best);
  // Engine calls go out in ascending member id: the order a scan over an
  // id-sorted member list makes them in.
  std::sort(s_timed_.begin(), s_timed_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, m] : s_timed_) {
    if (m == best) {
      if (m->timer.valid() && bits(m->armed_at) == bits(m->finish_at)) continue;
      if (m->timer.valid()) engine_.cancel(m->timer);
      m->armed_at = m->finish_at;
      const std::uint64_t aid = id;
      m->timer = engine_.schedule_at(m->finish_at, [this, aid] { on_finish_event(aid); });
    } else {
      // This member held the timer under an older partition of the graph;
      // its cached component (if any) is superseded by the caller's.
      engine_.cancel(m->timer);
      m->timer = {};
      m->armed_at = kNever;
      comp_cache_.erase(id);
    }
  }
  s_timed_.clear();
  return best != nullptr ? best->act : nullptr;
}

FluidModel::Activity* FluidModel::apply_rates(const Component& comp) {
  // One pass per class: members settle at the rate that held until now,
  // take the new rate (re-projecting when it changed), and feed the timer
  // scan; then the class's private resources settle and take its rate.
  Member* best = nullptr;
  for (std::size_t i = 0; i < comp.classes.size(); ++i) {
    Class& cls = *comp.classes[i];
    const double rate = s_rates_[i];
    cls.rate = rate;
    for (Member& m : cls.members) {
      settle(m);
      // Bit compare: rates are never NaN or -0, so this is exact change
      // detection; it only skips a redundant re-projection.
      if (bits(m.rate) != bits(rate) || m.reproject) {
        m.rate = rate;
        m.reproject = false;
        project_finish(m);
      }
      scan_timer(m, best);
    }
    // A one-user resource carries exactly its user's rate (0 + rate). Its
    // busy integral settles first, against the allocation that held so far.
    for (Resource* r : cls.priv) {
      r->dirty = false;
      settle(*r);
      r->allocated = rate;
    }
  }
  // Shared sums run over the user list, ascending by activity id: the order
  // the per-activity solver summed in, so the sums are bit-identical to it.
  for (Resource* r : comp.shared) {
    r->dirty = false;
    settle(*r);
    double sum = 0.0;
    for (const User& u : r->users) sum += u.cls->rate;
    r->allocated = sum;
  }
  return arm_timer(best);
}

void FluidModel::update_component(Component comp) {
  recomputes_->inc();
  component_size_->observe(static_cast<double>(comp.members));
  component_classes_->observe(static_cast<double>(comp.classes.size()));
  load_problem(comp.shared);
  for (const Class* cls : comp.classes) add_class_row(cls->key, cls->members.size());
  fill_rates();
  Activity* holder = apply_rates(comp);
  // Hand the sorted class list to the timer holder: when its finish event
  // fires, on_finish_event reuses it instead of redoing the BFS and sort.
  if (holder != nullptr) comp_cache_[holder->id] = std::move(comp);
}

void FluidModel::on_finish_event(std::uint64_t activity_id) {
  auto it = activities_.find(activity_id);
  if (it == activities_.end()) {
    comp_cache_.erase(activity_id);
    return;  // completed in a batch meanwhile
  }
  Activity& self = it->second;
  member(self).timer = {};
  member(self).armed_at = kNever;

  // The cached membership is exact while the component is clean: any
  // mutation reaching it since arming would have marked it dirty.
  Component comp;
  if (auto cit = comp_cache_.find(activity_id); cit != comp_cache_.end()) {
    comp = std::move(cit->second);
    comp_cache_.erase(cit);
  } else {
    comp = collect_component(self.cls, nullptr);
  }
  if (touched(comp, self)) {
    // A mutation earlier in this instant reached the component after its
    // timer was armed, so membership and rates may be stale. Solve now: the
    // fresh solve re-arms the component's timer, at this very instant if
    // something is due, and that timer completes it.
    solve_dirty();
    return;
  }
  settle_component(comp);

  // Everything in the component that is done completes in one batch, in
  // ascending id: the co-finishers would fire at this same instant anyway,
  // and batching keeps callback order independent of timer arming order.
  std::vector<Activity*> done;
  for (Class* cls : comp.classes) {
    for (const Member& m : cls->members) {
      if (finished(m)) done.push_back(m.act);
    }
  }
  std::sort(done.begin(), done.end(), by_id);
  if (done.empty()) {
    // Scheduled slightly early by fp rounding; force the finish when it is
    // within kForcedFinishEta of simulated time, else re-arm.
    Member& m = member(self);
    if (m.rate > 0.0 && m.remaining / m.rate < kForcedFinishEta) {
      done.push_back(&self);
    } else {
      // This member held the component's timer; re-project its finish and
      // pick the component's earliest finisher afresh.
      project_finish(m);
      Member* best = nullptr;
      for (Class* cls : comp.classes) {
        for (Member& other : cls->members) scan_timer(other, best);
      }
      Activity* holder = arm_timer(best);
      if (holder != nullptr) comp_cache_[holder->id] = std::move(comp);
      return;
    }
  }

  std::vector<Callback> callbacks;
  callbacks.reserve(done.size());
  for (Activity* act : done) {
    if (Member& m = member(*act); m.timer.valid()) engine_.cancel(m.timer);
    comp_cache_.erase(act->id);
    // The survivors re-solve when the instant ends, together with whatever
    // the callbacks below start on the freed resources.
    for (Resource* r : act->resources) mark_dirty(*r);
    // May re-key a later batch member: `done` holds activities, and each
    // looks its member up afresh.
    detach(*act);
    if (act->on_complete) callbacks.push_back(std::move(act->on_complete));
    activities_.erase(act->id);
  }
  rate_recomputes_->inc();

  // Callbacks run last: the model is consistent and reentrant calls
  // (start/cancel) only mark more of it dirty for the same solve.
  for (Callback& cb : callbacks) cb();
}

// --- reference oracle ----------------------------------------------------

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
  // Every live activity, ascending by id.
  std::vector<Activity*> acts;
  acts.reserve(activities_.size());
  // vlint: allow(no-unordered-iteration) audited PR 8: collects pointers, sorted by id before use
  for (auto& [aid, act] : activities_) acts.push_back(&act);
  std::sort(acts.begin(), acts.end(), by_id);

  // 1. Re-derive every class from raw state: user counts come from the
  // activities' own resource lists, not from the maintained user lists,
  // class index or class pointers.
  std::unordered_map<const Resource*, std::size_t> user_count;
  for (const Activity* act : acts) {
    for (const Resource* r : act->resources) ++user_count[r];
  }
  std::vector<ClassKey> raw(acts.size());
  for (std::size_t a = 0; a < acts.size(); ++a) {
    const Activity& act = *acts[a];
    ClassKey& key = raw[a];
    key.weight = bits(act.weight);
    key.cap = bits(act.cap);
    for (Resource* r : act.resources) {
      if (user_count.at(r) != r->users.size()) {
        oracle_abort("resource user list out of date", act.id);
      }
      if (user_count.at(r) >= 2) {
        key.shared.push_back(r);
      } else {
        key.private_caps.push_back(bits(r->capacity));
      }
    }
    std::sort(key.shared.begin(), key.shared.end(), by_id);
    std::sort(key.private_caps.begin(), key.private_caps.end());
  }

  // 2. The maintained classes must be exactly those: same key, and one
  // class per key (activities with no shared resource alone in theirs).
  std::unordered_map<ClassKey, std::size_t, ClassKeyHash> group_of;
  std::vector<std::size_t> group(acts.size());
  std::vector<std::vector<std::size_t>> groups;  // ascending smallest id
  for (std::size_t a = 0; a < acts.size(); ++a) {
    const Activity& act = *acts[a];
    const Class* cls = act.cls;
    if (cls == nullptr || act.slot >= cls->members.size() ||
        cls->members[act.slot].act != &act || cls->members[act.slot].id != act.id) {
      oracle_abort("member slot out of date", act.id);
    }
    if (!(cls->key == raw[a])) oracle_abort("stale class key", act.id);
    for (const Resource* r : act.resources) {
      auto it = std::lower_bound(r->users.begin(), r->users.end(), act.id,
                                 [](const User& u, std::uint64_t id) { return u.id < id; });
      if (it == r->users.end() || it->act != &act || it->cls != cls) {
        oracle_abort("stale class in a user list", act.id);
      }
    }
    auto [it, fresh] = raw[a].shared.empty()
                           ? std::pair{group_of.end(), true}
                           : group_of.try_emplace(raw[a], groups.size());
    if (fresh) {
      group[a] = groups.size();
      groups.emplace_back();
    } else {
      group[a] = it->second;
      if (acts[groups[it->second].front()]->cls != cls) {
        oracle_abort("one key split across classes", act.id);
      }
    }
    groups[group[a]].push_back(a);
  }
  for (const auto& g : groups) {
    const Class& cls = *acts[g.front()]->cls;
    const std::uint64_t first = acts[g.front()]->id;
    if (cls.members.size() != g.size()) oracle_abort("class holds a stale member", first);
    if (cls.min_id != first) oracle_abort("class order key out of date", first);
    for (const Resource* r : cls.key.shared) {
      if (std::find(r->classes.begin(), r->classes.end(), &cls) == r->classes.end()) {
        oracle_abort("class missing from a resource's adjacency", cls.min_id);
      }
    }
  }

  // 3. The reference solve: one global progressive filling over the
  // re-derived classes at once. Components are independent subproblems, so
  // the joint water level reaches each component's own bottlenecks and the
  // result is mathematically identical to the per-component solves — but
  // the cost is the old cost, O(freeze rounds × all classes) per round,
  // which is exactly what bench/scale_cluster measures the incremental
  // solver against.
  std::vector<Resource*> shared;
  for (const auto& g : groups) {
    for (Resource* r : raw[g.front()].shared) shared.push_back(r);
  }
  std::sort(shared.begin(), shared.end(), by_id);
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  for (const Resource* r : shared) {
    for (const Class* cls : r->classes) {
      if (cls->members.empty() ||
          std::find(cls->key.shared.begin(), cls->key.shared.end(), r) == cls->key.shared.end()) {
        oracle_abort("dead class in a resource's adjacency", r->id);
      }
    }
  }
  load_problem(shared);
  for (const auto& g : groups) add_class_row(raw[g.front()], g.size());
  fill_rates();

  for (std::size_t a = 0; a < acts.size(); ++a) {
    const double stored = member(*acts[a]).rate;
    const double want = s_rates_[group[a]];
    // The joint solve reaches each bottleneck through more (smaller) water-
    // level increments, so accumulation differs in the last bits; compare
    // relative, not bitwise.
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(stored), std::abs(want)));
    if (std::abs(stored - want) > tol) {
      std::fprintf(stderr,
                   "FluidModel reference oracle: activity %llu rate %.17g != reference "
                   "%.17g (stale component?)\n",
                   static_cast<unsigned long long>(acts[a]->id), stored, want);
      std::abort();
    }
  }
}

}  // namespace vhadoop::sim
