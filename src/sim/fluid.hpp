#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vhadoop::sim {

/// Fluid (flow-level) resource-sharing model.
///
/// Every ongoing transfer or computation in the simulated testbed is an
/// *activity*: a fixed amount of work (bytes, core-seconds) draining at a
/// rate decided by weighted max-min fair sharing over the *resources* it
/// consumes. An activity may consume several resources at once at the same
/// rate — e.g. a cross-host flow uses the sender NIC, the receiver NIC and
/// the NFS disk; a virtual CPU burn uses the VM's VCPU allotment and the
/// host's physical CPU. This is the standard methodology for simulating
/// contention phenomena at datacenter scale (flow-level network models):
/// exact packet/instruction interleaving is abstracted away, while
/// bottleneck formation — the subject of the vHadoop paper — is preserved.
///
/// ## Incremental, coalesced recomputation (DESIGN.md §10)
///
/// Activities and resources form a bipartite sharing graph whose connected
/// components are independent max-min problems: progressive filling in one
/// component never reads state from another. The model exploits that by
/// recomputing only the components a change (activity start/finish/cancel,
/// capacity or cap change) touched. Rates of all other components — and
/// their already-armed completion timers — are left intact, which turns the
/// per-event cost from O(all activities × all resources) into O(component).
/// Work remaining and busy integrals are settled lazily, also per component.
///
/// Changes are coalesced per simulated instant. A mutation only marks the
/// resources it touched dirty; the engine's end-of-instant hook
/// (Engine::at_instant_end) then solves each dirty component once, before
/// the clock advances. A finish whose callback starts the next transfer on
/// the same link therefore costs one solve, not two. Nothing integrates
/// over zero elapsed time, so deferring the solve to the end of the instant
/// changes no rate, remaining work or busy integral. The queries that read
/// current rates (rate, allocated, utilization) solve pending components
/// first, so they answer exactly as if every mutation had solved at once.
///
/// The invariant that makes this safe: *once an instant ends, the stored
/// rate of every activity equals the canonical progressive-filling solution
/// of its own (true, maximal) connected component*. That solution depends
/// only on the set of activities, weights, caps and capacities present, not
/// on the mutations that produced it. Solving is deterministic, so a
/// reference re-solve of an untouched component reproduces the stored
/// rates bit for bit. `VHADOOP_FLUID_REFERENCE=1` (or the constructor
/// flag) turns on the reference oracle: after every solve round the model
/// re-solves *every* component from scratch and verifies the invariant,
/// aborting on divergence beyond 1e-9 — the stale-component bug class an
/// incremental solver can introduce cannot then go unnoticed.
///
/// Completion times are exact under the piecewise-constant rate
/// assumption. Projected finish times are plain arithmetic; only one
/// engine timer is armed per component — on its earliest finisher — and it
/// is re-armed only when that earliest ETA actually moves. A rate change
/// that shifts every member of a 500-activity component therefore costs
/// one heap operation, not 500. Timers are armed when the instant ends, in
/// the order the components were first dirtied, so the event order at a
/// shared instant stays a pure function of the simulation's inputs.
class FluidModel {
 public:
  struct ResourceId {
    std::uint64_t v = 0;
    bool valid() const { return v != 0; }
    bool operator==(const ResourceId&) const = default;
  };
  struct ActivityId {
    std::uint64_t v = 0;
    bool valid() const { return v != 0; }
    bool operator==(const ActivityId&) const = default;
  };

  /// Completion callback. Runs after the model is consistent, so it may
  /// freely start or cancel other activities.
  using Callback = std::function<void()>;

  struct ActivitySpec {
    /// Total work: bytes for transfers, core-seconds for computation.
    double work = 0.0;
    /// Max-min weight (share of each contended resource).
    double weight = 1.0;
    /// Hard rate ceiling (e.g. a VCPU can use at most one core; a paced
    /// migration stream). Infinity = unlimited.
    double cap = std::numeric_limits<double>::infinity();
    /// Resources consumed, all at the activity's single rate. May be empty
    /// only if `cap` is finite (pure rate-limited work, e.g. latency pacing).
    std::vector<ResourceId> resources;
    Callback on_complete;
  };

  /// Reference-oracle mode defaults to the VHADOOP_FLUID_REFERENCE
  /// environment variable; pass `reference` explicitly in tests.
  explicit FluidModel(Engine& engine);
  FluidModel(Engine& engine, bool reference);
  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  /// True when every update re-solves all components and verifies the
  /// incremental invariant (see class comment).
  bool reference_mode() const { return reference_; }

  // --- resources ---------------------------------------------------------
  ResourceId add_resource(std::string name, double capacity);
  void set_capacity(ResourceId id, double capacity);
  double capacity(ResourceId id) const;
  /// Sum of the current rates of all activities using the resource. Like
  /// rate() and utilization(), solves pending components first.
  double allocated(ResourceId id);
  /// allocated / capacity in [0,1]; 0 for a zero-capacity resource.
  double utilization(ResourceId id);
  /// ∫ allocated(t) dt since simulation start (for average utilization).
  double busy_integral(ResourceId id) const;
  const std::string& name(ResourceId id) const;

  // --- activities --------------------------------------------------------
  ActivityId start(ActivitySpec spec);
  /// Cancel an in-flight activity (its callback never runs). Returns false
  /// if it already completed or was cancelled.
  bool cancel(ActivityId id);
  /// Extend an in-flight activity by `extra` work units.
  void add_work(ActivityId id, double extra);
  /// Change the rate cap of an in-flight activity (0 pauses it).
  void set_cap(ActivityId id, double cap);
  bool active(ActivityId id) const { return activities_.contains(id.v); }
  double rate(ActivityId id);
  double remaining(ActivityId id) const;

  std::size_t active_count() const { return activities_.size(); }

 private:
  struct Activity;

  // Field order follows the hot paths: the BFS reads id/seen/adjacency,
  // the solve the parameters after them; cold fields come last, so a
  // member visit costs one or two cache lines.
  struct Resource {
    std::uint64_t id = 0;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
    /// Users ascending by id (ids are handed out monotonically). Raw
    /// pointers: unordered_map nodes are pointer-stable across rehashes,
    /// and pointer adjacency keeps hash lookups out of the per-event path.
    std::vector<Activity*> users;
    /// Position in the component currently being solved; scratch written by
    /// solve_component so edge targets resolve in O(1).
    std::size_t local_idx = 0;
    double capacity = 0.0;
    /// Sum of users' rates (kept current by apply_rates).
    double allocated = 0.0;
    /// ∫ allocated dt, integrated up to `last_update`.
    double busy_integral = 0.0;
    SimTime last_update = 0.0;
    /// Touched this instant; its component is solved when the instant ends.
    bool dirty = false;
    std::string name;
  };

  struct Activity {
    std::uint64_t id = 0;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
    std::vector<Resource*> resources;
    double weight = 1.0;
    double cap = 0.0;
    double rate = 0.0;
    /// Work left as of `last_update`; drains at `rate` since then.
    double remaining = 0.0;
    SimTime last_update = 0.0;
    /// Absolute projected completion time (kNever when paused/stalled).
    SimTime finish_at = kNever;
    /// The time finish_event is armed at (kNever when not armed); lets a
    /// re-arm be skipped when the projected finish did not move.
    SimTime armed_at = kNever;
    double total = 0.0;
    /// Engine timer, armed only while this activity is its component's
    /// earliest finisher (one live timer per component, see apply_rates).
    Engine::EventId finish_event{};
    /// Touched this instant while using no resource (a resource-less
    /// activity is its own component and has no resource to mark).
    bool dirty = false;
    /// Remaining work changed without a rate change (add_work): the next
    /// solve must re-project the finish even if the rate stays put.
    bool reproject = false;
    Callback on_complete;
  };

  /// One connected component of the activity↔resource bipartite graph.
  /// Activities are sorted ascending by id (the canonical solve order);
  /// resources are in discovery order, which no result depends on.
  struct Component {
    std::vector<Activity*> acts;
    std::vector<Resource*> res;
  };

  /// BFS over shared resources from the given seeds (either may be null).
  Component collect_component(Activity* seed_act, Resource* seed_res);
  /// Queue a touched resource for the solve round at the end of the
  /// current instant.
  void mark_dirty(Resource& res);
  /// Queue the component of a changed activity: its resources, or the
  /// activity itself when it uses none.
  void touch(Activity& act);
  /// Register the end-of-instant hook that runs solve_dirty (once).
  void schedule_solve();
  /// True when a mutation this instant reached the component.
  static bool touched(const Component& comp);
  /// Solve every component dirtied since the last round, once each, in the
  /// order they were first dirtied. Removals may have split a component:
  /// each seed's BFS finds its own true component, and every piece keeps
  /// a seed (the removed activity's resources), so no piece goes unsolved.
  void solve_dirty();
  /// Bring `remaining` of one activity up to now at its current rate.
  void settle(Activity& act) const;
  /// Bring `remaining` / `busy_integral` of every member up to now.
  void settle_component(const Component& comp);
  /// Canonical progressive filling over one component. Writes the solution
  /// into `rates` (parallel to comp.acts); touches only scratch state.
  void solve_component(const Component& comp, std::vector<double>& rates);
  /// Write solved rates back, refresh per-resource allocation sums and
  /// re-arm the component's timer if its earliest ETA moved. Returns the
  /// member holding the component's timer (null when none finishes).
  Activity* apply_rates(const Component& comp, const std::vector<double>& rates);
  /// Solve + apply for one dirty component (metrics included). Takes the
  /// component by value: it is moved into comp_cache_ under the timer
  /// holder, so the holder's finish event can reuse it without a BFS.
  void update_component(Component comp);
  /// Arm one engine timer for the component, on its earliest projected
  /// finisher (smallest id on ties); cancel timers of all other members.
  /// A component with no finite finish keeps no timer at all. Returns the
  /// timer holder (even when the existing timer was kept), or null.
  Activity* arm_component_timer(const Component& comp);
  /// Recompute `act.finish_at` from rate/remaining as of now.
  void project_finish(Activity& act) const;
  void on_finish_event(std::uint64_t activity_id);
  void detach(Activity& act);
  /// Reference-mode gate: runs the oracle after every solve round by
  /// default, or after every Nth one when VHADOOP_FLUID_VERIFY_EVERY=N — the
  /// full oracle is O(all activities × all resources) per round, which is
  /// fine for the churn suite but prohibitive at 4096 VMs. Sampling still
  /// catches a stale component: staleness persists until the component is
  /// next touched, so any later sampled check over the same state trips it.
  void maybe_verify();
  /// Reference oracle: re-solve every component, verify stored rates.
  void verify_all_components();

  /// An activity is finished when less than this much work remains. Work
  /// units are bytes or core-seconds; a micro-unit is far below
  /// observability.
  static constexpr double kWorkEps = 1e-6;

  bool finished(const Activity& act) const {
    return act.remaining <= kWorkEps && (act.rate > 0.0 || act.total <= kWorkEps);
  }

  Engine& engine_;
  bool reference_;
  /// Oracle sampling period (1 = every solve round); see maybe_verify().
  int verify_every_ = 1;
  std::uint64_t verify_tick_ = 0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Resource> resources_;
  std::unordered_map<std::uint64_t, Activity> activities_;
  /// Solved component of each armed timer holder, keyed by its activity id.
  /// Valid while the component is clean: any mutation touching it marks it
  /// dirty, and the solve at the end of the instant re-arms and replaces
  /// the entry. A timer that fires while its component is clean therefore
  /// finds membership exactly as it was at arming time, and the finish
  /// path needs neither a BFS nor a sort. Entries die with their timer
  /// (consumed on fire, erased on cancel/re-arm).
  std::unordered_map<std::uint64_t, Component> comp_cache_;
  /// Dirty seeds of the current instant, in first-touched order: resources,
  /// then resource-less activities by id (they may be gone by solve time).
  std::vector<Resource*> dirty_res_;
  std::vector<std::uint64_t> dirty_solo_;
  /// An end-of-instant hook is registered with the engine.
  bool solve_scheduled_ = false;
  obs::Counter* activities_started_;
  obs::Counter* rate_recomputes_;
  obs::Counter* recomputes_;
  obs::Histogram* component_size_;

  // Scratch reused across calls so the per-event hot path (BFS + solve on
  // the dirty component) allocates nothing in steady state. The engine is
  // single-threaded and no solve nests inside another, so sharing is safe.
  std::uint64_t visit_epoch_ = 0;
  std::vector<Activity*> bfs_act_stack_;
  std::vector<Resource*> bfs_res_stack_;
  std::vector<Resource*> solve_seeds_;
  std::vector<std::pair<std::uint64_t, Activity*>> s_act_keys_;
  std::vector<double> s_slack_, s_rescap_, s_weight_, s_cap_, s_sumw_;
  std::vector<std::size_t> s_ridx_, s_roff_, s_unfrozen_, s_next_, s_live_res_;
  std::vector<int> s_cnt_;
  std::vector<double> s_rates_;
};

}  // namespace vhadoop::sim
