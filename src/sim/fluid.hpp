#pragma once

#include <cstdint>
#include <deque>
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
/// ## Activity classes
///
/// The solve runs over *classes* of interchangeable activities rather than
/// over activities. A resource with one user is *private* to it; every other
/// resource is *shared*. Two activities belong to one class when they have
/// the same shared resources (with multiplicity), the same weight, the same
/// cap and the same sorted private capacities, doubles compared by bit
/// pattern. Members of a class provably get the same max-min rate, so the
/// component's graph, canonical order and progressive filling all run over
/// classes and shared resources; each class's private capacities become
/// per-class constraints that repeat a one-user resource's slack arithmetic
/// operation for operation. An activity with no shared resource is a class
/// of its own, so no class ever spans two components. With integer weights
/// every weight sum is an exact integer whichever way it is grouped, so
/// classes change no rate, event time or busy integral by a single bit;
/// non-integer weights may move the last bits (DESIGN.md §10).
///
/// Classes are maintained incrementally: start, finish, cancel, set_cap and
/// set_capacity re-key the activities whose key they change, including the
/// users of a resource whose user count crosses 1↔2. Per-member state —
/// remaining work, its settle time, projected finish and timer — lives in
/// each class's contiguous member array and is settled, re-projected and
/// scanned at exactly the points the per-activity solver used.
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
  /// environment variable; pass `reference` explicitly in tests. In
  /// reference mode a set, non-empty VHADOOP_FLUID_VERIFY_EVERY must be a
  /// whole integer >= 1, or the constructor throws std::invalid_argument
  /// naming the variable and its text.
  explicit FluidModel(Engine& engine);
  FluidModel(Engine& engine, bool reference);
  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  // --- resources ---------------------------------------------------------
  /// Capacities must be finite and >= 0 (else std::invalid_argument).
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
  /// Work must be finite and >= 0, weight finite and > 0, and cap not NaN
  /// (else std::invalid_argument).
  ActivityId start(ActivitySpec spec);
  /// Cancel an in-flight activity (its callback never runs). Returns false
  /// if it already completed or was cancelled.
  bool cancel(ActivityId id);
  /// Extend an in-flight activity by `extra` (finite, >= 0) work units.
  void add_work(ActivityId id, double extra);
  /// Change the rate cap of an in-flight activity (0 pauses it; +inf lifts
  /// it, unless the activity uses no resource; NaN throws).
  void set_cap(ActivityId id, double cap);
  bool active(ActivityId id) const { return activities_.contains(id.v); }
  double rate(ActivityId id);
  double remaining(ActivityId id) const;

  std::size_t active_count() const { return activities_.size(); }

 private:
  struct Activity;
  struct Class;

  /// One entry of a resource's user list. The class pointer mirrors the
  /// user's current class, so allocation sums never leave the resource.
  struct User {
    std::uint64_t id = 0;
    Activity* act = nullptr;
    Class* cls = nullptr;
  };

  // Field order follows the hot paths: every solve settles and refreshes
  // each resource of the component (the fields up to `dirty`, one cache
  // line); the BFS and the allocation sums read the lists after them.
  struct Resource {
    /// ∫ allocated dt, integrated up to `last_update`.
    double busy_integral = 0.0;
    SimTime last_update = 0.0;
    /// Sum of users' rates (kept current by apply_rates).
    double allocated = 0.0;
    double capacity = 0.0;
    /// Touched this instant; its component is solved when the instant ends.
    bool dirty = false;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
    /// Position in the component currently being solved; scratch written by
    /// load_problem so edge targets resolve in O(1).
    std::size_t local_idx = 0;
    std::uint64_t id = 0;
    /// Users ascending by id (ids are handed out monotonically); an
    /// activity listing the resource twice appears twice. Raw pointers:
    /// unordered_map nodes are pointer-stable across rehashes.
    std::vector<User> users;
    /// Distinct classes whose key holds this (shared) resource: the class
    /// graph's adjacency. Empty while the resource has fewer than 2 users.
    std::vector<Class*> classes;
    std::string name;

    bool shared() const { return users.size() >= 2; }
  };

  struct Activity {
    std::uint64_t id = 0;
    std::vector<Resource*> resources;
    double weight = 1.0;
    double cap = 0.0;
    double total = 0.0;
    /// Current class and index into its member array.
    Class* cls = nullptr;
    std::size_t slot = 0;
    /// Touched this instant while using no resource (a resource-less
    /// activity is its own component and has no resource to mark).
    bool dirty = false;
    Callback on_complete;
  };

  /// Per-activity state, stored contiguously in its class.
  struct Member {
    std::uint64_t id = 0;
    Activity* act = nullptr;
    /// Rate as of the last solve that reached this member (a member that
    /// joined since keeps the rate it had, or 0 when new).
    double rate = 0.0;
    /// Work left as of `last_update`; drains at `rate` since then.
    double remaining = 0.0;
    SimTime last_update = 0.0;
    /// Absolute projected completion time (kNever when paused/stalled).
    SimTime finish_at = kNever;
    /// The time `timer` is armed at (kNever when not armed); lets a re-arm
    /// be skipped when the projected finish did not move.
    SimTime armed_at = kNever;
    /// Engine timer, armed only while this member is its component's
    /// earliest finisher (one live timer per component).
    Engine::EventId timer{};
    /// Remaining work changed without a rate change (add_work): the next
    /// solve must re-project the finish even if the rate stays put.
    bool reproject = false;
  };

  /// What makes activities interchangeable (see class comment). Doubles are
  /// kept as bit patterns so equality and hashing are exact.
  struct ClassKey {
    /// Shared resources ascending by id, duplicates kept.
    std::vector<Resource*> shared;
    /// Bit patterns of the private resources' capacities, ascending.
    std::vector<std::uint64_t> private_caps;
    std::uint64_t weight = 0;
    std::uint64_t cap = 0;
    bool operator==(const ClassKey&) const = default;
  };
  struct ClassKeyHash {
    std::size_t operator()(const ClassKey& key) const;
  };

  struct Class {
    ClassKey key;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
    /// Smallest member id: the canonical solve order of classes.
    std::uint64_t min_id = 0;
    /// Bumped on every join and leave, so a cached component can tell
    /// whether its classes still hold the members it was solved with.
    std::uint64_t version = 0;
    /// The weight is a (moderate) integer: every weight sum over this class
    /// is exact in any order.
    bool integral_weight = false;
    std::vector<Member> members;
    /// Members' private resources, member-major (key.private_caps.size()
    /// per member, in each member's own resource order).
    std::vector<Resource*> priv;
    /// Rate of the last solve (written before allocation sums read it).
    double rate = 0.0;
  };

  /// One connected component of the class↔shared-resource graph, in
  /// solve order (see collect_component). `versions` records each class's
  /// membership version at collection time; shared resources are in
  /// discovery order, which no result depends on.
  struct Component {
    std::vector<Class*> classes;
    std::vector<std::uint64_t> versions;
    std::vector<Resource*> shared;
    /// Member activities across the classes.
    std::size_t members = 0;
  };

  // --- class maintenance -------------------------------------------------
  /// Write act's current key into `key` (reusing its buffers).
  void key_of(const Activity& act, ClassKey& key) const;
  /// The class for `key`: the indexed one when the key has shared
  /// resources, otherwise (and when absent) a fresh one.
  Class* class_for(const ClassKey& key);
  /// Append a member (with its private resources) to `cls`.
  void join(Class& cls, Activity& act, const Member& m);
  /// Remove act's member from its class (swap-remove; an emptied class is
  /// recycled) and return it.
  Member leave(Activity& act);
  /// Move `act` to the class its current key names, if that changed.
  void rekey(Activity& act);
  static Member& member(Activity& act);
  static const Member& member(const Activity& act);

  /// BFS over classes and shared resources from one seed. Classes come out
  /// in discovery order when every weight is integral (each weight sum is
  /// then exact in any order), else sorted by smallest member id, so rates
  /// are always a function of the component's state alone.
  Component collect_component(Class* seed_cls, Resource* seed_res);
  /// Queue a touched resource for the solve round at the end of the
  /// current instant.
  void mark_dirty(Resource& res);
  /// Queue the component of a changed activity: its resources, or the
  /// activity itself when it uses none.
  void touch(Activity& act);
  /// Register the end-of-instant hook that runs solve_dirty (once).
  void schedule_solve();
  /// True when a mutation this instant reached the component (`holder` is
  /// the member whose timer cached it). Class storage is never freed, so
  /// reading a class that has since been emptied and recycled is safe, and
  /// its changed version reports the touch.
  static bool touched(const Component& comp, const Activity& holder);
  /// Solve every component dirtied since the last round, once each, in the
  /// order they were first dirtied. Removals may have split a component:
  /// each seed's BFS finds its own true component, and every piece keeps
  /// a seed (the removed activity's resources), so no piece goes unsolved.
  void solve_dirty();
  /// Bring `remaining` of one member up to now at its current rate.
  void settle(Member& m) const;
  /// Bring `busy_integral` of one resource up to now at its allocation.
  void settle(Resource& r) const;
  /// Settle every member and resource of the component (a solve does the
  /// same inside apply_rates).
  void settle_component(const Component& comp);
  /// Start a solver problem over these shared resources (scratch state).
  void load_problem(const std::vector<Resource*>& shared);
  /// Append one class row: `members` activities with this key. The key's
  /// shared resources must belong to the loaded problem.
  void add_class_row(const ClassKey& key, std::size_t members);
  /// Canonical progressive filling over the loaded problem. Writes one rate
  /// per class row into s_rates_; touches only scratch state.
  void fill_rates();
  /// Settle every member and resource at the rates that held until now,
  /// write the solved rates back (re-projecting finishes that moved),
  /// refresh allocation sums, clear dirty marks, and re-arm the component's
  /// timer if its earliest ETA moved. Returns the member holding the
  /// component's timer (null when none finishes).
  Activity* apply_rates(const Component& comp);
  /// Solve + apply for one dirty component (metrics included). Takes the
  /// component by value: it is moved into comp_cache_ under the timer
  /// holder, so the holder's finish event can reuse it without a BFS.
  void update_component(Component comp);
  /// Timer scan over a component's members, one call per member: tracks
  /// the earliest projected finisher (smallest id on ties) in `best` and
  /// collects every member holding a timer.
  void scan_timer(Member& m, Member*& best);
  /// After a scan: arm one engine timer for the component, on `best`, and
  /// cancel the scanned timers of all other members, in ascending id
  /// order. A component with no finite finish keeps no timer at all.
  /// Returns the timer holder (even when its timer was kept), or null.
  Activity* arm_timer(Member* best);
  /// Recompute `m.finish_at` from rate/remaining as of now.
  void project_finish(Member& m) const;
  void on_finish_event(std::uint64_t activity_id);
  /// Unlink a departing activity from its resources and its class, and
  /// re-key users left alone on a resource.
  void detach(Activity& act);
  /// Reference-mode gate: runs the oracle after every solve round by
  /// default, or after every Nth one when VHADOOP_FLUID_VERIFY_EVERY=N — the
  /// full oracle is O(all activities × all resources) per round, which is
  /// fine for the churn suite but prohibitive at 4096 VMs. Sampling still
  /// catches a stale component: staleness persists until the component is
  /// next touched, so any later sampled check over the same state trips it.
  void maybe_verify();
  /// Reference oracle: re-derive classes from raw state, check the
  /// maintained ones against them, re-solve globally and verify rates.
  void verify_all_components();

  /// An activity is finished when less than this much work remains. Work
  /// units are bytes or core-seconds; a micro-unit is far below
  /// observability.
  static constexpr double kWorkEps = 1e-6;

  static bool finished(const Member& m) {
    return m.remaining <= kWorkEps && (m.rate > 0.0 || m.act->total <= kWorkEps);
  }

  Engine& engine_;
  bool reference_;
  /// Oracle sampling period (1 = every solve round); see maybe_verify().
  int verify_every_ = 1;
  std::uint64_t verify_tick_ = 0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Resource> resources_;
  std::unordered_map<std::uint64_t, Activity> activities_;
  /// Class storage: deque slots are pointer-stable; emptied classes are
  /// recycled through free_classes_.
  std::deque<Class> class_store_;
  std::vector<Class*> free_classes_;
  /// Classes with at least one shared resource, by key hash (each class
  /// holds its own key, so the index stores none). Classes without one are
  /// singletons and never looked up.
  std::unordered_multimap<std::size_t, Class*> class_index_;
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
  obs::Histogram* component_classes_;

  // Scratch reused across calls so the per-event hot path (BFS + solve on
  // the dirty component) allocates nothing in steady state. The engine is
  // single-threaded and no solve nests inside another, so sharing is safe.
  std::uint64_t visit_epoch_ = 0;
  std::vector<Class*> bfs_cls_;
  std::vector<Resource*> bfs_res_;
  std::vector<Resource*> solve_seeds_;
  std::vector<std::pair<std::uint64_t, Member*>> s_timed_;
  ClassKey s_key_;
  // The loaded problem: per shared resource (capacity, slack, unfrozen
  // weight sum and edge count), per class (weight, cap, member-weighted
  // weight, shared-edge and private-constraint ranges), per private
  // constraint (capacity, slack).
  std::vector<double> s_rescap_, s_slack_, s_sumw_, s_thresh_;
  std::vector<int> s_cnt_;
  std::vector<double> s_weight_, s_cap_, s_nweight_, s_rates_;
  std::vector<std::size_t> s_roff_, s_ridx_, s_poff_;
  std::vector<double> s_pcap_, s_pslack_, s_pthresh_;
  std::vector<std::size_t> s_unfrozen_, s_live_res_;
};

}  // namespace vhadoop::sim
