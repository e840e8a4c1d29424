// Randomized churn equivalence sweep for the incremental fluid solver
// (DESIGN.md §10). Each seed drives an identical random schedule of
// mutations — starts, cancels, cap changes, added work, capacity changes —
// through two models: one with the incremental per-component solver and one
// with the reference oracle enabled (every update re-solved globally and
// verified). The full observable trace — every sampled rate, the completion
// order with timestamps, and the final busy integrals — must match *exactly*
// (operator==, not within a tolerance): the incremental solver's contract is
// that it produces the same simulation, not an approximation of it.
//
// A class-shaped family repeats this on the workloads activity classes
// aggregate (DESIGN.md §10): one shared set, many private resources.
//
// Independently of the mode comparison, a test-local naive progressive
// filling solver (written against the textbook algorithm, sharing no code
// with src/sim/fluid.cpp) re-derives the global weighted max-min allocation
// at every sample point and must agree with the model within 1e-9.

#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace vhadoop::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// What the test knows about each started activity (the model's view is
/// reconstructed from this when running the naive oracle).
struct ActInfo {
  FluidModel::ActivityId id;
  double weight = 1.0;
  double cap = kInf;
  std::vector<std::size_t> res;  ///< indices into the resource arrays
};

/// Textbook weighted progressive filling: raise every unfrozen activity's
/// rate as weight·level until a resource saturates or a cap binds, freeze
/// the limited activities, repeat. O(n²) and proud of it.
std::vector<double> naive_max_min(const std::vector<double>& capacity,
                                  const std::vector<double>& weight,
                                  const std::vector<double>& cap,
                                  const std::vector<std::vector<std::size_t>>& uses) {
  const std::size_t n = weight.size();
  std::vector<double> rate(n, 0.0);
  std::vector<bool> frozen(n, false);
  std::vector<double> slack = capacity;
  std::size_t left = n;
  while (left > 0) {
    // Largest uniform level increase before some constraint binds.
    std::vector<double> sumw(capacity.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      for (std::size_t j : uses[i]) sumw[j] += weight[i];
    }
    double delta = kInf;
    for (std::size_t j = 0; j < capacity.size(); ++j) {
      if (sumw[j] > 0.0) delta = std::min(delta, slack[j] / sumw[j]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i] && cap[i] < kInf) {
        delta = std::min(delta, (cap[i] - rate[i]) / weight[i]);
      }
    }
    // vlint: allow(no-exact-float-compare) audited PR 8: kInf sentinel from the reference water-filling solver
    if (delta == kInf) break;  // only uncapped activities on idle resources
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) rate[i] += weight[i] * delta;
    }
    for (std::size_t j = 0; j < capacity.size(); ++j) slack[j] -= sumw[j] * delta;

    bool froze = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      bool limited = cap[i] < kInf && rate[i] >= cap[i] - 1e-12 * std::max(1.0, cap[i]);
      for (std::size_t j : uses[i]) {
        if (slack[j] <= 1e-12 * std::max(1.0, capacity[j])) limited = true;
      }
      if (limited) {
        frozen[i] = true;
        froze = true;
        --left;
      }
    }
    if (!froze) break;  // numerical stalemate; rates are already max-min
  }
  return rate;
}

/// One full churn scenario under the given solver mode. Returns the trace.
/// `check_oracle` additionally cross-checks every sample against
/// naive_max_min (done once, on the incremental run — the reference run
/// already self-verifies internally).
std::vector<std::string> run_churn(std::uint64_t seed, bool reference, bool check_oracle) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Engine engine;
  FluidModel model(engine, reference);

  const int n_res = 2 + static_cast<int>(rng.uniform_int(5));
  std::vector<FluidModel::ResourceId> res;
  std::vector<double> res_capacity;
  for (int j = 0; j < n_res; ++j) {
    const double c = rng.uniform(20.0, 200.0);
    res.push_back(model.add_resource("r" + std::to_string(j), c));
    res_capacity.push_back(c);
  }

  std::vector<std::string> trace;
  std::vector<ActInfo> acts;

  auto start_activity = [&] {
    ActInfo info;
    info.weight = rng.uniform(0.5, 4.0);
    if (rng.uniform() < 0.3) info.cap = rng.uniform(2.0, 60.0);
    const int uses = 1 + static_cast<int>(rng.uniform_int(3));
    for (int u = 0; u < uses; ++u) {
      const std::size_t j = rng.uniform_int(res.size());
      if (std::find(info.res.begin(), info.res.end(), j) == info.res.end()) {
        info.res.push_back(j);
      }
    }
    FluidModel::ActivitySpec spec;
    spec.work = rng.uniform(20.0, 600.0);
    spec.weight = info.weight;
    spec.cap = info.cap;
    for (std::size_t j : info.res) spec.resources.push_back(res[j]);
    const std::size_t idx = acts.size();
    spec.on_complete = [&trace, &engine, idx] {
      trace.push_back("finish " + std::to_string(idx) + " t=" + num(engine.now()));
    };
    info.id = model.start(std::move(spec));
    acts.push_back(std::move(info));
  };

  // Record every live activity's rate; optionally re-derive the global
  // allocation with the naive solver and compare.
  auto sample = [&] {
    std::vector<std::size_t> live;
    std::string line = "rates t=" + num(engine.now());
    for (std::size_t i = 0; i < acts.size(); ++i) {
      if (!model.active(acts[i].id)) continue;
      live.push_back(i);
      line += " a" + std::to_string(i) + "=" + num(model.rate(acts[i].id));
    }
    trace.push_back(std::move(line));
    if (!check_oracle || live.empty()) return;
    std::vector<double> weight, cap;
    std::vector<std::vector<std::size_t>> uses;
    for (std::size_t i : live) {
      weight.push_back(acts[i].weight);
      cap.push_back(acts[i].cap);
      uses.push_back(acts[i].res);
    }
    const std::vector<double> want = naive_max_min(res_capacity, weight, cap, uses);
    for (std::size_t k = 0; k < live.size(); ++k) {
      const double got = model.rate(acts[live[k]].id);
      EXPECT_NEAR(got, want[k], 1e-9 * std::max(1.0, std::abs(want[k])))
          << "activity " << live[k] << " at t=" << engine.now();
    }
  };

  for (int i = 0; i < 4; ++i) start_activity();

  const int n_ops = 10 + static_cast<int>(rng.uniform_int(21));
  for (int op = 0; op < n_ops; ++op) {
    const double at = rng.uniform(0.5, 40.0);
    const int kind = static_cast<int>(rng.uniform_int(5));
    const std::size_t pick_act = rng.uniform_int(64);  // resolved to a live one at fire time
    const std::size_t pick_res = rng.uniform_int(res.size());
    const double amount = rng.uniform(5.0, 150.0);
    engine.schedule_at(at, [&, kind, pick_act, pick_res, amount] {
      sample();
      // The target is whichever live activity pick_act lands on *now*; both
      // modes see identical liveness, so the choice replays identically.
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < acts.size(); ++i) {
        if (model.active(acts[i].id)) live.push_back(i);
      }
      switch (kind) {
        case 0: start_activity(); break;
        case 1:
          if (!live.empty()) {
            const std::size_t i = live[pick_act % live.size()];
            model.cancel(acts[i].id);
            trace.push_back("cancel " + std::to_string(i) + " t=" + num(engine.now()));
          }
          break;
        case 2:
          if (!live.empty()) {
            const std::size_t i = live[pick_act % live.size()];
            acts[i].cap = amount;
            model.set_cap(acts[i].id, amount);
          }
          break;
        case 3:
          if (!live.empty()) {
            const std::size_t i = live[pick_act % live.size()];
            model.add_work(acts[i].id, amount);
          }
          break;
        case 4:
          res_capacity[pick_res] = amount;
          model.set_capacity(res[pick_res], amount);
          break;
      }
      sample();
    });
  }

  engine.run();
  EXPECT_EQ(model.active_count(), 0u) << "seed " << seed << " left stalled activities";
  for (std::size_t j = 0; j < res.size(); ++j) {
    trace.push_back("busy r" + std::to_string(j) + "=" + num(model.busy_integral(res[j])));
  }
  trace.push_back("end t=" + num(engine.now()));
  return trace;
}

/// Observable result of one same-instant burst scenario.
struct BurstTrace {
  std::vector<std::string> rates;     ///< one line per instant, after its last mutation
  std::vector<std::string> finishes;  ///< completion order, activity index only
  std::vector<double> finish_times;
  std::vector<std::string> exact;  ///< everything above, bit-exact (times, busy integrals)
  double solves = 0.0;
};

/// Same-instant bursts: every operation lands on one of a few integer
/// instants, several per instant, and some completions start a follow-up
/// transfer on the same resources from their callback — the pattern that
/// coalescing batches. Rates are sampled once per instant, after its last
/// mutation. With `eager`, a query after every mutation forces a solve per
/// mutation, which is the schedule the model had before coalescing.
BurstTrace run_burst(std::uint64_t seed, bool reference, bool eager) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  Engine engine;
  FluidModel model(engine, reference);
  const int n_res = 2 + static_cast<int>(rng.uniform_int(4));
  std::vector<FluidModel::ResourceId> res;
  for (int j = 0; j < n_res; ++j) {
    res.push_back(model.add_resource("r" + std::to_string(j), rng.uniform(20.0, 200.0)));
  }
  BurstTrace out;
  std::vector<FluidModel::ActivityId> acts;
  auto after_mutation = [&] {
    if (eager) model.allocated(res[0]);
  };
  // Declared before use so a completion callback can start a follow-up.
  std::function<void(double, std::vector<FluidModel::ResourceId>, int)> start;
  start = [&](double work, std::vector<FluidModel::ResourceId> uses, int follow_ups) {
    const std::size_t idx = acts.size();
    FluidModel::ActivitySpec spec;
    spec.work = work;
    spec.weight = 1.0 + static_cast<double>(idx % 3);
    spec.resources = uses;
    spec.on_complete = [&, idx, work, uses, follow_ups] {
      out.finishes.push_back("finish " + std::to_string(idx));
      out.finish_times.push_back(engine.now());
      out.exact.push_back("finish " + std::to_string(idx) + " t=" + num(engine.now()));
      if (follow_ups > 0) start(work, uses, follow_ups - 1);
    };
    acts.push_back(model.start(std::move(spec)));
    after_mutation();
  };
  auto random_uses = [&] {
    std::vector<FluidModel::ResourceId> uses;
    const int n = 1 + static_cast<int>(rng.uniform_int(2));
    for (int u = 0; u < n; ++u) {
      const FluidModel::ResourceId r = res[rng.uniform_int(res.size())];
      if (std::find(uses.begin(), uses.end(), r) == uses.end()) uses.push_back(r);
    }
    return uses;
  };

  const int instants = 4 + static_cast<int>(rng.uniform_int(5));
  for (int t = 1; t <= instants; ++t) {
    const int ops = 2 + static_cast<int>(rng.uniform_int(6));
    for (int k = 0; k < ops; ++k) {
      const int kind = static_cast<int>(rng.uniform_int(4));
      const double work = rng.uniform(20.0, 400.0);
      const double amount = rng.uniform(5.0, 150.0);
      const std::size_t pick = rng.uniform_int(64);
      const std::vector<FluidModel::ResourceId> uses = random_uses();
      const int follow_ups = static_cast<int>(rng.uniform_int(3));
      engine.schedule_at(t, [&, kind, work, amount, pick, uses, follow_ups] {
        std::vector<std::size_t> live;
        for (std::size_t i = 0; i < acts.size(); ++i) {
          if (model.active(acts[i])) live.push_back(i);
        }
        if (kind == 0 || live.empty()) {
          start(work, uses, follow_ups);
        } else if (kind == 1) {
          model.cancel(acts[live[pick % live.size()]]);
          after_mutation();
        } else if (kind == 2) {
          model.set_cap(acts[live[pick % live.size()]], amount);
          after_mutation();
        } else {
          model.set_capacity(uses.front(), amount);
          after_mutation();
        }
      });
    }
    engine.schedule_at(t, [&, t] {
      std::string line = "rates t=" + std::to_string(t);
      for (std::size_t i = 0; i < acts.size(); ++i) {
        if (model.active(acts[i])) line += " a" + std::to_string(i) + "=" + num(model.rate(acts[i]));
      }
      out.rates.push_back(line);
      out.exact.push_back(line);
    });
  }
  engine.run();
  for (std::size_t j = 0; j < res.size(); ++j) {
    out.exact.push_back("busy r" + std::to_string(j) + "=" + num(model.busy_integral(res[j])));
  }
  out.exact.push_back("end t=" + num(engine.now()) + " live=" + std::to_string(model.active_count()));
  out.solves = engine.metrics().counter("sim.fluid.recomputes")->value();
  return out;
}

TEST(FluidChurnTest, SameInstantBurstsCoalesceWithoutChangingTheSimulation) {
  double coalesced_solves = 0.0, eager_solves = 0.0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const BurstTrace lazy = run_burst(seed, /*reference=*/false, /*eager=*/false);
    // Replays are bit-identical, and the oracle (which also coalesces, and
    // re-verifies every component after each solve round) agrees exactly.
    EXPECT_EQ(lazy.exact, run_burst(seed, false, false).exact);
    EXPECT_EQ(lazy.exact, run_burst(seed, /*reference=*/true, false).exact);
    // Solving after every mutation instead reaches the same rates bit for
    // bit: the max-min solution depends only on who is present. Finish
    // projections may round differently when a rate moves and moves back
    // within one instant, so completion times agree to rounding only.
    const BurstTrace eager = run_burst(seed, false, /*eager=*/true);
    EXPECT_EQ(lazy.rates, eager.rates);
    ASSERT_EQ(lazy.finishes, eager.finishes);
    for (std::size_t i = 0; i < lazy.finish_times.size(); ++i) {
      EXPECT_NEAR(lazy.finish_times[i], eager.finish_times[i],
                  1e-9 * std::max(1.0, eager.finish_times[i]));
    }
    EXPECT_LE(lazy.solves, eager.solves);
    coalesced_solves += lazy.solves;
    eager_solves += eager.solves;
  }
  // Bursts put several mutations on each instant, so batching must save a
  // real share of the solves, not just break even.
  EXPECT_LT(coalesced_solves, 0.8 * eager_solves);
}

/// Class-shaped churn: the pattern activity classes aggregate. Every
/// activity uses one of two shared sets plus its own private resource (a
/// per-slot resource, as a VM's vdisk), so many members share a key. The
/// schedule then moves activities between classes every way the model
/// knows: a second activity landing on a slot (its private resource turns
/// shared) and leaving again, set_capacity on private resources, set_cap on
/// members (pausing some), and activities that list a shared resource
/// twice. Weights are integers or, with `integer_weights` false, not.
struct ClassChurn {
  std::vector<std::string> trace;
  double members_solved = 0.0;  ///< sim.fluid.component_size sum
  double classes_solved = 0.0;  ///< sim.fluid.component_classes sum
};

ClassChurn run_class_churn(std::uint64_t seed, bool reference, bool check_oracle,
                           bool integer_weights) {
  Rng rng(seed * 0xd1342543de82ef95ULL + 3);
  Engine engine;
  FluidModel model(engine, reference);

  // Resources 0..1 are shared; 2.. are the per-slot private ones, with
  // capacities from a small set so that keys collide.
  const double private_caps[] = {40.0, 70.0};
  std::vector<FluidModel::ResourceId> res;
  std::vector<double> res_capacity;
  auto add = [&](const std::string& name, double c) {
    res.push_back(model.add_resource(name, c));
    res_capacity.push_back(c);
  };
  add("shared0", rng.uniform(150.0, 400.0));
  add("shared1", rng.uniform(150.0, 400.0));
  const int slots = 12 + static_cast<int>(rng.uniform_int(9));
  for (int k = 0; k < slots; ++k) add("slot" + std::to_string(k), private_caps[k % 2]);

  ClassChurn out;
  std::vector<ActInfo> acts;
  // Mostly one common weight/cap/shared set, so members pile into classes;
  // the rest split them.
  auto start_activity = [&](std::size_t slot) {
    ActInfo info;
    const bool common = rng.uniform() < 0.8;
    if (integer_weights) {
      info.weight = common ? 1.0 : 2.0;
    } else {
      info.weight = common ? 1.5 : (rng.uniform() < 0.5 ? 0.5 : 2.25);
    }
    if (rng.uniform() < 0.1) info.cap = 12.0;
    info.res = {0};
    if (rng.uniform() < 0.75) info.res.push_back(1);
    if (rng.uniform() < 0.05) info.res.push_back(0);  // duplicate entry
    info.res.push_back(2 + slot);
    FluidModel::ActivitySpec spec;
    spec.work = rng.uniform(50.0, 400.0);
    spec.weight = info.weight;
    spec.cap = info.cap;
    for (std::size_t j : info.res) spec.resources.push_back(res[j]);
    const std::size_t idx = acts.size();
    spec.on_complete = [&out, &engine, idx] {
      out.trace.push_back("finish " + std::to_string(idx) + " t=" + num(engine.now()));
    };
    info.id = model.start(std::move(spec));
    acts.push_back(std::move(info));
  };

  auto sample = [&] {
    std::vector<std::size_t> live;
    std::string line = "rates t=" + num(engine.now());
    for (std::size_t i = 0; i < acts.size(); ++i) {
      if (!model.active(acts[i].id)) continue;
      live.push_back(i);
      line += " a" + std::to_string(i) + "=" + num(model.rate(acts[i].id));
    }
    out.trace.push_back(std::move(line));
    if (!check_oracle || live.empty()) return;
    std::vector<double> weight, cap;
    std::vector<std::vector<std::size_t>> uses;
    for (std::size_t i : live) {
      weight.push_back(acts[i].weight);
      cap.push_back(acts[i].cap);
      uses.push_back(acts[i].res);
    }
    const std::vector<double> want = naive_max_min(res_capacity, weight, cap, uses);
    for (std::size_t k = 0; k < live.size(); ++k) {
      const double got = model.rate(acts[live[k]].id);
      EXPECT_NEAR(got, want[k], 1e-9 * std::max(1.0, std::abs(want[k])))
          << "activity " << live[k] << " at t=" << engine.now();
    }
  };

  // One activity per slot to begin with: every slot resource is private.
  for (int k = 0; k < slots; ++k) start_activity(static_cast<std::size_t>(k));

  const int n_ops = 20 + static_cast<int>(rng.uniform_int(21));
  for (int op = 0; op < n_ops; ++op) {
    const double at = rng.uniform(0.2, 30.0);
    const int kind = static_cast<int>(rng.uniform_int(6));
    const std::size_t pick = rng.uniform_int(64);
    const std::size_t slot = rng.uniform_int(static_cast<std::size_t>(slots));
    const double amount = rng.uniform(5.0, 60.0);
    engine.schedule_at(at, [&, kind, pick, slot, amount] {
      sample();
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < acts.size(); ++i) {
        if (model.active(acts[i].id)) live.push_back(i);
      }
      const std::size_t target = live.empty() ? 0 : live[pick % live.size()];
      switch (kind) {
        case 0:  // a second user on the slot: its resource turns shared
          start_activity(slot);
          break;
        case 1:  // a slot may fall back to one user: private again
          if (!live.empty()) {
            model.cancel(acts[target].id);
            out.trace.push_back("cancel " + std::to_string(target));
          }
          break;
        case 2: {  // a private capacity moves the member to another class
          const double c = private_caps[pick % 2] + (pick % 3 == 0 ? amount : 0.0);
          res_capacity[2 + slot] = c;
          model.set_capacity(res[2 + slot], c);
          break;
        }
        case 3:  // pause, resume, or re-cap a member
          if (!live.empty()) {
            const double caps[] = {0.0, kInf, 12.0, amount};
            acts[target].cap = caps[pick % 4];
            model.set_cap(acts[target].id, acts[target].cap);
          }
          break;
        case 4:
          if (!live.empty()) model.add_work(acts[target].id, amount);
          break;
        case 5:  // shared capacity: every class on it re-solves
          res_capacity[pick % 2] = 100.0 + 4.0 * amount;
          model.set_capacity(res[pick % 2], res_capacity[pick % 2]);
          break;
      }
      sample();
    });
  }
  // Resume anything still paused, so the run drains.
  engine.schedule_at(31.0, [&] {
    for (ActInfo& info : acts) {
      if (model.active(info.id) && !(info.cap > 0.0)) {
        info.cap = kInf;
        model.set_cap(info.id, kInf);
      }
    }
    sample();
  });

  engine.run();
  EXPECT_EQ(model.active_count(), 0u) << "seed " << seed << " left stalled activities";
  for (std::size_t j = 0; j < res.size(); ++j) {
    out.trace.push_back("busy r" + std::to_string(j) + "=" + num(model.busy_integral(res[j])));
  }
  out.trace.push_back("end t=" + num(engine.now()));
  out.members_solved = engine.metrics().find_histogram("sim.fluid.component_size")->sum();
  out.classes_solved = engine.metrics().find_histogram("sim.fluid.component_classes")->sum();
  return out;
}

TEST(FluidChurnTest, ClassShapedChurnMatchesReferenceAndTextbook) {
  double members = 0.0, classes = 0.0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    for (bool integer_weights : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (integer_weights ? " integer" : " fractional"));
      const ClassChurn inc = run_class_churn(seed, /*reference=*/false,
                                             /*check_oracle=*/seed % 3 == 0, integer_weights);
      // The reference run also re-derives every class from raw state after
      // each solve round and aborts on a stale one.
      const ClassChurn ref = run_class_churn(seed, /*reference=*/true,
                                             /*check_oracle=*/false, integer_weights);
      ASSERT_EQ(inc.trace.size(), ref.trace.size());
      for (std::size_t i = 0; i < inc.trace.size(); ++i) {
        ASSERT_EQ(inc.trace[i], ref.trace[i]) << "trace line " << i;
      }
      EXPECT_EQ(inc.members_solved, ref.members_solved);
      members += inc.members_solved;
      classes += inc.classes_solved;
    }
  }
  // Classes really form: solves visit markedly fewer classes than members.
  EXPECT_LT(classes, 0.8 * members) << classes << " classes for " << members << " members";
}

TEST(FluidChurnTest, IncrementalMatchesReferenceExactlyOver200Seeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> inc = run_churn(seed, /*reference=*/false,
                                                   /*check_oracle=*/seed % 10 == 0);
    const std::vector<std::string> ref = run_churn(seed, /*reference=*/true,
                                                   /*check_oracle=*/false);
    ASSERT_EQ(inc.size(), ref.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      ASSERT_EQ(inc[i], ref[i]) << "trace line " << i;
    }
  }
}

}  // namespace
}  // namespace vhadoop::sim
