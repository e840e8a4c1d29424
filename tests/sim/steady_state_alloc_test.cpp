// Locks the simulator core's zero-allocation steady state: once warmed up, a
// schedule -> fire cycle of the engine and a start -> finish cycle of the
// fluid model reuse their slots and buffers and allocate nothing.
//
// Allocations are counted by replacing the global operator new, which is
// program-wide; this suite is therefore an executable of its own. Only the
// engine and fluid calls are counted, never the test's own set-up.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fluid.hpp"

namespace {

std::size_t g_allocations = 0;
bool g_counting = false;

void* counted_malloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that can be reached without over-aligned types, so
// that each allocation and its release go through malloc and free alike
// (a sanitizer runtime would otherwise pair its own new with this free).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace vhadoop::sim {
namespace {

/// Global allocations made while `fn` runs.
template <class Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

constexpr int kWarmUpCycles = 20;
constexpr int kCountedCycles = 200;

TEST(SteadyStateAllocations, EngineRearmAndFireCycleAllocatesNothing) {
  // The fluid model's pattern: a fixed population of timers, each cancelled
  // and re-armed as rates change, a few of them firing.
  Engine engine;
  std::vector<Engine::EventId> timers(32);
  int fired = 0;
  const auto cycle = [&] {
    for (std::size_t i = 0; i < timers.size(); ++i) {
      engine.cancel(timers[i]);
      timers[i] = engine.schedule_in(1.0 + 0.5 * static_cast<double>(i), [&fired] { ++fired; });
    }
    engine.step();
    engine.step();
  };
  for (int i = 0; i < kWarmUpCycles; ++i) cycle();
  const std::size_t allocations = allocations_in([&] {
    for (int i = 0; i < kCountedCycles; ++i) cycle();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 2 * (kWarmUpCycles + kCountedCycles));
  EXPECT_GT(engine.metrics().counter("sim.queue_compactions")->value(), 0.0);
}

TEST(SteadyStateAllocations, FluidStartFinishCycleAllocatesNothing) {
  // The oracle allocates on every solve round; pin it off whatever the
  // environment says.
  Engine engine;
  FluidModel model(engine, /*reference=*/false);
  const FluidModel::ResourceId link = model.add_resource("link", 100.0);
  // Two long activities keep the shared class alive, so each short one
  // joins an existing class instead of creating one.
  model.start({.work = 1e15, .resources = {link}});
  model.start({.work = 1e15, .resources = {link}});
  int finished = 0;
  std::size_t allocations = 0;
  for (int i = 0; i < kWarmUpCycles + kCountedCycles; ++i) {
    FluidModel::ActivitySpec spec{.work = 10.0,
                                  .resources = {link},
                                  .on_complete = [&finished] { ++finished; }};
    const int before = finished;
    const std::size_t n = allocations_in([&] {
      model.start(std::move(spec));
      while (finished == before && engine.step()) {
      }
    });
    if (i >= kWarmUpCycles) allocations += n;
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(finished, kWarmUpCycles + kCountedCycles);
  EXPECT_EQ(model.active_count(), 2u);
}

}  // namespace
}  // namespace vhadoop::sim
