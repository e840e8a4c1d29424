#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "virt/cloud.hpp"

namespace vhadoop::virt {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest()
      : model(engine),
        fabric(engine, model, net::NetConfig{}),
        cloud(engine, model, fabric, VirtConfig{}) {
    h = cloud.add_host("h");
    vm = cloud.create_vm("vm", h, {.vcpus = 1, .memory_mb = 1024});
    cloud.boot_vm(vm, nullptr);
    engine.run();
  }

  double timed_read(double bytes, const std::string& key) {
    const double t0 = engine.now();
    double done = -1.0;
    cloud.disk_read(vm, bytes, [&] { done = engine.now(); }, 1.0, key);
    engine.run();
    return done - t0;
  }

  sim::Engine engine;
  sim::FluidModel model{engine};
  net::Fabric fabric;
  Cloud cloud;
  HostId h{};
  VmId vm{};
};

TEST_F(PageCacheTest, RereadIsMemorySpeed) {
  const double cold = timed_read(64 * sim::kMiB, "blk");
  const double warm = timed_read(64 * sim::kMiB, "blk");
  EXPECT_GT(cold, warm * 10);
}

TEST_F(PageCacheTest, WritePopulatesCache) {
  cloud.disk_write(vm, 32 * sim::kMiB, nullptr, 1.0, "wkey");
  engine.run();
  EXPECT_TRUE(cloud.cached(vm, "wkey"));
  const double warm = timed_read(32 * sim::kMiB, "wkey");
  EXPECT_LT(warm, 0.1);
}

TEST_F(PageCacheTest, UnkeyedIoNeverCached) {
  cloud.disk_write(vm, 32 * sim::kMiB, nullptr);
  engine.run();
  const double t1 = timed_read(32 * sim::kMiB, "");
  const double t2 = timed_read(32 * sim::kMiB, "");
  EXPECT_NEAR(t1, t2, t1 * 0.05);
}

TEST_F(PageCacheTest, LruEvictionUnderPressure) {
  // Cache is 300 MB: writing five 100 MB keys evicts the oldest ones.
  for (int i = 0; i < 5; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    cloud.disk_write(vm, 100 * sim::kMiB, nullptr, 1.0, key);
    engine.run();
  }
  EXPECT_FALSE(cloud.cached(vm, "k0"));
  EXPECT_FALSE(cloud.cached(vm, "k1"));
  EXPECT_TRUE(cloud.cached(vm, "k4"));
}

TEST_F(PageCacheTest, TouchRefreshesLruOrder) {
  // Cache is 300 MB; three 120 MB entries cannot all fit.
  cloud.disk_write(vm, 120 * sim::kMiB, nullptr, 1.0, "a");
  cloud.disk_write(vm, 120 * sim::kMiB, nullptr, 1.0, "b");
  engine.run();
  // Re-read "a" so it becomes most recent, then push a third entry.
  timed_read(120 * sim::kMiB, "a");
  cloud.disk_write(vm, 120 * sim::kMiB, nullptr, 1.0, "c");
  engine.run();
  EXPECT_TRUE(cloud.cached(vm, "a"));
  EXPECT_FALSE(cloud.cached(vm, "b"));
  EXPECT_TRUE(cloud.cached(vm, "c"));
}

TEST_F(PageCacheTest, OversizedEntryBypassesCache) {
  cloud.disk_write(vm, 400 * sim::kMiB, nullptr, 1.0, "huge");
  engine.run();
  EXPECT_FALSE(cloud.cached(vm, "huge"));
}

TEST_F(PageCacheTest, ScratchWriteIsMemorySpeedWhenFitting) {
  double t0 = engine.now(), small = -1.0;
  cloud.scratch_write(vm, 64 * sim::kMiB, [&] { small = engine.now() - t0; }, "spill");
  engine.run();
  EXPECT_LT(small, 0.1);
  EXPECT_TRUE(cloud.cached(vm, "spill"));

  // Beyond the cache: forced writeback at NFS speed.
  t0 = engine.now();
  double big = -1.0;
  cloud.scratch_write(vm, 400 * sim::kMiB, [&] { big = engine.now() - t0; }, "bigspill");
  engine.run();
  EXPECT_GT(big, 3.0);
}

TEST_F(PageCacheTest, CachesArePerVm) {
  VmId other = cloud.create_vm("other", h, {.vcpus = 1, .memory_mb = 1024});
  cloud.boot_vm(other, nullptr);
  engine.run();
  cloud.disk_write(vm, 10 * sim::kMiB, nullptr, 1.0, "mine");
  engine.run();
  EXPECT_TRUE(cloud.cached(vm, "mine"));
  EXPECT_FALSE(cloud.cached(other, "mine"));
}

TEST_F(PageCacheTest, CacheInsertMarksResident) {
  EXPECT_FALSE(cloud.cached(vm, "net-data"));
  cloud.cache_insert(vm, "net-data", 8 * sim::kMiB);
  EXPECT_TRUE(cloud.cached(vm, "net-data"));
}

}  // namespace
}  // namespace vhadoop::virt
