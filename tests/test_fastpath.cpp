// Tests for the hot path: O(1) region resolution (shadow page map +
// per-thread cache) checked against a linear-scan oracle, and thread-local
// write staging. Whole-registry determinism of the staged path is pinned by
// test_registry_golden; the tests here pin the concurrency and boundary
// properties of each mechanism.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "api/predator.hpp"

namespace pred {
namespace {

constexpr AccessType W = AccessType::kWrite;

alignas(64) char g_page_a[4096];
alignas(64) char g_page_b[4096];

RuntimeConfig small_config() {
  RuntimeConfig cfg;
  cfg.tracking_threshold = 4;
  cfg.prediction_threshold = 8;
  cfg.sample_window = 4;
  cfg.sample_interval = 4;
  return cfg;
}

// --- concurrent registration: the seed read-then-store slot claim lost
// --- regions under contention; the fetch_add claim must not.

TEST(FastPathRegistration, ConcurrentRegisterRegionClaimsDistinctSlots) {
  constexpr std::size_t kThreads = 8;
  static char buffers[kThreads][4096];
  Runtime rt(small_config());
  std::atomic<int> ready{0};
  std::vector<ShadowSpace*> out(kThreads, nullptr);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kThreads)) {
      }
      out[t] = rt.register_region(reinterpret_cast<Address>(buffers[t]),
                                  sizeof(buffers[t]));
    });
  }
  for (auto& th : ts) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(out[t], nullptr);
    // Every region must survive registration and resolve by address.
    EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(buffers[t]) + 128),
              out[t]);
    for (std::size_t u = t + 1; u < kThreads; ++u) {
      EXPECT_NE(out[t], out[u]) << "two registrations shared a slot";
    }
  }
}

// --- page-map fallback: two regions inside one 4 KiB page must both
// --- resolve even though the page entry can only name one of them.

TEST(FastPathRegionMap, TwoRegionsOnOnePageBothResolve) {
  alignas(4096) static char page[4096];
  Runtime rt(small_config());
  ShadowSpace* lo = rt.register_region(reinterpret_cast<Address>(page), 1024);
  ShadowSpace* hi =
      rt.register_region(reinterpret_cast<Address>(page) + 2048, 1024);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 64), lo);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 2048 + 64), hi);
  // The gap between the regions is untracked.
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 1536), nullptr);
}

// find_region (thread cache, then page map, then the slow scan for a page
// shared by two regions) must agree with a plain linear scan over the
// registered regions for any address: inside, between and around regions,
// including regions that start or end in the middle of a page another
// region also occupies.
TEST(FastPathRegionMap, LookupMatchesLinearScanOracle) {
  constexpr std::size_t kPage = 4096;
  alignas(kPage) static char arena[8 * kPage];
  const Address base = reinterpret_cast<Address>(arena);
  Runtime rt(small_config());
  const std::pair<std::size_t, std::size_t> extents[] = {
      {64, kPage + 128},                 // ends mid-page 1
      {kPage + 256, 2 * kPage - 192},    // starts mid-page 1, ends mid-page 3
      {3 * kPage + 128, 384},            // shares page 3 with its neighbors
      {3 * kPage + 1024, 2 * kPage},     // starts mid-page 3, ends mid-page 5
      {6 * kPage, kPage / 2},            // page-aligned, ends mid-page 6
  };
  for (const auto& [off, len] : extents) rt.register_region(base + off, len);

  auto linear_scan = [&rt](Address a) {
    const ShadowSpace* hit = nullptr;
    rt.for_each_region([&](const ShadowSpace& r) {
      if (hit == nullptr && r.contains(a)) hit = &r;
    });
    return hit;
  };
  std::mt19937_64 rng(12);
  std::uniform_int_distribution<Address> pick(base - kPage, base + 9 * kPage);
  std::size_t tracked = 0;
  for (int i = 0; i < 20000; ++i) {
    // Alternate fresh random addresses with a neighbor of the previous one,
    // so the per-thread cache both hits and misses.
    const Address a = pick(rng);
    for (const Address probe : {a, a + 64}) {
      const ShadowSpace* expected = linear_scan(probe);
      ASSERT_EQ(rt.find_region(probe), expected) << "offset " << probe - base;
      tracked += expected != nullptr;
    }
  }
  EXPECT_GT(tracked, 10000u);  // the sample is not mostly misses
}

TEST(FastPathRegionMap, MissIsDefinitelyUntracked) {
  Runtime rt(small_config());
  rt.register_region(reinterpret_cast<Address>(g_page_a), sizeof(g_page_a));
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(g_page_b)), nullptr);
  // And accessing it is a no-op, not a crash.
  rt.handle_access(reinterpret_cast<Address>(g_page_b), W, 0);
}

TEST(FastPathRegionMap, ThreadCacheTracksTheCurrentRuntime) {
  // Alternating lookups against two runtimes through one thread's cache
  // must never leak a region across runtimes.
  Runtime rt1(small_config());
  Runtime rt2(small_config());
  ShadowSpace* r1 =
      rt1.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  ShadowSpace* r2 =
      rt2.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rt1.find_region(reinterpret_cast<Address>(g_page_a) + 8), r1);
    EXPECT_EQ(rt2.find_region(reinterpret_cast<Address>(g_page_a) + 8), r2);
  }
}

// --- staged counters: multi-threaded totals drain exactly.

TEST(FastPathStaging, MultiThreadedDrainLosesNoWrites) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kWritesPerThread = 10'000;
  RuntimeConfig cfg;
  cfg.tracking_threshold = 1'000'000;  // never escalate: pure counting
  cfg.prediction_threshold = 1'000'000;
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime = cfg;
  Session session(o);
  // 8 lines, all threads hammer all of them (staged slots collide and
  // evict constantly).
  auto* data = static_cast<long*>(
      session.alloc(8 * 64, session.intern_frames({"fastpath.c:1"})));
  ASSERT_NE(data, nullptr);
  std::vector<std::thread> ts;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ScopedThread guard(session, t);
      for (std::uint64_t i = 0; i < kWritesPerThread; ++i) {
        session.record(&data[((i + t) % 8) * 8], W, t, 8);
      }
    });  // unbind drains the thread's staged counters
  }
  for (auto& th : ts) th.join();
  auto& shadow = session.allocator().shadow();
  std::uint64_t total = 0;
  const std::size_t first =
      shadow.line_index(reinterpret_cast<Address>(data));
  for (std::size_t i = 0; i < 8; ++i) {
    total += shadow.writes_count(first + i);
  }
  EXPECT_EQ(total, kThreads * kWritesPerThread);
}

TEST(FastPathStaging, EscalationHappensOnTheCrossingAccess) {
  // Single-writer stream: the staged path must escalate on exactly the
  // same access as the seed path — the tracking_threshold-th write.
  Runtime rt(small_config());
  auto* region =
      rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  const Address a = reinterpret_cast<Address>(g_page_a) + 640;
  const std::size_t idx = region->line_index(a);
  for (std::uint64_t i = 1; i < small_config().tracking_threshold; ++i) {
    rt.handle_access(a, W, 0);
    EXPECT_EQ(region->tracker(idx), nullptr) << "escalated early at " << i;
  }
  rt.handle_access(a, W, 0);
  EXPECT_NE(region->tracker(idx), nullptr) << "missed the crossing access";
}

TEST(FastPathStaging, SessionFlushPublishesStagedCounts) {
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 1'000'000;
  o.runtime.prediction_threshold = 1'000'000;
  Session session(o);
  auto* data = static_cast<long*>(
      session.alloc(64, session.intern_frames({"fastpath.c:2"})));
  auto& shadow = session.allocator().shadow();
  const std::size_t idx = shadow.line_index(reinterpret_cast<Address>(data));
  for (int i = 0; i < 7; ++i) session.record(&data[0], W, 0, 8);
  session.flush();
  EXPECT_EQ(shadow.writes_count(idx), 7u);
}

TEST(FastPathStaging, RuntimeDestructionInvalidatesStagedSlots) {
  // Stage writes into a runtime, destroy it without draining, then stage
  // into a fresh runtime: the stale slots must be dropped, not applied.
  {
    Runtime rt(small_config());
    rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
    rt.handle_access(reinterpret_cast<Address>(g_page_a), W, 0);
  }  // dies with one staged write outstanding
  Runtime rt2(small_config());
  auto* region =
      rt2.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  rt2.handle_access(reinterpret_cast<Address>(g_page_a), W, 0);
  flush_staged_writes();
  EXPECT_EQ(region->writes_count(0), 1u);
}

}  // namespace
}  // namespace pred
