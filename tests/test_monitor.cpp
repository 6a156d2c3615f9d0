// Live-monitor tests: the SPSC event ring's ordering/overflow/accounting
// contracts, snapshot-vs-final-report agreement on a deterministic
// workload, the snapshot flush ordering guarantee, drop-counter telemetry,
// and race-free start/stop/snapshot under concurrent mutators (the
// test_stress.cpp discipline: invariants, not exact counts).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "monitor/event_ring.hpp"

namespace pred {
namespace {

constexpr auto W = AccessType::kWrite;

MonitorEvent sample_event(std::uint64_t i) {
  return MonitorEvent{/*addr=*/0x1000 + 64 * i, /*arg=*/i,
                      /*tid=*/static_cast<ThreadId>(i % 7),
                      MonitorEventType::kSampleHit};
}

TEST(EventRing, DeliversInOrderWithIntactPayloads) {
  EventRing ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(sample_event(i));

  std::vector<MonitorEvent> got;
  ring.drain([&](const MonitorEvent& ev) { got.push_back(ev); });

  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].addr, 0x1000 + 64 * i);
    EXPECT_EQ(got[i].arg, i);
    EXPECT_EQ(got[i].tid, static_cast<ThreadId>(i % 7));
    EXPECT_EQ(got[i].type, MonitorEventType::kSampleHit);
  }
  EXPECT_EQ(ring.produced(), 10u);
  EXPECT_EQ(ring.consumed(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(EventRing, OverflowDropsOldestAndCountsExactly) {
  EventRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) ring.push(sample_event(i));

  // No consumer ran: the 12 oldest were overwritten, each counted.
  EXPECT_EQ(ring.produced(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  // What survives is exactly the newest capacity-many events, in order
  // and uncorrupted.
  std::vector<MonitorEvent> got;
  ring.drain([&](const MonitorEvent& ev) { got.push_back(ev); });
  ASSERT_EQ(got.size(), 8u);
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    const std::uint64_t expect = 12 + i;
    EXPECT_EQ(got[i].arg, expect);
    EXPECT_EQ(got[i].addr, 0x1000 + 64 * expect);
  }
  EXPECT_EQ(ring.consumed() + ring.dropped(), ring.produced());
}

TEST(EventRing, ConcurrentProducerConsumerKeepsAccountingSane) {
  EventRing ring(64);
  constexpr std::uint64_t kEvents = 200'000;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) ring.push(sample_event(i));
  });

  // Consume concurrently; every delivered event must be intact (fields
  // consistent with one specific i) and delivered in strictly increasing
  // order — a torn read would break both.
  std::uint64_t last = 0;
  bool first = true;
  std::uint64_t delivered = 0;
  while (ring.consumed() + ring.dropped() < kEvents) {
    ring.drain([&](const MonitorEvent& ev) {
      ASSERT_EQ(ev.addr, 0x1000 + 64 * ev.arg);
      ASSERT_EQ(ev.tid, static_cast<ThreadId>(ev.arg % 7));
      if (!first) ASSERT_GT(ev.arg, last);
      last = ev.arg;
      first = false;
      ++delivered;
    });
  }
  producer.join();
  ring.drain([&](const MonitorEvent& ev) {
    ASSERT_GT(ev.arg, last);
    last = ev.arg;
    ++delivered;
  });

  EXPECT_EQ(ring.produced(), kEvents);
  EXPECT_EQ(ring.consumed(), delivered);
  // dropped() may overcount events salvaged mid-overwrite, never under.
  EXPECT_GE(ring.consumed() + ring.dropped(), ring.produced());
  EXPECT_LE(ring.consumed(), ring.produced());
}

// Deterministic sessions: every access sampled, no prediction, a ring big
// enough that nothing is shed, and an aggregator interval long enough that
// only snapshot() drains — so snapshot contents are exactly reproducible.
SessionOptions deterministic_options() {
  SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.prediction_threshold = 1 << 30;
  o.runtime.report_invalidation_threshold = 1;
  o.runtime.prediction_enabled = false;
  o.runtime.set_sampling_rate(1.0);
  o.monitor.ring_capacity = 1 << 16;
  o.monitor.aggregation_interval_ms = 10'000;
  return o;
}

TEST(Monitor, SnapshotMatchesFinalReport) {
  Session session(deterministic_options());
  session.monitor().start();

  // Two logical threads ping-pong writes on one line: textbook false
  // sharing, every post-escalation write sampled, every sampled write after
  // the first an invalidation. Emission all happens from this one OS
  // thread, so the event stream is lossless and ordered.
  auto* obj = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:ping_pong"})));
  for (int i = 0; i < 200; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }

  const MonitorSnapshot mid = session.monitor().snapshot();
  for (int i = 200; i < 400; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }
  const MonitorSnapshot fin = session.monitor().snapshot();
  session.monitor().stop();

  ASSERT_EQ(mid.events_dropped, 0u);
  ASSERT_EQ(fin.events_dropped, 0u);
  ASSERT_EQ(fin.top_lines.size(), 1u);

  // The snapshot's per-line telemetry must agree with the authoritative
  // tracker state for every line escalated at snapshot time...
  const ShadowSpace* region =
      session.runtime().find_region(reinterpret_cast<Address>(obj));
  ASSERT_NE(region, nullptr);
  const CacheTracker* tracker = region->tracker(
      region->line_index(reinterpret_cast<Address>(obj)));
  ASSERT_NE(tracker, nullptr);
  const MonitorSnapshot::LineEntry& line = fin.top_lines[0];
  EXPECT_TRUE(line.escalated);
  EXPECT_EQ(line.line_start,
            region->line_start(
                region->line_index(reinterpret_cast<Address>(obj))));
  EXPECT_EQ(line.invalidations, tracker->invalidations());
  EXPECT_EQ(line.samples, tracker->sampled_accesses());
  EXPECT_EQ(line.sample_writes, tracker->sampled_writes());

  // ...and with the final report built from that state.
  const Report report = session.report();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.total_invalidations, fin.invalidations);
  ASSERT_EQ(report.findings[0].lines.size(), 1u);
  EXPECT_EQ(report.findings[0].lines[0].invalidations, line.invalidations);
  EXPECT_EQ(report.findings[0].lines[0].sampled_accesses, line.samples);

  // The mid-run snapshot is a prefix: counts only grow.
  ASSERT_EQ(mid.top_lines.size(), 1u);
  EXPECT_EQ(mid.top_lines[0].line_start, line.line_start);
  EXPECT_LT(mid.top_lines[0].invalidations, line.invalidations);
  EXPECT_LT(mid.top_lines[0].samples, line.samples);
  EXPECT_LT(mid.sequence, fin.sequence);

  // Attribution resolved to the allocation callsite.
  EXPECT_TRUE(line.attributed);
  EXPECT_EQ(line.label, "monitor.c:ping_pong");
}

TEST(Monitor, SnapshotFlushesStagedCounters) {
  // The satellite contract: snapshot() publishes the calling thread's
  // staged write counters exactly like report() does.
  SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime.tracking_threshold = 1 << 20;  // never escalate: stay staged
  o.runtime.prediction_threshold = 1 << 30;
  Session session(o);
  session.monitor().start();

  auto* obj = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:staged"})));
  const ShadowSpace* region =
      session.runtime().find_region(reinterpret_cast<Address>(obj));
  ASSERT_NE(region, nullptr);
  const std::size_t line =
      region->line_index(reinterpret_cast<Address>(obj));

  {
    ScopedThread guard(session, 0);
    for (int i = 0; i < 3; ++i) session.record(obj, W, 0, 8);
    // Still staged thread-locally: the shared counter has not moved.
    EXPECT_EQ(region->writes_count(line), 0u);
    (void)session.monitor().snapshot();
    EXPECT_EQ(region->writes_count(line), 3u);
  }
  session.monitor().stop();
}

TEST(Monitor, DropCountersSurfacedInSnapshot) {
  SessionOptions o = deterministic_options();
  o.monitor.ring_capacity = 8;  // tiny ring, sleepy aggregator: must shed
  Session session(o);
  session.monitor().start();

  auto* obj = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:flood"})));
  for (int i = 0; i < 5'000; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }
  const MonitorSnapshot snap = session.monitor().snapshot();
  session.monitor().stop();

  EXPECT_GT(snap.events_dropped, 0u);
  ASSERT_EQ(snap.rings.size(), 1u);
  // Producer and consumer are quiescent here, so accounting is exact.
  EXPECT_EQ(snap.rings[0].produced,
            snap.rings[0].consumed + snap.rings[0].dropped);
  // Shedding loses telemetry, never integrity: what was aggregated is
  // still a coherent view of one hot line.
  ASSERT_GE(snap.top_lines.size(), 1u);
  EXPECT_TRUE(snap.top_lines[0].escalated);
  EXPECT_GT(snap.top_lines[0].samples, 0u);
  EXPECT_EQ(snap.events_seen + snap.events_dropped,
            snap.rings[0].produced);
}

// Lifecycle churn is exercised even with emission compiled out (start/stop
// and snapshots must stay safe either way); the event-count assertions are
// what need the emitting build.
TEST(Monitor, StartStopSnapshotRaceFreeUnderMutators) {
  SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.prediction_threshold = 64;
  o.runtime.report_invalidation_threshold = 1;
  o.runtime.set_sampling_rate(1.0);   // every tracked access emits
  o.monitor.ring_capacity = 256;      // small: force shedding under load
  o.monitor.aggregation_interval_ms = 1;
  Session session(o);

  constexpr int kThreads = 4;
  auto* shared = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:shared"})));
  for (int i = 0; i < 8; ++i) shared[i] = 0;

  // Mutators run until the lifecycle churn below is done (a fixed step
  // count can finish before the monitor first starts on a small host).
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&, t] {
      ScopedThread guard(session, static_cast<ThreadId>(t));
      for (std::uint64_t step = 0; !stop.load(std::memory_order_acquire);
           ++step) {
        session.record(&shared[t], W, static_cast<ThreadId>(t), 8);
        shared[t] += 1;
        if ((step & 1023) == 0) std::this_thread::yield();
      }
    });
  }

  // Main thread churns the monitor lifecycle while mutators emit into it:
  // restarts, concurrent snapshots, and stop-while-hot must all be safe.
  std::uint64_t last_samples = 0;
  for (int round = 0; round < 30; ++round) {
    session.monitor().start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const MonitorSnapshot snap = session.monitor().snapshot();
    EXPECT_GE(snap.samples, last_samples);  // aggregate only grows
    last_samples = snap.samples;
    if (round % 3 == 0) session.monitor().stop();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : mutators) th.join();
  session.monitor().stop();

  const MonitorSnapshot fin = session.monitor().snapshot();
  EXPECT_GT(fin.samples, 0u);
  EXPECT_TRUE(!fin.top_lines.empty());
  for (const auto& ring : fin.rings) {
    EXPECT_GE(ring.produced, ring.consumed);
    EXPECT_GE(ring.consumed + ring.dropped, ring.produced);
  }
  // The monitor never perturbs the authoritative detector state: the
  // standard report still sees the contended line.
  const Report report = session.report();
  EXPECT_GT(report.total_invalidations, 0u);
}

}  // namespace
}  // namespace pred
