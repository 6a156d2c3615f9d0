// Tests for the cache simulator substrate: MESI-lite state transitions,
// invalidation counting, the cost model, and the deterministic round-robin
// trace executor — including the key end-to-end property that false sharing
// costs more modeled time than a padded layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>

#include "api/predator.hpp"
#include "common/prng.hpp"
#include "reference/flat_cache_sim.hpp"
#include "reference/scan_executor.hpp"
#include "sim/cache_sim.hpp"
#include "sim/executor.hpp"
#include "sim/fiber_executor.hpp"
#include "sim/numa_cache_sim.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;

TEST(CacheSim, ColdReadThenHits) {
  CacheSim sim;
  sim.on_access(0, 64, R);
  EXPECT_EQ(sim.stats().cold_misses, 1u);
  sim.on_access(0, 64, R);
  sim.on_access(0, 96, R);  // same line
  EXPECT_EQ(sim.stats().hits, 2u);
}

TEST(CacheSim, WriteHitAfterOwnership) {
  CacheSim sim;
  sim.on_access(0, 64, W);
  EXPECT_EQ(sim.stats().cold_misses, 1u);
  sim.on_access(0, 64, W);
  EXPECT_EQ(sim.stats().hits, 1u);
}

TEST(CacheSim, WriteInvalidatesRemoteReaders) {
  CacheSim sim;
  sim.on_access(0, 64, R);
  sim.on_access(1, 64, R);
  sim.on_access(2, 64, W);
  EXPECT_EQ(sim.stats().invalidations_sent, 2u);
}

TEST(CacheSim, ReadOfRemoteDirtyIsCoherenceMiss) {
  CacheSim sim;
  sim.on_access(0, 64, W);
  sim.on_access(1, 64, R);
  EXPECT_EQ(sim.stats().coherence_misses, 1u);
  // Both now hold it clean; the old owner can read without a miss.
  sim.on_access(0, 64, R);
  EXPECT_EQ(sim.stats().hits, 1u);
}

TEST(CacheSim, WritePingPongCountsCoherenceMissesEachTime) {
  CacheSim sim;
  sim.on_access(0, 64, W);
  for (int i = 1; i <= 100; ++i) sim.on_access(i % 2, 64, W);
  EXPECT_EQ(sim.stats().coherence_misses, 100u);
  EXPECT_EQ(sim.stats().invalidations_sent, 100u);
}

TEST(CacheSim, DistinctLinesDoNotInterfere) {
  CacheSim sim;
  sim.on_access(0, 0, W);
  sim.on_access(1, 64, W);
  sim.on_access(0, 0, W);
  sim.on_access(1, 64, W);
  EXPECT_EQ(sim.stats().coherence_misses, 0u);
  EXPECT_EQ(sim.stats().invalidations_sent, 0u);
  EXPECT_EQ(sim.stats().hits, 2u);
}

TEST(CacheSim, ReadOnlySharingIsCheap) {
  CacheSim sim;
  for (int i = 0; i < 100; ++i) {
    sim.on_access(static_cast<std::uint32_t>(i % 4), 128, R);
  }
  EXPECT_EQ(sim.stats().coherence_misses, 0u);
  EXPECT_EQ(sim.stats().invalidations_sent, 0u);
  EXPECT_EQ(sim.stats().cold_misses + sim.stats().shared_fetches, 4u);
}

TEST(CacheSim, CyclesAccrueToIssuingCore) {
  CacheSim sim;
  sim.on_access(3, 64, W);
  EXPECT_GT(sim.core_cycles(3), 0u);
  EXPECT_EQ(sim.core_cycles(0), 0u);
  EXPECT_EQ(sim.max_core_cycles(), sim.core_cycles(3));
}

TEST(CacheSim, ResetClearsEverything) {
  CacheSim sim;
  sim.on_access(0, 64, W);
  sim.on_access(1, 64, W);
  sim.reset();
  EXPECT_EQ(sim.stats().accesses, 0u);
  EXPECT_EQ(sim.max_core_cycles(), 0u);
  sim.on_access(1, 64, W);
  EXPECT_EQ(sim.stats().cold_misses, 1u);  // state forgotten
}

TEST(Executor, RoundRobinInterleavesDeterministically) {
  // Two threads ping-pong writes to one line: with quantum 1 every write
  // after the first is a coherence miss.
  ThreadTrace t0, t1;
  for (int i = 0; i < 50; ++i) {
    t0.push_back({1024, 0, W, 8});
    t1.push_back({1032, 0, W, 8});  // same line, different word
  }
  const std::vector<ThreadTrace> traces{t0, t1};
  CacheSim sim;
  const SimStats stats = simulate_interleaved(sim, traces, 1);
  EXPECT_EQ(stats.accesses, 100u);
  EXPECT_EQ(stats.coherence_misses, 99u);

  // Re-running with identical inputs gives identical results.
  CacheSim sim2;
  const SimStats stats2 = simulate_interleaved(sim2, traces, 1);
  EXPECT_EQ(stats2.coherence_misses, stats.coherence_misses);
  EXPECT_EQ(sim2.max_core_cycles(), sim.max_core_cycles());
}

TEST(Executor, CoarserQuantumReducesPingPong) {
  ThreadTrace t0, t1;
  for (int i = 0; i < 1000; ++i) {
    t0.push_back({1024, 0, W, 8});
    t1.push_back({1032, 0, W, 8});
  }
  const std::vector<ThreadTrace> traces{t0, t1};
  CacheSim fine, coarse;
  simulate_interleaved(fine, traces, 1);
  simulate_interleaved(coarse, traces, 100);
  EXPECT_GT(fine.stats().coherence_misses,
            10 * coarse.stats().coherence_misses);
}

TEST(Executor, UnevenTracesDrainCompletely) {
  ThreadTrace t0, t1;
  for (int i = 0; i < 10; ++i) t0.push_back({64, 0, R, 8});
  for (int i = 0; i < 500; ++i) t1.push_back({128, 0, R, 8});
  const std::vector<ThreadTrace> traces{t0, t1};
  CacheSim sim;
  const SimStats stats = simulate_interleaved(sim, traces, 7);
  EXPECT_EQ(stats.accesses, 510u);
}

TEST(Executor, ThreadsMapToCoresModulo) {
  SimConfig cfg;
  cfg.num_cores = 2;
  CacheSim sim(cfg);
  // Threads 0 and 2 share core 0: their "sharing" is free (same cache).
  ThreadTrace a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back({2048, 0, W, 8});
    b.push_back({2056, 0, W, 8});
  }
  std::vector<ThreadTrace> traces{a, ThreadTrace{}, b};
  const SimStats stats = simulate_interleaved(sim, traces, 1);
  EXPECT_EQ(stats.coherence_misses, 0u);
}

TEST(Executor, FalseSharingCostsMoreThanPaddedLayout) {
  // The core Figure 2 mechanism: same access count, different layout.
  auto make_traces = [](std::size_t stride) {
    std::vector<ThreadTrace> traces(4);
    for (std::size_t t = 0; t < 4; ++t) {
      for (int i = 0; i < 2000; ++i) {
        traces[t].push_back(
            {static_cast<Address>(4096 + stride * t), 0, W, 8});
      }
    }
    return traces;
  };
  CacheSim shared_sim, padded_sim;
  simulate_interleaved(shared_sim, make_traces(8), 1);   // one line
  simulate_interleaved(padded_sim, make_traces(64), 1);  // one line each
  EXPECT_GT(shared_sim.max_core_cycles(), 10 * padded_sim.max_core_cycles());
}

// ---------------------------------------------------------------------------
// Two-level NUMA simulator: unit behavior
// ---------------------------------------------------------------------------

NumaConfig one_socket(std::uint32_t cores) {
  NumaConfig c;
  c.sockets = 1;
  c.cores_per_socket = cores;
  return c;
}

NumaConfig two_by_four(NumaPlacement placement = NumaPlacement::kCompact,
                       double remote_factor = 3.0) {
  NumaConfig c;
  c.sockets = 2;
  c.cores_per_socket = 4;
  c.placement = placement;
  c.remote_factor = remote_factor;
  return c;
}

TEST(NumaCacheSim, PlacementMapsCoresToSockets) {
  NumaConfig compact = two_by_four(NumaPlacement::kCompact);
  EXPECT_EQ(compact.socket_of(0), 0u);
  EXPECT_EQ(compact.socket_of(3), 0u);
  EXPECT_EQ(compact.socket_of(4), 1u);
  EXPECT_EQ(compact.socket_of(7), 1u);
  NumaConfig scatter = two_by_four(NumaPlacement::kScatter);
  EXPECT_EQ(scatter.socket_of(0), 0u);
  EXPECT_EQ(scatter.socket_of(1), 1u);
  EXPECT_EQ(scatter.socket_of(6), 0u);
  EXPECT_EQ(scatter.socket_of(7), 1u);
}

TEST(NumaCacheSim, ConfigConstructorsSpellTheMachine) {
  const SimConfig flat(4);
  EXPECT_EQ(flat.num_cores, 4u);
  EXPECT_EQ(flat.line_size, 64u);  // the shared cost model's defaults
  EXPECT_EQ(flat.coherence_miss_cost, 500u);
  const NumaConfig numa(2, 3);
  EXPECT_EQ(numa.sockets, 2u);
  EXPECT_EQ(numa.cores_per_socket, 3u);
  EXPECT_EQ(numa.line_size, 64u);
  EXPECT_EQ(NumaCacheSim(numa).num_cores(), 6u);
  // The flat machine is the 1-socket topology with its costs.
  SimConfig priced(5);
  priced.invalidation_cost = 7;
  const CacheSim sim(priced);
  EXPECT_EQ(sim.num_cores(), 5u);
  EXPECT_EQ(sim.config().sockets, 1u);
  EXPECT_EQ(sim.config().invalidation_cost, 7u);
}

TEST(NumaCacheSimDeathTest, ConstructorRejectsOutOfBoundsTopologies) {
  // The core bound is checked by division, so a product that wraps to a
  // small core count is still refused.
  EXPECT_DEATH(NumaCacheSim(NumaConfig(16, 268435457)), "cores_per_socket");
  EXPECT_DEATH(NumaCacheSim(NumaConfig(17, 1)), "sockets");
  NumaConfig bad = two_by_four();
  bad.remote_factor = std::nan("");
  EXPECT_DEATH(NumaCacheSim{bad}, "remote_factor");
  bad.remote_factor = HUGE_VAL;
  EXPECT_DEATH(NumaCacheSim{bad}, "remote_factor");
  bad = two_by_four();
  bad.llc_line_size = std::size_t{1} << 40;
  EXPECT_DEATH(NumaCacheSim{bad}, "llc_line_size");
}

TEST(NumaCacheSim, RemoteDirtyTransferCostsRemoteFactorMore) {
  // Cores 0/1 share a socket; cores 0/4 sit on different sockets (compact).
  NumaCacheSim local(two_by_four());
  local.on_access(0, 64, W);
  const std::uint64_t local_read = local.on_access(1, 64, R);

  NumaCacheSim remote(two_by_four());
  remote.on_access(0, 64, W);
  const std::uint64_t remote_read = remote.on_access(4, 64, R);

  EXPECT_EQ(local_read, remote.config().coherence_miss_cost);
  EXPECT_EQ(remote_read, 3 * local_read);
  EXPECT_EQ(remote.stats().remote_coherence_misses, 1u);
  EXPECT_EQ(local.stats().remote_coherence_misses, 0u);
}

TEST(NumaCacheSim, CrossSocketInvalidationsAreCountedAndPriced) {
  NumaCacheSim sim(two_by_four());
  sim.on_access(0, 64, R);   // socket 0
  sim.on_access(4, 64, R);   // socket 1
  const std::uint64_t cost = sim.on_access(1, 64, W);  // socket 0 writes
  EXPECT_EQ(sim.stats().invalidations_sent, 2u);
  EXPECT_EQ(sim.stats().remote_invalidations_sent, 1u);  // core 4's copy
  EXPECT_EQ(sim.line_remote_invalidations(64), 1u);
  // The upgrade pays the remote shared-fetch (socket 1 held a copy, so the
  // invalidation round-trip crosses the interconnect: 3 * 80), plus one
  // local kill (100) and one remote kill (300).
  EXPECT_EQ(cost, 3 * sim.config().shared_fetch_cost + 100 + 300);
}

TEST(NumaCacheSim, DirectoryTracksSocketEntryAndWriteTakeover) {
  NumaCacheSim sim(two_by_four());
  sim.on_access(0, 64, R);
  const auto p1 = sim.probe_line(64);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->socket_copies, 0b01u);
  sim.on_access(4, 64, R);
  const auto p2 = sim.probe_line(64);
  EXPECT_EQ(p2->socket_copies, 0b11u);
  sim.on_access(4, 64, W);
  const auto p3 = sim.probe_line(64);
  EXPECT_EQ(p3->socket_copies, 0b10u);  // socket 0 dropped by the write
  EXPECT_EQ(p3->owner_socket, 1);
  EXPECT_GE(sim.stats().directory_transitions, 3u);
  EXPECT_GE(sim.stats().directory_invalidations, 1u);
}

TEST(NumaCacheSim, CoarseLlcGrainKillsSiblingLines) {
  // 128-byte LLC lines over 64-byte private lines: a write to the first
  // private line evicts remote sockets' copies of the second one too.
  NumaConfig cfg = two_by_four();
  cfg.llc_line_size = 128;
  NumaCacheSim sim(cfg);
  sim.on_access(4, 64, R);  // socket 1 caches the sibling private line
  sim.on_access(0, 0, W);   // socket 0 writes the other half of the LLC line
  EXPECT_EQ(sim.stats().llc_sibling_invalidations, 1u);
  // Core 4 lost its copy: the next read is a miss, not a hit.
  const std::uint64_t hits_before = sim.stats().hits;
  sim.on_access(4, 64, R);
  EXPECT_EQ(sim.stats().hits, hits_before);
}

TEST(NumaCacheSim, NoSiblingKillsAtMatchedLineSizes) {
  NumaCacheSim sim(two_by_four());
  sim.on_access(4, 64, R);
  sim.on_access(0, 0, W);
  EXPECT_EQ(sim.stats().llc_sibling_invalidations, 0u);
  sim.on_access(4, 64, R);
  EXPECT_GT(sim.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Differential regression: a 1-socket NumaCacheSim ≡ the flat reference
// simulator (tests/reference/flat_cache_sim.hpp), bit for bit, across the
// full workload registry — any divergence is a bug in the topology layer.
// ---------------------------------------------------------------------------

TEST(NumaDifferential, OneSocketBitIdenticalToFlatAcrossRegistry) {
  for (const auto& w : wl::all_workloads()) {
    const std::string& name = w->traits().name;
    SessionOptions o;
    o.heap_size = 32 * 1024 * 1024;
    Session session(o);
    wl::Params p;
    p.threads = 8;
    const auto traces = w->capture(session, p);

    FlatCacheSim flat;  // 8 cores, default costs
    NumaCacheSim numa(one_socket(8));
    simulate_interleaved(flat, traces, 1);
    simulate_interleaved(numa, traces, 1);

    const SimStats& f = flat.stats();
    const NumaStats& n = numa.stats();
    EXPECT_EQ(f.accesses, n.accesses) << name;
    EXPECT_EQ(f.hits, n.hits) << name;
    EXPECT_EQ(f.cold_misses, n.cold_misses) << name;
    EXPECT_EQ(f.shared_fetches, n.shared_fetches) << name;
    EXPECT_EQ(f.coherence_misses, n.coherence_misses) << name;
    EXPECT_EQ(f.invalidations_sent, n.invalidations_sent) << name;
    EXPECT_EQ(f.total_cycles, n.total_cycles) << name;
    for (std::uint32_t c = 0; c < 8; ++c) {
      EXPECT_EQ(flat.core_cycles(c), numa.core_cycles(c))
          << name << " core " << c;
    }
    // Per-line invalidation counts over every line either sim touched.
    std::unordered_set<std::size_t> lines;
    for (const auto& t : traces) {
      for (const auto& ev : t) lines.insert(ev.addr / 64);
    }
    for (const std::size_t line : lines) {
      EXPECT_EQ(flat.line_invalidations(line * 64),
                numa.line_invalidations(line * 64))
          << name << " line " << line;
    }
    // At one socket nothing can be remote.
    EXPECT_EQ(n.remote_coherence_misses, 0u) << name;
    EXPECT_EQ(n.remote_shared_fetches, 0u) << name;
    EXPECT_EQ(n.remote_cold_misses, 0u) << name;
    EXPECT_EQ(n.remote_invalidations_sent, 0u) << name;
    EXPECT_EQ(n.llc_sibling_invalidations, 0u) << name;
  }
}

TEST(NumaDifferential, ConcurrentExecutorAgreesAtOneSocketToo) {
  const wl::Workload* w = wl::find_workload("numa_pingpong");
  ASSERT_NE(w, nullptr);
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  Session session(o);
  wl::Params p;
  p.threads = 8;
  const auto traces = w->capture(session, p);

  FlatCacheSim flat;
  NumaCacheSim numa(one_socket(8));
  const ConcurrentResult rf = simulate_concurrent(flat, traces);
  const ConcurrentResult rn = simulate_concurrent(numa, traces);
  EXPECT_EQ(rf.finish_cycles, rn.finish_cycles);
  EXPECT_EQ(rf.stats.coherence_misses, rn.stats.coherence_misses);
  EXPECT_EQ(rf.stats.total_cycles, rn.stats.total_cycles);
}

// ---------------------------------------------------------------------------
// Big-machine scenarios: the same trace costs ≥2x when the ping-pong
// crosses sockets, while the *event counts* stay topology-invariant.
// ---------------------------------------------------------------------------

TEST(NumaBigMachine, PingPongCostsAtLeastTwiceAsMuchAcrossSockets) {
  const wl::Workload* w = wl::find_workload("numa_pingpong");
  ASSERT_NE(w, nullptr);
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  Session session(o);
  wl::Params p;
  p.threads = 8;
  const auto traces = w->capture(session, p);

  NumaCacheSim local(one_socket(8));
  NumaCacheSim remote(two_by_four(NumaPlacement::kScatter, 3.0));
  simulate_interleaved(local, traces, 1);
  simulate_interleaved(remote, traces, 1);

  // ≥2x cycle cost for remote vs local ping-pong (ISSUE acceptance bar).
  EXPECT_GE(remote.max_core_cycles(), 2 * local.max_core_cycles());
  EXPECT_GE(remote.stats().total_cycles, 2 * local.stats().total_cycles);
  EXPECT_GT(remote.stats().remote_invalidations_sent, 0u);
  EXPECT_GT(remote.stats().remote_coherence_misses, 0u);

  // Topology scales costs, never event counts.
  EXPECT_EQ(local.stats().coherence_misses, remote.stats().coherence_misses);
  EXPECT_EQ(local.stats().invalidations_sent,
            remote.stats().invalidations_sent);
  EXPECT_EQ(local.stats().hits, remote.stats().hits);
}

TEST(NumaBigMachine, PaddedPingPongEscapesTheRemotePenalty) {
  const wl::Workload* w = wl::find_workload("numa_pingpong");
  ASSERT_NE(w, nullptr);
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  Session s_buggy(o), s_fixed(o);
  wl::Params p;
  p.threads = 8;
  const auto buggy = w->capture(s_buggy, p);
  p.fix_mask = ~0u;
  const auto fixed = w->capture(s_fixed, p);

  NumaCacheSim sim_buggy(two_by_four(NumaPlacement::kScatter, 3.0));
  NumaCacheSim sim_fixed(two_by_four(NumaPlacement::kScatter, 3.0));
  simulate_interleaved(sim_buggy, buggy, 1);
  simulate_interleaved(sim_fixed, fixed, 1);
  EXPECT_GT(sim_buggy.max_core_cycles(), 10 * sim_fixed.max_core_cycles());
  EXPECT_EQ(sim_fixed.stats().remote_invalidations_sent, 0u);
}

// ---------------------------------------------------------------------------
// Directory-protocol property tests: randomized access streams over ≥64
// seeds, checked against a sequential oracle fold of the recorded global
// access order.
// ---------------------------------------------------------------------------

std::vector<ThreadTrace> random_traces(std::uint64_t seed) {
  Xorshift64 rng(seed * 7919 + 1);
  std::vector<ThreadTrace> traces(8);
  for (auto& t : traces) {
    const std::size_t events = 40 + rng.next_below(40);
    for (std::size_t i = 0; i < events; ++i) {
      // Six hot lines with word-granular offsets; ~40% writes.
      const Address addr = 4096 + rng.next_below(6) * 64 +
                           rng.next_below(8) * 8;
      const AccessType type = rng.next_below(10) < 4 ? W : R;
      t.push_back({addr, 0, type, 8});
    }
  }
  return traces;
}

TEST(DirectoryProperty, ConservationInvariantsHoldOver64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto traces = random_traces(seed);
    std::size_t total_events = 0;
    for (const auto& t : traces) total_events += t.size();
    const NumaConfig cfg = two_by_four(
        seed % 2 ? NumaPlacement::kScatter : NumaPlacement::kCompact,
        2.0 + static_cast<double>(seed % 3));

    NumaCacheSim sim(cfg);
    std::vector<GlobalAccess> order;
    simulate_fibers(sim, traces, seed, &order);
    ASSERT_EQ(order.size(), total_events) << "seed " << seed;

    // Oracle fold: replaying the recorded order sequentially through a
    // fresh simulator reproduces the fiber run exactly — per-line
    // invalidation totals included, whatever the interleaving was.
    NumaCacheSim oracle(cfg);
    replay_global_order(oracle, order);
    EXPECT_EQ(0, std::memcmp(&oracle.stats(), &sim.stats(),
                             sizeof(NumaStats)))
        << "seed " << seed;
    for (int line = 0; line < 6; ++line) {
      const Address a = 4096 + static_cast<Address>(line) * 64;
      EXPECT_EQ(oracle.line_invalidations(a), sim.line_invalidations(a))
          << "seed " << seed << " line " << line;
      EXPECT_EQ(oracle.line_remote_invalidations(a),
                sim.line_remote_invalidations(a))
          << "seed " << seed << " line " << line;
    }

    // Cross-implementation oracle: the flat simulator folding the same
    // order must agree on every topology-independent event count.
    FlatCacheSim flat(SimConfig{8});
    for (const GlobalAccess& a : order) flat.on_access(a.core, a.addr, a.type);
    EXPECT_EQ(flat.stats().hits, sim.stats().hits) << "seed " << seed;
    EXPECT_EQ(flat.stats().cold_misses, sim.stats().cold_misses)
        << "seed " << seed;
    EXPECT_EQ(flat.stats().shared_fetches, sim.stats().shared_fetches)
        << "seed " << seed;
    EXPECT_EQ(flat.stats().coherence_misses, sim.stats().coherence_misses)
        << "seed " << seed;
    EXPECT_EQ(flat.stats().invalidations_sent, sim.stats().invalidations_sent)
        << "seed " << seed;

    // Per-access invariant: every cross-socket invalidation is matched by a
    // directory state transition in the same access.
    NumaCacheSim step(cfg);
    for (const GlobalAccess& a : order) {
      const NumaStats before = step.stats();
      step.on_access(a.core, a.addr, a.type);
      const NumaStats& after = step.stats();
      if (after.remote_invalidations_sent > before.remote_invalidations_sent) {
        ASSERT_GT(after.directory_transitions, before.directory_transitions)
            << "seed " << seed
            << ": cross-socket invalidation without a directory transition";
      }
    }

    // Line-state consistency: a line is never dirty in two sockets, and the
    // directory's socket mask covers every core holding a copy.
    for (int line = 0; line < 6; ++line) {
      const auto probe = sim.probe_line(4096 + static_cast<Address>(line) * 64);
      if (!probe.has_value()) continue;
      if (probe->owner_core >= 0) {
        EXPECT_TRUE(probe->sharer_cores.empty())
            << "seed " << seed << ": dirty line with clean sharers";
        EXPECT_EQ(probe->owner_socket,
                  static_cast<std::int32_t>(cfg.socket_of(
                      static_cast<std::uint32_t>(probe->owner_core))))
            << "seed " << seed;
      }
      std::uint32_t holder_sockets = 0;
      for (const std::uint32_t c : probe->sharer_cores) {
        holder_sockets |= 1u << cfg.socket_of(c);
      }
      if (probe->owner_core >= 0) {
        holder_sockets |=
            1u << cfg.socket_of(static_cast<std::uint32_t>(probe->owner_core));
      }
      EXPECT_EQ(holder_sockets & ~probe->socket_copies, 0u)
          << "seed " << seed << ": core holds a copy its socket's directory "
          << "entry does not record";
    }
  }
}

// ---------------------------------------------------------------------------
// Topology golden digests: every registry workload at 8 threads on 2x4
// compact and on 2x4 scatter with 128-byte LLC lines, plus the numa suite at
// 64 threads on 4x16 scatter and at 192 threads on 2x96 compact with
// 128-byte LLC lines (three sharer words per line), each replayed through
// simulate_interleaved and simulate_concurrent. The table was captured with the two-simulator design
// (a flat simulator plus a branch-for-branch NUMA mirror), so it pins the
// single simulator's pricing, directory and sibling-kill bookkeeping to the
// behavior of the mirror it replaced.
//
// Each digest is a 64-bit FNV-1a over, per executor run: every stats field,
// every core's cycles, finish_cycles (concurrent run only), and every line
// the traces touch — in rebased order — with its invalidations and remote
// invalidations. Line addresses are rebased as "r<region>+<offset>" (the
// registration ordinal of the session region holding them), as in
// test_registry_golden, so heap placement stays out of the digest.
// ---------------------------------------------------------------------------

class Fnv1a {
 public:
  void bytes(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  /// Little-endian, so the digest does not depend on the host byte order.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// "r<i>+<offset>" for the session region holding `a`, else "abs+<a>".
std::string rebase(Address a, const std::vector<const ShadowSpace*>& regions) {
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Address base = regions[i]->base();
    const Address end =
        base + regions[i]->num_lines() * regions[i]->geometry().line_size;
    if (a >= base && a < end) {
      return "r" + std::to_string(i) + "+" + std::to_string(a - base);
    }
  }
  return "abs+" + std::to_string(a);
}

void digest_sim(Fnv1a& h, const NumaCacheSim& sim,
                const std::vector<ThreadTrace>& traces,
                const std::vector<const ShadowSpace*>& regions) {
  const NumaStats& s = sim.stats();
  for (const std::uint64_t v :
       {s.accesses, s.hits, s.cold_misses, s.shared_fetches,
        s.coherence_misses, s.invalidations_sent, s.total_cycles,
        s.remote_coherence_misses, s.remote_shared_fetches,
        s.remote_cold_misses, s.remote_invalidations_sent,
        s.llc_sibling_invalidations, s.directory_transitions,
        s.directory_invalidations}) {
    h.u64(v);
  }
  for (std::uint32_t c = 0; c < sim.num_cores(); ++c) h.u64(sim.core_cycles(c));
  const std::size_t line_size = sim.config().line_size;
  std::set<std::pair<std::string, Address>> lines;
  for (const ThreadTrace& t : traces) {
    for (const TraceEvent& ev : t) {
      const Address start = ev.addr / line_size * line_size;
      lines.insert({rebase(start, regions), start});
    }
  }
  for (const auto& [label, start] : lines) {
    h.bytes(label);
    h.u64(sim.line_invalidations(start));
    h.u64(sim.line_remote_invalidations(start));
  }
}

std::uint64_t topology_digest(const wl::Workload& w, std::uint32_t threads,
                              const NumaConfig& cfg) {
  SessionOptions o;
  o.heap_size = 32 * 1024 * 1024;
  Session session(o);
  wl::Params p;
  p.threads = threads;
  const auto traces = w.capture(session, p);
  std::vector<const ShadowSpace*> regions;
  session.runtime().for_each_region(
      [&](const ShadowSpace& r) { regions.push_back(&r); });

  Fnv1a h;
  NumaCacheSim interleaved(cfg);
  simulate_interleaved(interleaved, traces, 1);
  h.bytes("interleaved");
  digest_sim(h, interleaved, traces, regions);
  NumaCacheSim concurrent(cfg);
  const ConcurrentResult r = simulate_concurrent(concurrent, traces);
  h.bytes("concurrent");
  h.u64(r.finish_cycles);
  digest_sim(h, concurrent, traces, regions);
  return h.value();
}

struct TopologyGolden {
  const char* workload;
  const char* topology;
  std::uint64_t digest;
};

// clang-format off
constexpr TopologyGolden kTopologyGolden[] = {
    {"histogram", "2x4c", 0xabbe5de91d3a5b8bull},
    {"histogram", "2x4s/128", 0x532bff44f748b74bull},
    {"kmeans", "2x4c", 0x25fe4763803af990ull},
    {"kmeans", "2x4s/128", 0xca00693abd336368ull},
    {"linear_regression", "2x4c", 0x7a666a49137aa5d7ull},
    {"linear_regression", "2x4s/128", 0x43a663417146f579ull},
    {"matrix_multiply", "2x4c", 0x86112b9e14e7b19eull},
    {"matrix_multiply", "2x4s/128", 0x4645d6ce0cf8429full},
    {"pca", "2x4c", 0x74580c4f62b9bb9full},
    {"pca", "2x4s/128", 0x46937b5ff937e98dull},
    {"reverse_index", "2x4c", 0xe44df87aaed496beull},
    {"reverse_index", "2x4s/128", 0x2b17fcdfbeece6afull},
    {"string_match", "2x4c", 0xc4b626d12c60c3dbull},
    {"string_match", "2x4s/128", 0x74948ae62c2223e6ull},
    {"word_count", "2x4c", 0x19dabc8c664d8805ull},
    {"word_count", "2x4s/128", 0xd92e04664dd5ba61ull},
    {"blackscholes", "2x4c", 0x874ead6728fdffafull},
    {"blackscholes", "2x4s/128", 0x010a10a684d6bc84ull},
    {"bodytrack", "2x4c", 0x8e89db529fec3ddaull},
    {"bodytrack", "2x4s/128", 0x91d87e842226a3daull},
    {"dedup", "2x4c", 0xb5593d82cc19d3d7ull},
    {"dedup", "2x4s/128", 0x7db7a645ff1c8ee7ull},
    {"ferret", "2x4c", 0x9870b16b9edf8facull},
    {"ferret", "2x4s/128", 0x8d4c3c446e49eb21ull},
    {"fluidanimate", "2x4c", 0x329a055219b74da5ull},
    {"fluidanimate", "2x4s/128", 0x56ec0bec9d73e3b1ull},
    {"streamcluster", "2x4c", 0xe1a40c0fb5d264dbull},
    {"streamcluster", "2x4s/128", 0xfa94640ae64d2ac9ull},
    {"swaptions", "2x4c", 0xcbe18b64d4264322ull},
    {"swaptions", "2x4s/128", 0xce9cb46dc95e69f0ull},
    {"x264", "2x4c", 0xb3220081f017cecfull},
    {"x264", "2x4s/128", 0x8d160c5cb052493bull},
    {"aget", "2x4c", 0x678485fe29c7823aull},
    {"aget", "2x4s/128", 0x3aec92860d86bc13ull},
    {"boost", "2x4c", 0xc13356240de78231ull},
    {"boost", "2x4s/128", 0xa6f66e9a9fd2ded6ull},
    {"memcached", "2x4c", 0xfdade1519b7af07eull},
    {"memcached", "2x4s/128", 0x8b30bd3df5bad11cull},
    {"mysql", "2x4c", 0x5f6f9dee7fac80c5ull},
    {"mysql", "2x4s/128", 0x41239cb485724304ull},
    {"pbzip2", "2x4c", 0x2e528406d711dd19ull},
    {"pbzip2", "2x4s/128", 0x3b689050a4bcbf47ull},
    {"pfscan", "2x4c", 0x4cb2f3ef977dc53eull},
    {"pfscan", "2x4s/128", 0x4090839ad4d18b0bull},
    {"blocked_matrix", "2x4c", 0x9a874c98210cfb0aull},
    {"blocked_matrix", "2x4s/128", 0x32401a289b8998f2ull},
    {"numa_pingpong", "2x4c", 0x26d53374488cdf02ull},
    {"numa_pingpong", "2x4s/128", 0x4d66784d00cd1359ull},
    {"tensor_parallel", "2x4c", 0x60b8af22bee59f0full},
    {"tensor_parallel", "2x4s/128", 0xaf729c8484b64029ull},
    {"blocked_matrix", "4x16s", 0xc9bc26ac3ef9e33full},
    {"blocked_matrix", "2x96c/128", 0xd631c9e62c893b06ull},
    {"numa_pingpong", "4x16s", 0xf1850874947382a8ull},
    {"numa_pingpong", "2x96c/128", 0xedcb0d6a95dde896ull},
    {"tensor_parallel", "4x16s", 0xe7c920e0a3af3acfull},
    {"tensor_parallel", "2x96c/128", 0x01693d6881cbbc3dull},
};
// clang-format on

std::string golden_row(std::string_view name, std::string_view topology,
                       std::uint64_t digest) {
  char row[128];
  std::snprintf(row, sizeof row, "    {\"%.*s\", \"%.*s\", 0x%016llxull},\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(topology.size()), topology.data(),
                static_cast<unsigned long long>(digest));
  return row;
}

TEST(TopologyGolden, EveryConfigurationMatchesItsDigest) {
  NumaConfig compact = two_by_four(NumaPlacement::kCompact);
  NumaConfig scatter128 = two_by_four(NumaPlacement::kScatter);
  scatter128.llc_line_size = 128;
  NumaConfig big;
  big.sockets = 4;
  big.cores_per_socket = 16;
  big.placement = NumaPlacement::kScatter;

  std::string golden;
  for (const TopologyGolden& g : kTopologyGolden) {
    golden += golden_row(g.workload, g.topology, g.digest);
  }
  std::string actual;
  for (const auto& w : wl::all_workloads()) {
    const std::string& name = w->traits().name;
    actual += golden_row(name, "2x4c", topology_digest(*w, 8, compact));
    actual += golden_row(name, "2x4s/128",
                         topology_digest(*w, 8, scatter128));
  }
  NumaConfig wide(2, 96);  // three sharer words per line
  wide.llc_line_size = 128;
  for (const auto& w : wl::all_workloads()) {
    if (w->traits().suite != "numa") continue;
    actual += golden_row(w->traits().name, "4x16s",
                         topology_digest(*w, 64, big));
    actual += golden_row(w->traits().name, "2x96c/128",
                         topology_digest(*w, 192, wide));
  }
  EXPECT_EQ(actual, golden);
}

// ---------------------------------------------------------------------------
// Executor oracle: simulate_concurrent runs each thread until another
// overtakes it; the per-access scan it replaced
// (tests/reference/scan_executor.hpp) defines the schedule it must keep.
// ---------------------------------------------------------------------------

using HotLineRow = std::tuple<Address, std::uint64_t, std::uint64_t>;

std::vector<HotLineRow> all_hot_lines(const CacheSim& sim) {
  std::vector<HotLineRow> rows;
  for (const auto& l : sim.hottest_lines(~std::size_t{0})) {
    rows.emplace_back(l.line_start, l.invalidations, l.remote_invalidations);
  }
  return rows;
}

/// Both executors on fresh simulators: identical stats, per-core cycles,
/// finish_cycles and per-line (remote) invalidations.
void expect_same_schedule(const NumaConfig& cfg,
                          const std::vector<ThreadTrace>& traces,
                          const std::string& what) {
  CacheSim fast(cfg);
  CacheSim scan(cfg);
  const ConcurrentResult rf = simulate_concurrent(fast, traces);
  const ConcurrentResult rs = scan_simulate_concurrent(scan, traces);
  EXPECT_EQ(rf.finish_cycles, rs.finish_cycles) << what;
  EXPECT_EQ(0, std::memcmp(&rf.stats, &rs.stats, sizeof(SimStats))) << what;
  for (std::uint32_t c = 0; c < fast.num_cores(); ++c) {
    EXPECT_EQ(fast.core_cycles(c), scan.core_cycles(c))
        << what << " core " << c;
  }
  EXPECT_EQ(all_hot_lines(fast), all_hot_lines(scan)) << what;
}

/// The oracle's machines: flat 4-core, 2x2 compact, 2x4 scatter with
/// 128-byte LLC lines.
std::vector<std::pair<std::string, NumaConfig>> oracle_machines() {
  NumaConfig scatter128 = two_by_four(NumaPlacement::kScatter);
  scatter128.llc_line_size = 128;
  return {{"flat4", NumaConfig(SimConfig(4))},
          {"2x2c", NumaConfig(2, 2)},
          {"2x4s/128", scatter128}};
}

TEST(ExecutorOracle, RegistryWorkloadsKeepTheScanSchedule) {
  for (const auto& w : wl::all_workloads()) {
    for (const std::uint32_t threads : {4u, 8u}) {
      SessionOptions o;
      o.heap_size = 32 * 1024 * 1024;
      Session session(o);
      wl::Params p;
      p.threads = threads;
      const auto traces = w->capture(session, p);
      for (const auto& [machine, cfg] : oracle_machines()) {
        expect_same_schedule(cfg, traces,
                             w->traits().name + " t" +
                                 std::to_string(threads) + " " + machine);
      }
    }
  }
}

/// `threads` threads reading one private line each with no think time:
/// after the cold misses every access is a 1-cycle hit, so every clock ties
/// with every other at almost every step.
std::vector<ThreadTrace> all_hit_traces(std::size_t threads,
                                        std::size_t length) {
  std::vector<ThreadTrace> traces(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < length; ++i) {
      traces[t].push_back({static_cast<Address>(4096 + 64 * t), 0, R, 8});
    }
  }
  return traces;
}

/// Seeded traces over three lines with think times of 0 or 1 and the given
/// lengths (zero for an empty thread).
std::vector<ThreadTrace> tie_heavy_traces(
    std::uint64_t seed, const std::vector<std::size_t>& lengths) {
  Xorshift64 rng(seed);
  std::vector<ThreadTrace> traces(lengths.size());
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    for (std::size_t i = 0; i < lengths[t]; ++i) {
      const Address addr = 8192 + rng.next_below(3) * 64 + rng.next_below(8) * 8;
      const std::uint32_t think = static_cast<std::uint32_t>(rng.next_below(2));
      traces[t].push_back({addr, think, rng.next_below(4) == 0 ? W : R, 8});
    }
  }
  return traces;
}

TEST(ExecutorOracle, AdversarialTiesKeepTheScanSchedule) {
  std::vector<std::pair<std::string, std::vector<ThreadTrace>>> cases;
  cases.push_back({"all-hit x4", all_hit_traces(4, 300)});
  cases.push_back({"all-hit x11", all_hit_traces(11, 97)});
  cases.push_back({"no threads", {}});
  cases.push_back({"all empty", std::vector<ThreadTrace>(5)});
  cases.push_back({"one thread", tie_heavy_traces(1, {500})});
  cases.push_back({"uneven", tie_heavy_traces(2, {0, 1, 300, 0, 17, 1000})});
  cases.push_back({"more threads than cores",
                   tie_heavy_traces(3, std::vector<std::size_t>(13, 120))});
  for (std::uint64_t seed = 10; seed < 40; ++seed) {
    std::vector<std::size_t> lengths;
    for (std::size_t t = 0; t < 1 + seed % 9; ++t) {
      lengths.push_back((seed * 37 + t * 101) % 250);
    }
    cases.push_back({"seed " + std::to_string(seed),
                     tie_heavy_traces(seed, lengths)});
  }
  for (const auto& [name, traces] : cases) {
    for (const auto& [machine, cfg] : oracle_machines()) {
      expect_same_schedule(cfg, traces, name + " " + machine);
    }
  }
}

/// A simulator whose accesses cost 0, 1 or 2 cycles by address, so clocks
/// tie constantly and zero-cost runs stay level; it logs the order of the
/// accesses it sees.
class RecordingSim {
 public:
  using Stats = SimStats;

  explicit RecordingSim(std::uint32_t cores) : cores_(cores) {}
  std::uint32_t num_cores() const { return cores_; }
  std::uint64_t on_access(std::uint32_t core, Address addr, AccessType) {
    log_.emplace_back(core, addr);
    ++stats_.accesses;
    return addr % 3;
  }
  const SimStats& stats() const { return stats_; }
  const std::vector<std::pair<std::uint32_t, Address>>& log() const {
    return log_;
  }

 private:
  std::uint32_t cores_;
  SimStats stats_;
  std::vector<std::pair<std::uint32_t, Address>> log_;
};

TEST(ExecutorOracle, ZeroAndTinyCostsIssueInTheScanOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xorshift64 rng(seed);
    std::vector<ThreadTrace> traces(1 + seed % 7);
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const std::size_t length = rng.next_below(200);
      for (std::size_t i = 0; i < length; ++i) {
        // The thread id in the high bits makes the log name the issuer.
        const Address addr = (static_cast<Address>(t) << 32) | rng.next_below(64);
        const std::uint32_t think =
            static_cast<std::uint32_t>(rng.next_below(3) == 0);
        traces[t].push_back({addr, think, R, 8});
      }
    }
    RecordingSim fast(3);
    RecordingSim scan(3);
    const ConcurrentResult rf = simulate_concurrent(fast, traces);
    const ConcurrentResult rs = scan_simulate_concurrent(scan, traces);
    EXPECT_EQ(fast.log(), scan.log()) << "seed " << seed;
    EXPECT_EQ(rf.finish_cycles, rs.finish_cycles) << "seed " << seed;
  }
}

TEST(TraceRecorder, CapturesTypesSizesAndAddresses) {
  TraceRecorder rec;
  int x = 0;
  rec.on_read(&x, 4);
  rec.on_write(&x, 4);
  const ThreadTrace trace = rec.take();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].type, R);
  EXPECT_EQ(trace[1].type, W);
  EXPECT_EQ(trace[0].addr, reinterpret_cast<Address>(&x));
  EXPECT_EQ(trace[0].size, 4u);
}

}  // namespace
}  // namespace pred
