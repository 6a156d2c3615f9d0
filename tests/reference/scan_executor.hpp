// The per-access scan executor, kept as a reference outside src/.
//
// Before simulate_concurrent ran each thread until another overtook it,
// every access rescanned all threads for the earliest clock (ties to the
// lowest index) and issued that thread's next access. The production
// executor (src/sim/executor.hpp) must produce exactly this schedule.
//
// tests/test_sim.cpp compares the two — stats, per-core cycles,
// finish_cycles and per-line invalidations — over the registry workloads
// and adversarial tie-heavy traces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/executor.hpp"

namespace pred {

template <typename Sim>
ConcurrentResult scan_simulate_concurrent(Sim& sim,
                                          std::span<const ThreadTrace> traces) {
  const std::size_t n = traces.size();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> clock(n, 0);

  ConcurrentResult result;
  while (true) {
    // Pick the earliest thread that still has work.
    std::size_t best = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (cursor[t] >= traces[t].size()) continue;
      if (best == n || clock[t] < clock[best]) best = t;
    }
    if (best == n) break;
    const TraceEvent& ev = traces[best][cursor[best]++];
    const std::uint32_t core =
        static_cast<std::uint32_t>(best % sim.num_cores());
    const std::uint64_t cost = sim.on_access(core, ev.addr, ev.type);
    clock[best] += ev.think_cycles + cost;
  }
  for (std::size_t t = 0; t < n; ++t) {
    result.finish_cycles = std::max(result.finish_cycles, clock[t]);
  }
  result.stats = sim.stats();
  return result;
}

}  // namespace pred
