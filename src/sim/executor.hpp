// Trace capture and deterministic interleaved execution.
//
// Workload kernels are generic over an access sink (see
// workloads/workload.hpp). Recording each logical thread's accesses into a
// TraceRecorder and replaying them round-robin through the CacheSim gives a
// deterministic model of the paper's parallel hardware runs — this is how
// Figure 2's offset-sensitivity curve and Table 1's "Improvement" column are
// produced on a machine where real false sharing cannot manifest.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cacheline.hpp"
#include "sim/cache_sim.hpp"

namespace pred {

struct TraceEvent {
  Address addr = 0;
  /// Modeled cycles of *uninstrumented compute* preceding this access
  /// (hashing, arithmetic, branching). Only the simulator's timing model
  /// consumes this; detection replay ignores it.
  std::uint32_t think_cycles = 0;
  AccessType type = AccessType::kRead;
  std::uint8_t size = 8;  ///< access width in bytes
};

using ThreadTrace = std::vector<TraceEvent>;

/// Sink that records accesses (one logical thread's view).
class TraceRecorder {
 public:
  void on_read(const void* p, std::size_t size = 8) {
    trace_.push_back({reinterpret_cast<Address>(p), take_think(),
                      AccessType::kRead, static_cast<std::uint8_t>(size)});
  }
  void on_write(const void* p, std::size_t size = 8) {
    trace_.push_back({reinterpret_cast<Address>(p), take_think(),
                      AccessType::kWrite, static_cast<std::uint8_t>(size)});
  }
  /// Declares `cycles` of uninstrumented compute preceding the next access.
  void think(std::uint32_t cycles) { pending_think_ += cycles; }

  ThreadTrace take() { return std::move(trace_); }
  const ThreadTrace& trace() const { return trace_; }
  void reserve(std::size_t n) { trace_.reserve(n); }

 private:
  std::uint32_t take_think() {
    const std::uint32_t t = pending_think_;
    pending_think_ = 0;
    return t;
  }
  ThreadTrace trace_;
  std::uint32_t pending_think_ = 0;
};

/// Replays per-thread traces through a simulator, round-robin with the
/// given quantum (thread i runs on core i % num_cores). Works for any sim
/// exposing on_access/num_cores/stats — CacheSim on any topology and the
/// flat reference simulator in tests/reference run the same schedules
/// unchanged. Returns the simulator's stats; timing comes from
/// sim.max_core_cycles(). Ignores think_cycles (pure coherence counting).
template <typename Sim>
typename Sim::Stats simulate_interleaved(Sim& sim,
                                         std::span<const ThreadTrace> traces,
                                         std::size_t quantum = 1) {
  if (quantum == 0) quantum = 1;
  std::vector<std::size_t> cursor(traces.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const ThreadTrace& trace = traces[t];
      const std::uint32_t core =
          static_cast<std::uint32_t>(t % sim.num_cores());
      for (std::size_t q = 0; q < quantum && cursor[t] < trace.size(); ++q) {
        const TraceEvent& ev = trace[cursor[t]++];
        sim.on_access(core, ev.addr, ev.type);
        progressed = true;
      }
    }
  }
  return sim.stats();
}

/// Event-driven concurrent execution: each thread owns a clock, and the
/// thread with the earliest clock (ties to the lowest index) issues its next
/// access, advancing by its think time plus the access's modeled cost. This
/// is the timing model used for the paper's runtime figures — threads
/// suffering coherence misses fall behind exactly as real cores do. Returns
/// the stats; modeled runtime is the maximum finishing clock, exposed via
/// `finish_cycles`.
///
/// The schedule is computed run-until-overtaken: one scan finds the earliest
/// and second-earliest live threads, and the earliest keeps issuing until
/// its clock passes the second one's — or ties it when the second has the
/// lower index — or its trace ends. Only then is the scan repeated. Other
/// clocks do not move while one thread runs, so this is exactly the
/// per-access earliest-first order. Thread t runs on core t % num_cores.
struct ConcurrentResult {
  SimStats stats;
  std::uint64_t finish_cycles = 0;
  double seconds(double clock_ghz = 2.33) const {
    return static_cast<double>(finish_cycles) / (clock_ghz * 1e9);
  }
};
template <typename Sim>
ConcurrentResult simulate_concurrent(Sim& sim,
                                     std::span<const ThreadTrace> traces) {
  const std::size_t n = traces.size();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> clock(n, 0);
  std::vector<std::uint32_t> core(n);
  for (std::size_t t = 0; t < n; ++t) {
    core[t] = static_cast<std::uint32_t>(t % sim.num_cores());
  }

  while (true) {
    // The earliest and second-earliest threads that still have work; the
    // in-order scan with strict compares breaks ties to the lower index.
    std::size_t best = n;
    std::size_t second = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (cursor[t] >= traces[t].size()) continue;
      if (best == n || clock[t] < clock[best]) {
        second = best;
        best = t;
      } else if (second == n || clock[t] < clock[second]) {
        second = t;
      }
    }
    if (best == n) break;

    const ThreadTrace& trace = traces[best];
    const std::uint32_t best_core = core[best];
    const std::uint64_t bound =
        second == n ? ~std::uint64_t{0} : clock[second];
    const bool wins_ties = best < second;
    std::size_t i = cursor[best];
    std::uint64_t c = clock[best];
    do {
      const TraceEvent& ev = trace[i++];
      const std::uint64_t cost = sim.on_access(best_core, ev.addr, ev.type);
      c += ev.think_cycles + cost;
    } while (i < trace.size() && (c < bound || (c == bound && wins_ties)));
    cursor[best] = i;
    clock[best] = c;
  }

  ConcurrentResult result;
  for (std::size_t t = 0; t < n; ++t) {
    result.finish_cycles = std::max(result.finish_cycles, clock[t]);
  }
  result.stats = sim.stats();
  return result;
}

}  // namespace pred
