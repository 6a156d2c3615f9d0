// The flat coherence simulator, kept as a reference outside src/.
//
// Before the simulator gained a topology layer, every access ran this: one
// 64-bit sharer mask per line, MESI-lite classification, and a single cost
// table with no notion of sockets, home nodes or a directory. It caps out
// at 64 cores.
//
// Two users compare the production CacheSim against it:
//   - tests/test_sim.cpp, as the 1-socket differential oracle (a CacheSim
//     with one socket must agree with it bit for bit) and as the
//     cross-implementation oracle of the directory property suite;
//   - bench/microbench_sim.cpp, as the `flat` row, so
//     sim_numa_overhead_ratio keeps measuring the production model against
//     this one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "sim/cache_sim.hpp"

namespace pred {

class FlatCacheSim {
 public:
  using Stats = SimStats;

  explicit FlatCacheSim(SimConfig config = {}) : config_(config) {
    PRED_CHECK(config.num_cores >= 1 && config.num_cores <= 64);
    core_cycles_.assign(config.num_cores, 0);
  }

  /// Applies one access by `core`; accrues cycles to that core and returns
  /// the access's cost (used by the event-driven executor).
  std::uint64_t on_access(std::uint32_t core, Address addr, AccessType type) {
    PRED_CHECK(core < config_.num_cores);
    const std::size_t line = addr / config_.line_size;
    LineState& st = lines_[line];
    const std::uint64_t me = 1ull << core;

    ++stats_.accesses;
    std::uint64_t cost = 0;

    if (type == AccessType::kRead) {
      if (st.owner == static_cast<std::int32_t>(core) || (st.sharers & me)) {
        ++stats_.hits;
        cost = config_.hit_cost;
      } else if (st.owner >= 0) {
        // Dirty in another core's cache: ownership downgrade + transfer.
        ++stats_.coherence_misses;
        cost = config_.coherence_miss_cost;
        st.sharers |= (1ull << st.owner) | me;
        st.owner = -1;
      } else if (!st.touched) {
        ++stats_.cold_misses;
        cost = config_.cold_miss_cost;
        st.sharers |= me;
      } else {
        ++stats_.shared_fetches;
        cost = config_.shared_fetch_cost;
        st.sharers |= me;
      }
    } else {  // write
      if (st.owner == static_cast<std::int32_t>(core)) {
        ++stats_.hits;
        cost = config_.hit_cost;
      } else {
        const bool remote_dirty =
            st.owner >= 0 && st.owner != static_cast<std::int32_t>(core);
        const std::uint64_t remote_sharers = st.sharers & ~me;
        const int killed =
            std::popcount(remote_sharers) + (remote_dirty ? 1 : 0);
        stats_.invalidations_sent += static_cast<std::uint64_t>(killed);
        st.invalidations += static_cast<std::uint64_t>(killed);

        if (remote_dirty) {
          ++stats_.coherence_misses;
          cost = config_.coherence_miss_cost;
        } else if (!st.touched) {
          ++stats_.cold_misses;
          cost = config_.cold_miss_cost;
        } else if (killed > 0) {
          // Upgrade: line present somewhere clean; pay invalidation traffic.
          ++stats_.shared_fetches;
          cost = config_.shared_fetch_cost;
        } else if (st.sharers & me) {
          ++stats_.hits;  // exclusive upgrade of our own clean copy
          cost = config_.hit_cost;
        } else {
          ++stats_.cold_misses;
          cost = config_.cold_miss_cost;
        }
        cost += static_cast<std::uint64_t>(killed) * config_.invalidation_cost;
        st.sharers = 0;
        st.owner = static_cast<std::int32_t>(core);
      }
    }

    st.touched = true;
    core_cycles_[core] += cost;
    stats_.total_cycles += cost;
    return cost;
  }

  const SimStats& stats() const { return stats_; }
  const SimConfig& config() const { return config_; }
  std::uint32_t num_cores() const { return config_.num_cores; }

  /// Cycle count of the busiest core: the parallel-execution critical path.
  std::uint64_t max_core_cycles() const {
    std::uint64_t m = 0;
    for (auto c : core_cycles_) m = std::max(m, c);
    return m;
  }
  std::uint64_t core_cycles(std::uint32_t core) const {
    return core_cycles_[core];
  }

  /// Invalidations sent for the line containing `addr` (0 if never seen).
  std::uint64_t line_invalidations(Address addr) const {
    const auto it = lines_.find(addr / config_.line_size);
    return it == lines_.end() ? 0 : it->second.invalidations;
  }

 private:
  struct LineState {
    std::uint64_t sharers = 0;  ///< bitmask of cores with a clean copy
    std::int32_t owner = -1;    ///< core holding the line Modified, or -1
    bool touched = false;       ///< line ever fetched (cold-miss detection)
    std::uint64_t invalidations = 0;  ///< remote copies killed on this line
  };

  SimConfig config_;
  std::unordered_map<std::size_t, LineState> lines_;
  SimStats stats_;
  std::vector<std::uint64_t> core_cycles_;
};

}  // namespace pred
