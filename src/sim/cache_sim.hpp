// Multi-core coherence simulator: the hardware substrate substituting for
// the paper's 8-core Xeon (see DESIGN.md) and for the multi-socket fleet box
// the §3 predictions are verified against. It models per-core private
// caches with MESI-style line states — enough to count the cache
// invalidations and coherence misses that false sharing produces — plus a
// simple cycle cost model calibrated so the paper's *shapes* (Figure 2's
// offset-sensitivity curve, Table 1's improvement factors) reproduce.
//
// One simulator serves every machine. Each access is classified once from
// core-level state: hit, cold miss, shared fetch or coherence miss, plus
// the set of copies a write kills. A small topology layer then prices the
// event — local or remote, by the socket of the dirty owner, the home node
// or the victim — and keeps the per-socket directory. The flat machine
// (SimConfig) is the 1-socket topology, where nothing is ever remote.
//
// Design invariant (pinned by tests/test_sim.cpp): the *event counts*
// depend only on core-level MESI state, so topology changes what events
// COST, never which events occur, and a 1-socket machine is bit-identical
// to the flat reference simulator (tests/reference/flat_cache_sim.hpp).
// The one deliberate exception is llc_line_size > line_size: then the
// directory tracks socket presence at LLC-line granularity and a write
// kills remote-socket copies of *sibling* private lines too, which is
// exactly the larger-line geometry the §3.3 double-line prediction convicts.
//
// Capacity and conflict misses are deliberately not modeled: false sharing
// cost is coherence cost, and an infinite-capacity private cache isolates
// exactly that signal.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"

namespace pred {

/// Line geometry, clock and local cycle costs: the part of a machine
/// description every topology shares.
struct CostModel {
  std::size_t line_size = 64;  ///< private-cache line size
  double clock_ghz = 2.33;

  // Cycle costs, calibrated to the paper's dual-socket Core 2 Xeon: L1 hit
  // ~1-3cy, clean L2 fetch tens of cycles, memory ~250cy, and dirty-line
  // ownership transfers (which cross the front-side bus on that machine)
  // the most expensive event of all.
  std::uint64_t hit_cost = 1;
  std::uint64_t shared_fetch_cost = 80;     ///< clean copy from the local LLC
  std::uint64_t cold_miss_cost = 250;       ///< local home-node memory fetch
  std::uint64_t coherence_miss_cost = 500;  ///< dirty line owned elsewhere
  std::uint64_t invalidation_cost = 100;    ///< per remote copy killed
};

/// The flat machine: `num_cores` cores behind one socket.
struct SimConfig : CostModel {
  std::uint32_t num_cores = 8;  ///< the paper's machine: 2x4-core Xeon

  SimConfig() = default;
  explicit SimConfig(std::uint32_t cores) : num_cores(cores) {}
};

/// How logical cores are numbered onto sockets. The trace executors assign
/// thread t to core t % num_cores, so placement decides whether neighbor
/// threads land on the same socket (compact) or alternate sockets (scatter).
enum class NumaPlacement : std::uint8_t {
  kCompact,  ///< core c sits on socket c / cores_per_socket
  kScatter,  ///< core c sits on socket c % sockets
};

/// A multi-socket machine: per-core private caches backed by a shared
/// per-socket LLC, with a directory at each line's home socket.
struct NumaConfig : CostModel {
  std::uint32_t sockets = 2;
  std::uint32_t cores_per_socket = 4;
  /// Latency multiplier for any transfer that crosses the socket
  /// interconnect (dirty-line transfer, remote LLC fetch, remote home-node
  /// memory fetch, invalidation delivered to a remote core).
  double remote_factor = 3.0;
  /// Per-socket LLC line size; must be a multiple of line_size. When larger
  /// than line_size the directory operates at this coarser grain: a write
  /// invalidates remote sockets' copies of every private line inside the
  /// LLC line — adjacent-line false sharing that a 64B-line machine never
  /// shows.
  std::size_t llc_line_size = 64;
  NumaPlacement placement = NumaPlacement::kCompact;

  NumaConfig() = default;
  NumaConfig(std::uint32_t num_sockets, std::uint32_t cores)
      : sockets(num_sockets), cores_per_socket(cores) {}
  /// The flat machine as a 1-socket topology.
  explicit NumaConfig(const SimConfig& flat)
      : CostModel(flat),
        sockets(1),
        cores_per_socket(flat.num_cores),
        llc_line_size(flat.line_size) {}

  std::uint32_t total_cores() const { return sockets * cores_per_socket; }
  std::uint32_t socket_of(std::uint32_t core) const {
    return placement == NumaPlacement::kCompact ? core / cores_per_socket
                                                : core % sockets;
  }
};

struct SimStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t shared_fetches = 0;
  std::uint64_t coherence_misses = 0;   ///< reads/writes of remotely-dirty lines
  std::uint64_t invalidations_sent = 0; ///< remote copies killed by writes
  std::uint64_t total_cycles = 0;       ///< sum over cores

  // How much of the traffic crossed the socket interconnect (all zero on
  // one socket).
  std::uint64_t remote_coherence_misses = 0;  ///< dirty owner on another socket
  std::uint64_t remote_shared_fetches = 0;    ///< clean copy only in remote LLC
  std::uint64_t remote_cold_misses = 0;       ///< home node on another socket
  std::uint64_t remote_invalidations_sent = 0;  ///< kills landing cross-socket
  std::uint64_t llc_sibling_invalidations = 0;  ///< coarse-LLC-grain kills on
                                                ///< sibling private lines
  std::uint64_t directory_transitions = 0;    ///< directory state changes
  std::uint64_t directory_invalidations = 0;  ///< socket-level copies dropped

  void add(const SimStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    cold_misses += o.cold_misses;
    shared_fetches += o.shared_fetches;
    coherence_misses += o.coherence_misses;
    invalidations_sent += o.invalidations_sent;
    total_cycles += o.total_cycles;
    remote_coherence_misses += o.remote_coherence_misses;
    remote_shared_fetches += o.remote_shared_fetches;
    remote_cold_misses += o.remote_cold_misses;
    remote_invalidations_sent += o.remote_invalidations_sent;
    llc_sibling_invalidations += o.llc_sibling_invalidations;
    directory_transitions += o.directory_transitions;
    directory_invalidations += o.directory_invalidations;
  }
};

class CacheSim {
 public:
  using Stats = SimStats;

  // Topology bounds, checked by the constructor without overflow (and by
  // the CLI before it builds a config).
  static constexpr std::uint32_t kMaxSockets = 16;
  static constexpr std::uint32_t kMaxCores = 512;
  static constexpr std::size_t kMaxLlcLineSize = 4096;
  static constexpr double kMaxRemoteFactor = 100.0;

  explicit CacheSim(SimConfig config = {}) : CacheSim(NumaConfig(config)) {}
  explicit CacheSim(const NumaConfig& config);

  /// Applies one access by `core`; accrues cycles to that core and returns
  /// the access's modeled cost (used by the event-driven executor).
  std::uint64_t on_access(std::uint32_t core, Address addr, AccessType type);

  const SimStats& stats() const { return stats_; }
  const NumaConfig& config() const { return config_; }
  std::uint32_t num_cores() const { return config_.total_cores(); }

  /// Cycle count of the busiest core: the parallel-execution critical path.
  std::uint64_t max_core_cycles() const {
    std::uint64_t m = 0;
    for (auto c : core_cycles_) m = std::max(m, c);
    return m;
  }
  std::uint64_t core_cycles(std::uint32_t core) const {
    return core_cycles_[core];
  }

  /// Modeled wall-clock seconds of the parallel phase.
  double modeled_seconds() const {
    return static_cast<double>(max_core_cycles()) /
           (config_.clock_ghz * 1e9);
  }

  /// Invalidations sent for the private line containing `addr` (0 if never
  /// seen). The repair verifier uses these per-line counts to prove that
  /// applying a plan actually removed the coherence traffic on the
  /// detected lines.
  std::uint64_t line_invalidations(Address addr) const;
  /// Sum of per-line invalidations over every line overlapping
  /// [start, start + size).
  std::uint64_t invalidations_in(Address start, std::size_t size) const;

  /// Per-line invalidations that were delivered to a core on a different
  /// socket than the writer — the remote share of line_invalidations().
  std::uint64_t line_remote_invalidations(Address addr) const;
  std::uint64_t remote_invalidations_in(Address start, std::size_t size) const;

  /// Every line the simulator has seen, for hot-line reporting.
  struct HotLine {
    Address line_start = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t remote_invalidations = 0;
  };
  std::vector<HotLine> hottest_lines(std::size_t top_k) const;

  /// Debug introspection for the directory-protocol property tests: the
  /// full core- and socket-level state of the line containing `addr`.
  struct LineProbe {
    std::vector<std::uint32_t> sharer_cores;
    std::int32_t owner_core = -1;
    std::uint32_t socket_copies = 0;  ///< directory mask (LLC-line grain)
    std::int32_t owner_socket = -1;   ///< socket of the dirty owner, or -1
    bool touched = false;
    std::uint64_t invalidations = 0;
  };
  std::optional<LineProbe> probe_line(Address addr) const;

  void reset() {
    lines_.clear();
    dirs_.clear();
    more_sharers_.clear();
    stats_ = SimStats{};
    core_cycles_.assign(config_.total_cores(), 0);
  }

 private:
  /// Directory entry at an LLC line's home socket.
  struct DirState {
    std::uint16_t socket_copies = 0;  ///< sockets holding any copy
    std::int16_t owner_socket = -1;   ///< socket with the dirty copy, or -1
  };
  struct LineState {
    std::uint64_t sharers = 0;  ///< cores 0-63 holding a clean copy
    /// Offset of this line's sharer words 1.. in more_sharers_ (machines
    /// with more than 64 cores only).
    std::uint32_t more = 0;
    std::int32_t owner = -1;  ///< core holding the line Modified, or -1
    std::uint64_t invalidations = 0;         ///< copies killed on this line
    std::uint64_t remote_invalidations = 0;  ///< ... on another socket
    DirState dir;  ///< the directory entry when llc_line_size == line_size
    /// Line ever fetched. Only accesses create entries, so every line in the
    /// table is touched: the flag doubles as the table's in-use mark.
    bool touched = false;
  };

  /// The private-line table: open addressing over a power-of-two array,
  /// Fibonacci hashing, linear probing, grown at half full. Lines are never
  /// erased (reset() clears the whole table), so probing needs no
  /// tombstones.
  class LineTable {
   public:
    struct Slot {
      std::size_t line = 0;
      LineState state;
    };

    const LineState* find(std::size_t line) const {
      if (slots_.empty()) return nullptr;
      const Slot& s = slots_[probe(line)];
      return s.state.touched ? &s.state : nullptr;
    }
    LineState* find(std::size_t line) {
      return const_cast<LineState*>(std::as_const(*this).find(line));
    }
    /// The entry for `line`, created (and marked touched) when absent;
    /// `*fresh` says which. May move every entry.
    LineState& insert(std::size_t line, bool* fresh) {
      std::size_t i = slots_.empty() ? 0 : probe(line);
      *fresh = slots_.empty() || !slots_[i].state.touched;
      if (!*fresh) return slots_[i].state;
      if ((used_ + 1) * 2 > slots_.size()) {
        grow();
        i = probe(line);
      }
      ++used_;
      slots_[i].line = line;
      slots_[i].state.touched = true;
      return slots_[i].state;
    }
    std::size_t size() const { return used_; }
    void clear() {
      slots_.clear();
      used_ = 0;
      shift_ = 64;
    }
    /// Calls fn(line, state) for every entry, in table order.
    template <typename F>
    void for_each(F&& fn) const {
      for (const Slot& s : slots_) {
        if (s.state.touched) fn(s.line, s.state);
      }
    }

   private:
    /// The slot holding `line`, or the empty slot where it would go.
    std::size_t probe(std::size_t line) const {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(line) * 0x9e3779b97f4a7c15ull) >>
          shift_);
      while (slots_[i].state.touched && slots_[i].line != line) {
        i = (i + 1) & mask;
      }
      return i;
    }
    void grow() {
      std::vector<Slot> old(std::max<std::size_t>(256, slots_.size() * 2));
      old.swap(slots_);
      shift_ = 64 - std::countr_zero(slots_.size());
      for (const Slot& s : old) {
        if (s.state.touched) slots_[probe(s.line)] = s;
      }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
    int shift_ = 64;  ///< 64 - log2(capacity): keeps the hash's top bits
  };

  /// The entry for `line`, created on first use; `*fresh` says whether it
  /// was (a cold line).
  LineState& line_state(std::size_t line, bool* fresh);
  bool holds_clean(const LineState& st, std::uint32_t core) const {
    return core < 64 ? (st.sharers >> core) & 1u
                     : (more_sharers_[st.more + core / 64 - 1] >>
                        (core % 64)) & 1u;
  }
  void add_sharer(LineState& st, std::uint32_t core) {
    (core < 64 ? st.sharers : more_sharers_[st.more + core / 64 - 1]) |=
        1ull << (core % 64);
  }
  /// Calls fn(word, w) for each of the line's sharer words in order.
  template <typename F>
  void for_each_word(LineState& st, F&& fn) {
    fn(st.sharers, 0u);
    for (std::uint32_t w = 1; w < words_; ++w) {
      fn(more_sharers_[st.more + w - 1], w);
    }
  }

  // The pricing layer: count the event (and its remote share) and return
  // its local or remote cost.
  std::uint64_t cold_miss(std::size_t llc, std::uint32_t socket);
  std::uint64_t shared_fetch(bool remote);
  std::uint64_t coherence_miss(bool remote);

  /// Updates the directory entry, counting a transition when it changes.
  void dir_update(DirState& dir, std::uint32_t socket_copies,
                  std::int32_t owner_socket);
  /// Kills remote-socket core copies of the sibling private lines sharing
  /// the written line's LLC line (only reachable when llc_line_size >
  /// line_size). Returns the invalidation cost incurred by the writer.
  std::uint64_t kill_llc_siblings(std::size_t written_line,
                                  std::size_t llc_index, std::uint32_t socket);
  /// Sum of `field` over every line overlapping [start, start + size).
  std::uint64_t sum_lines(Address start, std::size_t size,
                          std::uint64_t LineState::*field) const;

  NumaConfig config_;
  int line_shift_;    ///< log2(line_size)
  CostModel remote_;  ///< config_'s costs scaled by remote_factor
  bool inline_dir_;   ///< llc_line_size == line_size
  std::uint32_t words_;                 ///< sharer words per line
  std::vector<std::uint8_t> socket_of_;  ///< core -> socket
  /// Per-socket core masks, words_ words per socket.
  std::vector<std::uint64_t> socket_cores_;

  LineTable lines_;
  std::unordered_map<std::size_t, DirState> dirs_;  ///< coarse-LLC grain only
  std::vector<std::uint64_t> more_sharers_;
  SimStats stats_;
  std::vector<std::uint64_t> core_cycles_;
};

}  // namespace pred
