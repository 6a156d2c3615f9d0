// The seed's per-line tracker, kept as a reference outside the runtime.
//
// Before the tracked path went lock-free, every escalated line ran this:
// one global fetch_add access counter with an `n % interval` sampling
// decision, then a per-line spinlock around every sampled update of the
// two-entry history table, the sampled counters and a plain WordAccess
// histogram. It has no sampling stripes, no arming gate and no sync-aware
// ownership word.
//
// Two users compare the production CacheTracker against it:
//   - tests/test_cache_tracker.cpp, as the single-OS-thread determinism
//     oracle (both must agree access by access);
//   - bench/microbench_tracked.cpp, as the `spin` baseline of the
//     `speedup_tN` ratios.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/spinlock.hpp"
#include "runtime/cache_tracker.hpp"
#include "runtime/history_table.hpp"
#include "runtime/word_access.hpp"

namespace pred {

class SeedTracker {
 public:
  using AccessOutcome = CacheTracker::AccessOutcome;

  SeedTracker(std::size_t line_index, const LineGeometry& geometry)
      : line_index_(line_index), geometry_(geometry) {
    PRED_CHECK(geometry.words_per_line() <= CacheTracker::kMaxWords);
  }

  AccessOutcome handle_access(Address addr, AccessType type, ThreadId tid,
                              std::uint64_t window, std::uint64_t interval) {
    const std::uint64_t n =
        access_counter_.fetch_add(1, std::memory_order_relaxed);
    if (n % interval >= window) {
      return {};  // outside the sampling window: count only
    }
    AccessOutcome outcome;
    outcome.sampled = true;
    std::lock_guard<Spinlock> g(lock_);
    ++sampled_accesses_;
    if (type == AccessType::kWrite) {
      ++sampled_writes_;
    } else {
      ++sampled_reads_;
    }
    words_[geometry_.word_in_line(addr)].record(tid, type);
    if (history_.access(tid, type) == HistoryOutcome::kInvalidation) {
      ++invalidations_;
      outcome.invalidated = true;
    }
    return outcome;
  }

  std::size_t line_index() const { return line_index_; }

  std::uint64_t total_accesses() const {
    return access_counter_.load(std::memory_order_relaxed);
  }
  std::uint64_t invalidations() const {
    std::lock_guard<Spinlock> g(lock_);
    return invalidations_;
  }
  std::uint64_t sampled_accesses() const {
    std::lock_guard<Spinlock> g(lock_);
    return sampled_accesses_;
  }
  std::uint64_t sampled_reads() const {
    std::lock_guard<Spinlock> g(lock_);
    return sampled_reads_;
  }
  std::uint64_t sampled_writes() const {
    std::lock_guard<Spinlock> g(lock_);
    return sampled_writes_;
  }

  std::vector<WordAccess> words_snapshot() const {
    std::lock_guard<Spinlock> g(lock_);
    return std::vector<WordAccess>(
        words_.begin(), words_.begin() + geometry_.words_per_line());
  }

 private:
  mutable Spinlock lock_;
  HistoryTable history_;
  std::uint64_t invalidations_ = 0;
  std::uint64_t sampled_accesses_ = 0;
  std::uint64_t sampled_reads_ = 0;
  std::uint64_t sampled_writes_ = 0;
  std::array<WordAccess, CacheTracker::kMaxWords> words_{};
  std::atomic<std::uint64_t> access_counter_{0};
  const std::size_t line_index_;
  const LineGeometry geometry_;
};

}  // namespace pred
