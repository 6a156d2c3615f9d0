// Live monitoring: lock-free event streaming from the runtime's slow path,
// online aggregation on a background thread, and on-demand snapshot
// telemetry — the findings of Sections 2.3-2.4 surfaced *while the workload
// runs* instead of only in the exit report.
//
// Data flow:
//
//   mutator threads ──emit()──► per-thread SPSC EventRing (drop-oldest)
//                                        │
//                         aggregator thread drains every
//                         aggregation_interval_ms (or any thread inside
//                         snapshot(), serialized by one consumer mutex)
//                                        │
//                      incremental per-line stats, top-K hot lines,
//                      per-callsite rollup, per-ring drop counters
//                                        │
//   snapshot() ──► immutable MonitorSnapshot (mutators never pause)
//
// The emitting side is wait-free: a TLS-cached ring pointer plus one ring
// push. Overload is shed drop-oldest per ring, and every shed event is
// counted and surfaced in the snapshot (`events_dropped`, per-ring stats),
// so backpressure is visible rather than silent. A runtime with no monitor
// attached pays one relaxed pointer load per slow-path event site.
//
// Ordering guarantee (the `report()` contract extended to snapshots):
// `snapshot()` first publishes the calling thread's staged write counters
// (`flush_staged_writes`, running any threshold checks that became due) and
// then drains every ring, so all events caused by the calling thread's
// accesses program-order-before the call — including escalations triggered
// by the flush itself — are reflected in the returned snapshot. Other
// threads' events are included up to their latest published ring entries.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cacheline.hpp"
#include "monitor/event_ring.hpp"
#include "runtime/callsite.hpp"
#include "runtime/write_stage.hpp"

namespace pred {

class Runtime;
class Monitor;

struct MonitorConfig {
  /// Events per per-thread ring; rounded up to a power of two. Sizing is a
  /// latency/telemetry-loss trade: the default absorbs ~16k events of
  /// aggregator lag per thread before shedding.
  std::size_t ring_capacity = 1 << 14;
  /// Aggregator wake-up period. Snapshots drain on demand regardless.
  std::uint32_t aggregation_interval_ms = 5;
  /// Hot lines retained in MonitorSnapshot::top_lines.
  std::size_t top_k = 16;
};

/// Immutable view of the aggregated monitor state at one point in time.
struct MonitorSnapshot {
  struct LineEntry {
    Address line_start = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t samples = 0;        ///< sampled accesses (incl. invalidating)
    std::uint64_t sample_writes = 0;  ///< sampled writes among them
    std::uint64_t predictions = 0;    ///< prediction-engine runs on this line
    bool escalated = false;           ///< has a CacheTracker
    // Lazily resolved attribution (object registry lookup off the hot path).
    bool attributed = false;
    bool is_global = false;
    Address object_start = 0;
    CallsiteId callsite = kNoCallsite;
    std::string label;  ///< global name or innermost callsite frame
  };
  struct CallsiteEntry {
    CallsiteId callsite = kNoCallsite;
    std::string label;  ///< innermost frame (or global name, id kNoCallsite)
    std::uint64_t invalidations = 0;
    std::uint64_t samples = 0;
    std::size_t lines = 0;  ///< distinct hot lines attributed here
  };
  struct RingEntry {
    std::uint64_t produced = 0;
    std::uint64_t consumed = 0;
    std::uint64_t dropped = 0;
  };

  std::uint64_t sequence = 0;            ///< increments per snapshot taken
  std::uint64_t events_seen = 0;         ///< aggregated events, all rings
  std::uint64_t events_dropped = 0;      ///< shed by overloaded rings
  std::uint64_t aggregation_passes = 0;  ///< drains so far (timer + snapshot)

  std::uint64_t escalations = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t samples = 0;
  std::uint64_t predictions = 0;
  std::uint64_t virtual_lines = 0;

  std::size_t lines_tracked = 0;  ///< distinct lines with any event
  std::vector<LineEntry> top_lines;       ///< by invalidations, then samples
  std::vector<CallsiteEntry> callsites;   ///< by invalidations, descending
  std::vector<RingEntry> rings;           ///< one per producer thread seen
};

/// Renders a snapshot as a compact periodic-status block (`watch`-friendly).
std::string format_snapshot(const MonitorSnapshot& snap);

namespace detail {
/// TLS binding of the calling thread to its ring in one monitor. Validated
/// against the global runtime generation (bumped by Monitor/Runtime
/// destruction), exactly like FastPathCache, so a stale pointer into a dead
/// monitor is never dereferenced.
struct MonitorTls {
  Monitor* monitor = nullptr;
  EventRing* ring = nullptr;
  std::uint64_t gen = 0;
};
inline thread_local MonitorTls t_monitor_tls;
}  // namespace detail

class Monitor {
 public:
  Monitor(Runtime& runtime, MonitorConfig config);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Installs the monitor into the runtime (slow-path emission begins) and
  /// starts the background aggregator thread. Idempotent.
  void start();

  /// Uninstalls from the runtime, drains every ring one final time, and
  /// joins the aggregator thread. Aggregated state is retained, so
  /// snapshot() keeps working (and start() may be called again). Idempotent.
  void stop();

  bool running() const { return running_; }
  const MonitorConfig& config() const { return config_; }

  /// Builds an immutable snapshot of the aggregated state. Never stops
  /// mutator threads: it flushes the *calling* thread's staged write
  /// counters (same contract as Session::report()), then drains all rings
  /// under the consumer mutex shared with the aggregator thread. Works
  /// whether or not the monitor is running.
  MonitorSnapshot snapshot();

  /// snapshot() rendered through format_snapshot().
  std::string snapshot_text();

  /// Hot-path event publication (called by the runtime's slow path; see
  /// runtime.cpp). Wait-free after the first event per thread: a TLS cache
  /// hit plus one SPSC ring push.
  void emit(MonitorEventType type, Address addr, std::uint64_t arg,
            ThreadId tid) {
    detail::MonitorTls& tls = detail::t_monitor_tls;
    if (tls.monitor != this || tls.gen != runtime_generation()) [[unlikely]] {
      bind_thread_ring();
    }
    tls.ring->push(MonitorEvent{addr, arg, tid, type});
  }

 private:
  /// Per-line aggregate, keyed by line start address.
  struct LineAgg {
    std::uint64_t invalidations = 0;
    std::uint64_t samples = 0;
    std::uint64_t sample_writes = 0;
    std::uint64_t predictions = 0;
    bool escalated = false;
    // Sticky lazy attribution (resolved against the object registry the
    // first time it succeeds).
    bool attribution_tried = false;
    bool attributed = false;
    bool is_global = false;
    Address object_start = 0;
    CallsiteId callsite = kNoCallsite;
    std::string label;
  };

  void bind_thread_ring();             // TLS miss path; allocates on demand
  void aggregator_main();
  void drain_all_locked();             // requires mu_
  void fold_locked(const MonitorEvent& ev);
  void resolve_attribution_locked(Address line_start, LineAgg& agg);
  void refresh_topk_locked();
  MonitorSnapshot build_snapshot_locked();

  Runtime* runtime_;
  const MonitorConfig config_;

  // Consumer-side state: rings list, aggregate maps, and the aggregator
  // thread's lifecycle. One mutex serializes all consumers (the aggregator
  // thread and snapshot callers); mutators only take it on their very first
  // emit (ring creation).
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread aggregator_;

  std::vector<std::unique_ptr<EventRing>> rings_;
  std::unordered_map<std::thread::id, EventRing*> ring_by_thread_;

  std::unordered_map<Address, LineAgg> lines_;
  std::vector<Address> topk_;  ///< current top-K line starts, sorted
  std::uint64_t events_seen_ = 0;
  std::uint64_t aggregation_passes_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t predictions_ = 0;
  std::uint64_t virtual_lines_ = 0;
};

}  // namespace pred
