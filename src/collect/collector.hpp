// The fleet collector: many processes' monitor snapshots in, one rollup
// out.
//
//   client Sessions ──publish()──► kSnapshot frames ──transport──► Collector
//
//                     Collector::ingest_frame
//                            │  frame layer: magic/version/CRC checked,
//                            │  corrupt frames rejected and counted
//                            ▼
//                     SnapshotCodec::decode
//                            │  decompose() into per-client / per-line /
//                            │  per-site records (snapshot_merge.hpp)
//                            ▼
//                     FleetState::absorb under one mutex
//                            │  the pointwise newest-wins join
//                            ▼
//                     rollup()
//
// Decoding and decomposition run outside the lock; only the join is
// serialized. Because the join is commutative/associative/idempotent, any
// interleaving of concurrent ingests converges to a sequential oracle
// fold's state exactly — tests/test_collector.cpp stresses this with 64
// simulated clients. The production callers (`serve`, `fleet`) ingest from
// one poll loop, so the one lock is never contended there.
//
// rollup() reduces the state to the conservative [exact, exact+dropped]
// fleet view (see snapshot_merge.hpp for the bound semantics).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "monitor/snapshot_merge.hpp"
#include "repair/plan.hpp"
#include "trace/wire_format.hpp"

namespace pred {

struct CollectorConfig {
  /// Hot lines retained in the rollup.
  std::size_t top_k = 16;
};

class Collector {
 public:
  explicit Collector(CollectorConfig config = {}) : config_(config) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  const CollectorConfig& config() const { return config_; }

  /// Ingests one complete wire frame (header + payload), as produced by
  /// Session::publish() / hello_frame() / goodbye_frame(). Returns false
  /// on frame corruption, version skew, or an unhandled frame type; the
  /// failure is counted in stats().frames_rejected.
  bool ingest_frame(std::string_view frame_bytes);

  /// Ingests a frame already validated by a FrameStreamParser (the
  /// transport read loops use this to avoid re-parsing).
  bool ingest_frame(const wire::Frame& frame);

  /// Ingests an already-decoded snapshot (the loopback fast path and the
  /// oracle tests use this).
  void ingest(std::uint64_t client_uid, std::uint64_t client_pid,
              const MonitorSnapshot& snap);

  /// The fleet rollup. Safe concurrently with ingest (the result is some
  /// join-order of frames ingested so far, which the algebra makes
  /// well-defined).
  FleetRollup rollup() const;
  std::string rollup_text() const { return format_rollup(rollup()); }

  /// A copy of the collector's state — lets tests compare against an
  /// oracle with operator==.
  FleetState state() const;

  /// Union of every plan ingested so far (kRepairPlan frames), merged per
  /// site with best-evidenced-entry-wins semantics (repair::merge_plans) —
  /// the fleet's collective layout advice, served by `serve --emit-plan`.
  repair::RepairPlan merged_plan() const;

  struct Stats {
    std::uint64_t frames_ingested = 0;   ///< valid frames of any type
    std::uint64_t snapshots_ingested = 0;
    std::uint64_t hellos = 0;
    std::uint64_t goodbyes = 0;
    std::uint64_t plans_ingested = 0;    ///< kRepairPlan frames merged
    std::uint64_t frames_rejected = 0;   ///< corrupt/skewed/unknown
  };
  Stats stats() const;

 private:
  CollectorConfig config_;

  // One mutex over the fleet state, the merged plan and the counters.
  mutable std::mutex mu_;
  FleetState state_;
  repair::RepairPlan merged_plan_;
  Stats stats_;
};

}  // namespace pred
