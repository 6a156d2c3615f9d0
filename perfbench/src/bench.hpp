// Shared machinery of the repository benchmark: in-memory spans, per-op
// records, the Pipeline interface every workload implements, and the
// session counters the per-layer metrics read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "api/predator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer: name, start, end, the span that caused it,
/// and the op it belongs to.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Keeps spans in memory while the benchmark runs; they are written out
/// once, after the last op. Disabled tracers record nothing.
class Tracer {
 public:
  bool enabled = false;

  std::int32_t open(const char* name, std::uint32_t op);
  void close(std::int32_t id);

  std::size_t size() const { return spans_.size(); }
  /// Self time per span name (span duration minus the time its direct
  /// children cover) over spans [from, size()), in seconds.
  std::map<std::string, double> self_seconds(std::size_t from) const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::int32_t current_ = -1;
};

/// Wall time of one call into a layer. Always measured (the end-to-end
/// metrics need it); also recorded as a span when the tracer is enabled.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, std::uint32_t op)
      : tracer_(tracer),
        span_(tracer.enabled ? tracer.open(name, op) : -1),
        start_(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the region (idempotent) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(start_);
      if (span_ >= 0) tracer_.close(span_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  std::int32_t span_;
  Clock::time_point start_;
  double seconds_ = 0;
  bool stopped_ = false;
};

/// A span only: records the call when the tracer is enabled and reads no
/// clock otherwise. For calls inside a timed region whose own time no
/// end-to-end metric needs.
class Traced {
 public:
  Traced(Tracer& tracer, const char* name, std::uint32_t op)
      : tracer_(tracer), span_(tracer.enabled ? tracer.open(name, op) : -1) {}
  ~Traced() {
    if (span_ >= 0) tracer_.close(span_);
  }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

// ---------------------------------------------------------------------------
// Ops and pipelines
// ---------------------------------------------------------------------------

/// One execution of one op.
struct OpRecord {
  /// Empty when every check held; otherwise why the op failed.
  std::string failure;
  /// Set when the failure breaks an integrity check (checksums, round
  /// trips, ledgers, determinism) rather than a detection verdict.
  bool integrity_failure = false;
  /// Timed segments (seconds) the end-to-end metrics are computed from.
  std::map<std::string, double> t;
  /// Counters that must repeat exactly for the same input.
  std::map<std::string, std::uint64_t> det;
  /// Per-layer counts, summed over a pass.
  std::map<std::string, double> layer;

  void fail(const std::string& why, bool integrity) {
    if (failure.empty()) failure = why;
    integrity_failure = integrity_failure || integrity;
  }
};

struct Options {
  std::uint64_t seed = 1;
  std::string ir_dir = "examples/ir";
  std::string workdir = ".";
};

/// Arena for the benchmark's own long-lived bookkeeping (per-op samples,
/// per-pass layer totals). Kept apart from the heap the measured code
/// allocates from: interleaved with it, the bookkeeping fragmented that
/// heap and doubled peak_rss_mb on some seeds.
std::pmr::memory_resource* log_arena();

using LogMap = std::pmr::map<std::pmr::string, double, std::less<>>;

/// Adds `v` to `m[key]`.
void accumulate(LogMap& m, std::string_view key, double v);

/// What is kept of every run of one op: its timed segments (the first
/// kMaxSamples runs, in storage reserved at the first run so that the
/// bookkeeping, and with it peak_rss_mb, does not grow with the number of
/// passes), the first run's deterministic counters, and the first failure.
struct OpLog {
  static constexpr std::size_t kMaxSamples = 256;

  std::size_t runs = 0;
  std::pmr::map<std::pmr::string, std::pmr::vector<double>, std::less<>> t{
      log_arena()};
  std::pmr::map<std::pmr::string, std::uint64_t, std::less<>> det{
      log_arena()};
  std::pmr::string failure{log_arena()};
  bool integrity_failure = false;

  void add(const OpRecord& rec);
};

using Samples = std::vector<OpLog>;

/// Median of segment `key` over the runs of op `i`.
double median_segment(const Samples& s, std::size_t i, const std::string& key);
double median(std::vector<double> v);

using MetricMap = std::map<std::string, double>;

/// A workload: inputs made from the seed, a fixed list of ops, and the
/// end-to-end metrics the ops' timed segments give.
class Pipeline {
 public:
  virtual ~Pipeline() = default;
  virtual const char* name() const = 0;
  /// Builds every input from the seed; no op runs here.
  virtual void setup(const Options& options) = 0;
  virtual std::vector<std::string> op_names() const = 0;
  virtual void run_op(std::size_t i, Tracer& tracer, std::uint32_t op_id,
                      OpRecord& rec) = 0;
  virtual void end_to_end(const Samples& samples, MetricMap& out) const = 0;

  /// Session-based ops honour this; the traced run turns it off to measure
  /// what the prediction hook costs (predict.np_delta_s).
  bool prediction = true;
};

// ---------------------------------------------------------------------------
// Session counters
// ---------------------------------------------------------------------------

/// What the runtime's public accessors say about a finished session.
struct SessionCounters {
  std::uint64_t tracked_lines = 0;
  std::uint64_t tracked_accesses = 0;
  std::uint64_t sampled_accesses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t suppressed_accesses = 0;
  std::uint64_t metadata_bytes = 0;
  std::uint64_t candidates = 0;
  std::uint64_t virtual_lines = 0;
  std::uint64_t findings = 0;
};

SessionCounters read_counters(pred::Session& session,
                              const pred::Report& report);

/// Adds the runtime.* / predict.* per-layer counts of one session;
/// `accesses` is the number of accesses delivered to it.
void add_runtime_layer(OpRecord& rec, const SessionCounters& c,
                       std::uint64_t accesses);

}  // namespace perfbench
