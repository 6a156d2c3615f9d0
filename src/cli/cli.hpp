// predator-cli's subcommands as a library: flag parsing and every run
// entry live here (tools/predator_cli.cpp is only main), so tests drive
// the exact code the CLI ships, in-process, and capture its output.
//
// Entries write their report to `out` and diagnostics to `err` and return
// the process exit code. None of them calls std::exit. The `analyze`
// subcommand stays ir::run_analyze (instrument/analyze_tool.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/predator.hpp"
#include "collect/transport.hpp"
#include "repair/plan.hpp"
#include "sim/cache_sim.hpp"
#include "workloads/workload.hpp"

namespace pred::cli {

enum class Command {
  kDetect,   ///< default: replay a workload under the detector, print report
  kMonitor,  ///< `monitor NAME`: live run with rolling snapshot telemetry
  kServe,    ///< `serve`: collector daemon on a unix socket
  kFleet,    ///< `fleet NAME`: forked clients into an in-process collector
  kRepair,   ///< `repair [TARGET]`: detect -> plan -> apply -> verify
};

/// A `serve` collector accepts at most this many open connections at once.
/// Extra clients are closed on accept and counted in the exit summary.
/// Matches the largest fleet `fleet --clients` forks.
constexpr std::size_t kMaxServeConnections = 256;

struct CliOptions {
  Command command = Command::kDetect;
  bool help = false;
  bool list = false;
  std::string workload;    ///< --workload, or NAME/TARGET after a subcommand
  wl::Params params;
  /// Detector configuration; parse_cli starts it at a 64 MiB heap.
  SessionOptions session;
  std::size_t replay_quantum = 1;
  bool json = false;
  bool advise_fixes = false;
  bool fail_on_findings = false;
  bool diff_fix = false;
  std::string save_trace;
  std::string plan_file;   ///< --plan: install a saved repair plan
  /// --topology: also replay the trace through this NUMA machine.
  bool topology_set = false;
  NumaConfig topology;
  /// monitor: snapshot period (0: 200 ms). serve: rolling rollup period
  /// (0: off).
  std::uint64_t interval_ms = 0;
  std::uint64_t repeat = 1;  ///< monitor runs / fleet snapshots per client
  std::string emit_to;       ///< unix socket of a `serve` collector
  std::string socket_path;   ///< serve: listen here
  std::uint64_t expect = 0;  ///< serve: exit after N goodbyes (0: never)
  std::uint64_t top_k = 16;
  std::uint64_t clients = 4;  ///< fleet: forked workload processes
  bool repair_static = false;  ///< repair: compile the plan statically
  std::string plan_out;   ///< repair: persist the compiled plan frame file
  std::string emit_plan;  ///< serve: persist the merged fleet plan at exit
};

/// Parses argv after the program name. The first word may name a
/// subcommand (monitor, serve, fleet, repair). Every numeric flag must be
/// a whole unsigned base-10 number inside its bounds (no sign, no
/// overflow); --sampling a finite number in (0, 1]. On a bad flag, a
/// missing value or a missing required argument, returns false with a
/// one-line diagnostic in *err (the caller prints usage).
bool parse_cli(const std::vector<std::string>& args, CliOptions* opts,
               std::string* err);

/// The client half of the collector protocol, shared by every publishing
/// run: the session's hello on construction, then publish() frames, then
/// finish() with the optional repair plan and the goodbye. Once a send
/// fails, later sends are skipped and report false.
class Publisher {
 public:
  /// Takes ownership of `fd`.
  Publisher(Session& session, int fd);
  bool ok() const { return ok_; }
  /// Sends the session's cumulative snapshot.
  bool publish();
  /// Sends `plan` (if non-null and non-empty) stamped with the session
  /// uid, then the goodbye.
  bool finish(const repair::RepairPlan* plan = nullptr);

 private:
  bool send(const std::string& frame);

  Session& session_;
  FdSink sink_;
  bool ok_ = true;
};

/// --list: the registered workloads and their known sites.
int run_list(std::FILE* out);
/// Default command: capture, detect and report one workload (plus
/// --topology, --diff-fix, --emit-to, --plan, --save-trace).
int run_detect(const CliOptions& opts, std::FILE* out, std::FILE* err);
/// Live run; flushes `out` after every rolling snapshot.
int run_monitor(const CliOptions& opts, std::FILE* out, std::FILE* err);
int run_serve(const CliOptions& opts, std::FILE* out, std::FILE* err);
int run_fleet(const CliOptions& opts, std::FILE* out, std::FILE* err);
/// Exit 0 iff the repair is proven; with no target, lists the targets.
int run_repair(const CliOptions& opts, std::FILE* out, std::FILE* err);

}  // namespace pred::cli
