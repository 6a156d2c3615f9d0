// predator-cli: command-line driver for the PREDATOR library.
//
// Runs any registered workload under the detector with configurable
// thresholds, prediction, sampling, placement, and fixes; prints the report
// as text or JSON (optionally with fix-advisor prescriptions); can persist
// and reuse trace files; and can act as a CI gate (nonzero exit when false
// sharing is found).
//
// The `monitor` subcommand instead runs the workload live (real threads)
// with the session's monitor attached and prints rolling snapshot telemetry
// while it executes, then the final report.
//
// The `analyze` subcommand parses a textual IR module and prints, per
// function, the static-analysis view (CFG, dominators, natural loops,
// constant facts) plus what the instrumentation pruning passes would do to
// it: baseline selective instrumentation vs. loop batching + chain merging.
//
// The fleet-aggregation subcommands (src/collect/): `serve` runs a
// collector daemon on a unix socket; `--emit-to` makes any run or monitor
// invocation stream its snapshots to such a collector; `fleet` is the
// one-command demo — it forks N workload processes, each publishing over
// its own socketpair into an in-process collector, and prints the
// fleet-wide hot-line/callsite rollup with [exact, exact+dropped] bounds.
//
// The `repair` subcommand (src/repair/) closes the loop on a planted
// false-sharing target: detect, compile a RepairPlan, apply it (allocator
// padding or IR rewrite), re-run, and prove the invalidations dropped while
// the workload's checksum stayed bit-identical. Exit 0 iff the repair is
// proven. `--emit-to` runs also stream their compiled plan to the
// collector, which `serve --emit-plan` persists merged.
//
//   predator-cli --list
//   predator-cli --workload histogram --threads 8 --advise
//   predator-cli --workload linear_regression --offset 24 --json
//   predator-cli --workload mysql --no-prediction --fail-on-findings
//   predator-cli --workload boost --save-trace /tmp/boost.trace
//   predator-cli monitor histogram --repeat 50 --interval-ms 250
//   predator-cli analyze examples/ir/hammer.pir
//   predator-cli serve --socket /tmp/pred.sock --expect 4
//   predator-cli --workload histogram --emit-to /tmp/pred.sock
//   predator-cli fleet histogram --clients 16 --json
//   predator-cli repair counter_pool --plan-out /tmp/pool.plan
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "advice/fix_advisor.hpp"
#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "instrument/analyze_tool.hpp"
#include "repair/plan_codec.hpp"
#include "repair/planner.hpp"
#include "repair/targets.hpp"
#include "repair/verifier.hpp"
#include "report_io/json_writer.hpp"
#include "report_io/report_diff.hpp"
#include "report_io/report_json.hpp"
#include "report_io/snapshot_json.hpp"
#include "sim/cache_sim.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace pred;

namespace {

struct CliOptions {
  std::string workload;
  std::string save_trace;
  std::string plan_file;  ///< repair plan applied to this run's allocator
  wl::Params params;
  SessionOptions session;
  bool list = false;
  bool json = false;
  bool advise_fixes = false;
  bool fail_on_findings = false;
  bool no_prediction = false;
  bool diff_fix = false;
  std::size_t replay_quantum = 1;
  // `monitor` subcommand state.
  bool monitor_mode = false;
  std::uint64_t monitor_interval_ms = 200;
  std::uint64_t monitor_repeat = 1;
  // Fleet aggregation (serve / --emit-to / fleet).
  std::string emit_to;  ///< unix socket of a `serve` collector
  bool serve_mode = false;
  std::string socket_path;
  std::uint64_t serve_expect = 0;  ///< exit after N goodbyes (0: until killed)
  std::uint64_t serve_interval_ms = 0;  ///< rolling rollup period (0: off)
  std::uint64_t top_k = 16;
  bool fleet_mode = false;
  std::uint64_t fleet_clients = 4;
  // `repair` subcommand state.
  bool repair_mode = false;
  bool repair_static = false;  ///< compile the plan statically (no profiling)
  std::string plan_out;   ///< repair: persist the compiled plan frame file
  std::string emit_plan;  ///< serve: persist the merged fleet plan at exit
  // --topology: also replay the captured trace through the two-level NUMA
  // simulator and report hot lines with remote/local cost attribution.
  bool topology_set = false;
  NumaConfig topology;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s --workload NAME [options]\n"
      "       %s monitor NAME [--interval-ms N] [--repeat N] [options]\n"
      "       %s analyze FILE.pir [--json] [--predict] [--line-size N]\n"
      "       %s serve --socket PATH [--expect N] [options]\n"
      "       %s fleet NAME [--clients N] [options]\n"
      "       %s repair [TARGET] [--plan-out FILE] [options]\n"
      "       %s --list\n\n"
      "workload selection:\n"
      "  --list                 list available workloads and exit\n"
      "  --workload NAME        workload to analyze (required otherwise)\n"
      "  --threads N            logical threads (default 8)\n"
      "  --scale N              work multiplier (default 1)\n"
      "  --offset BYTES         placement offset for offset-sensitive "
      "kernels\n"
      "  --fix MASK             bitmask of sites to fix (site i -> bit i)\n\n"
      "detector configuration:\n"
      "  --no-prediction        run as PREDATOR-NP (observed-only)\n"
      "  --sampling RATE        sampling rate in (0,1], default 0.01\n"
      "  --tracking-threshold N writes before detailed tracking "
      "(default 100)\n"
      "  --report-threshold N   invalidations before reporting "
      "(default 100)\n"
      "  --quantum N            replay interleaving quantum (default 1)\n\n"
      "topology simulation:\n"
      "  --topology SxC         also replay the trace through the two-level\n"
      "                         NUMA simulator with S sockets x C cores per\n"
      "                         socket (e.g. 2x4, 4x16) and print hot lines\n"
      "                         with remote-traffic attribution\n"
      "  --remote-factor F      cross-socket latency multiplier (default 3)\n"
      "  --placement MODE       core numbering: compact | scatter\n"
      "                         (default compact; scatter puts neighbor\n"
      "                         threads on alternating sockets)\n"
      "  --llc-line N           per-socket LLC line size (default 64; a\n"
      "                         larger value models a coarser directory\n"
      "                         grain that also kills sibling lines)\n\n"
      "output:\n"
      "  --json                 print the report as JSON\n"
      "  --advise               append fix-advisor prescriptions\n"
      "  --save-trace FILE      also save the captured trace\n"
      "  --plan FILE            install a saved repair plan (a frame file\n"
      "                         from repair --plan-out or serve\n"
      "                         --emit-plan) into this run's allocator, so\n"
      "                         the workload executes on the repaired\n"
      "                         layout\n"
      "  --fail-on-findings     exit 2 when false sharing is reported\n"
      "  --diff-fix             also run the fixed variant and print the\n"
      "                         before/after report diff\n\n"
      "monitor subcommand (live run with rolling telemetry):\n"
      "  --interval-ms N        snapshot print period (default 200)\n"
      "  --repeat N             run the workload N times (default 1) to\n"
      "                         lengthen the observable window\n\n"
      "analyze subcommand (static analysis of a textual IR module):\n"
      "  prints per-function CFG/dominator/loop/constant statistics and\n"
      "  the baseline vs. fully-pruned instrumentation ledger\n"
      "  --json                 emit the same data as one JSON document\n"
      "  --predict              also run the static false-sharing predictor\n"
      "                         (thread roles = call-graph root functions)\n"
      "  --line-size N          base cache-line geometry for --predict\n"
      "                         (default 64; latent conflicts reported at\n"
      "                         2N)\n\n"
      "fleet aggregation:\n"
      "  serve --socket PATH    run a collector daemon on a unix socket\n"
      "    --expect N           exit once N clients said goodbye\n"
      "    --top-k N            hot lines kept in the rollup (default 16)\n"
      "    --interval-ms N      also print a rolling rollup every N ms\n"
      "  --emit-to PATH         stream this run's snapshots to a collector\n"
      "                         (works with the default and monitor modes)\n"
      "  fleet NAME             fork N workload processes into an\n"
      "    --clients N          in-process collector and print the\n"
      "                         fleet-wide rollup (default 4 clients;\n"
      "                         --repeat snapshots per client)\n"
      "    --emit-plan FILE     serve: persist the merged fleet repair\n"
      "                         plan as a frame file at exit\n\n"
      "repair subcommand (closed loop: detect -> plan -> apply -> verify):\n"
      "  repair                 with no TARGET: list the planted targets\n"
      "  repair TARGET          run the loop; exit 0 iff the repair is\n"
      "                         proven (invalidation drop >= 90%% on the\n"
      "                         planned sites, no surviving finding, and a\n"
      "                         bit-identical workload checksum)\n"
      "  --plan-out FILE        persist the compiled plan as a frame file\n"
      "  --static               compile the plan from the static predictor\n"
      "                         (no profiling run informs it); the runs\n"
      "                         that follow only measure the drop\n"
      "  (--threads/--scale/--quantum/--json apply)\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, CliOptions* opt) {
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "monitor") == 0) {
    opt->monitor_mode = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    opt->serve_mode = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "fleet") == 0) {
    opt->fleet_mode = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "repair") == 0) {
    opt->repair_mode = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--list") {
      opt->list = true;
    } else if (arg == "--workload") {
      const char* s = next("--workload");
      if (!s) return false;
      opt->workload = s;
    } else if (arg == "--threads") {
      const char* s = next("--threads");
      if (!s || !parse_u64(s, &v) || v == 0 || v > 64) return false;
      opt->params.threads = static_cast<std::uint32_t>(v);
    } else if (arg == "--scale") {
      const char* s = next("--scale");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->params.scale = v;
    } else if (arg == "--offset") {
      const char* s = next("--offset");
      if (!s || !parse_u64(s, &v) || v >= 128) return false;
      opt->params.offset = v;
    } else if (arg == "--fix") {
      const char* s = next("--fix");
      if (!s || !parse_u64(s, &v)) return false;
      opt->params.fix_mask = static_cast<std::uint32_t>(v);
    } else if (arg == "--no-prediction") {
      opt->no_prediction = true;
    } else if (arg == "--sampling") {
      const char* s = next("--sampling");
      if (!s) return false;
      const double rate = std::atof(s);
      if (rate <= 0.0 || rate > 1.0) return false;
      opt->session.runtime.set_sampling_rate(rate);
    } else if (arg == "--tracking-threshold") {
      const char* s = next("--tracking-threshold");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->session.runtime.tracking_threshold = v;
      if (opt->session.runtime.prediction_threshold < v) {
        opt->session.runtime.prediction_threshold = v;
      }
    } else if (arg == "--report-threshold") {
      const char* s = next("--report-threshold");
      if (!s || !parse_u64(s, &v)) return false;
      opt->session.runtime.report_invalidation_threshold = v;
    } else if (arg == "--quantum") {
      const char* s = next("--quantum");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->replay_quantum = v;
    } else if (arg == "--topology") {
      const char* s = next("--topology");
      if (!s) return false;
      // Bounds checked by division, so no S*C product can wrap.
      const char* x = std::strchr(s, 'x');
      std::uint64_t sockets = 0, cores = 0;
      if (x == nullptr || !parse_u64(std::string(s, x).c_str(), &sockets) ||
          !parse_u64(x + 1, &cores) || sockets < 1 ||
          sockets > CacheSim::kMaxSockets || cores < 1 ||
          cores > CacheSim::kMaxCores / sockets) {
        std::fprintf(stderr,
                     "bad --topology (want SxC with 1 <= S <= %u and S*C "
                     "<= %u, e.g. 2x4)\n",
                     CacheSim::kMaxSockets, CacheSim::kMaxCores);
        return false;
      }
      opt->topology_set = true;
      opt->topology.sockets = static_cast<std::uint32_t>(sockets);
      opt->topology.cores_per_socket = static_cast<std::uint32_t>(cores);
    } else if (arg == "--remote-factor") {
      const char* s = next("--remote-factor");
      if (!s) return false;
      char* end = nullptr;
      const double f = std::strtod(s, &end);
      if (end == s || *end != '\0' || !std::isfinite(f) || f < 1.0 ||
          f > CacheSim::kMaxRemoteFactor) {
        std::fprintf(stderr,
                     "bad --remote-factor (want a finite number in [1, "
                     "%g])\n",
                     CacheSim::kMaxRemoteFactor);
        return false;
      }
      opt->topology.remote_factor = f;
    } else if (arg == "--placement") {
      const char* s = next("--placement");
      if (!s) return false;
      if (std::strcmp(s, "compact") == 0) {
        opt->topology.placement = NumaPlacement::kCompact;
      } else if (std::strcmp(s, "scatter") == 0) {
        opt->topology.placement = NumaPlacement::kScatter;
      } else {
        std::fprintf(stderr, "bad --placement (compact | scatter)\n");
        return false;
      }
    } else if (arg == "--llc-line") {
      const char* s = next("--llc-line");
      if (!s || !parse_u64(s, &v) || v < 64 || v % 64 != 0 ||
          v > CacheSim::kMaxLlcLineSize) {
        std::fprintf(stderr,
                     "bad --llc-line (want a multiple of 64 up to %zu)\n",
                     CacheSim::kMaxLlcLineSize);
        return false;
      }
      opt->topology.llc_line_size = v;
    } else if (arg == "--json") {
      opt->json = true;
    } else if (arg == "--advise") {
      opt->advise_fixes = true;
    } else if (arg == "--save-trace") {
      const char* s = next("--save-trace");
      if (!s) return false;
      opt->save_trace = s;
    } else if (arg == "--plan") {
      const char* s = next("--plan");
      if (!s) return false;
      opt->plan_file = s;
    } else if (arg == "--fail-on-findings") {
      opt->fail_on_findings = true;
    } else if (arg == "--diff-fix") {
      opt->diff_fix = true;
    } else if (arg == "--interval-ms") {
      const char* s = next("--interval-ms");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->monitor_interval_ms = v;
      opt->serve_interval_ms = v;
    } else if (arg == "--repeat") {
      const char* s = next("--repeat");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->monitor_repeat = v;
    } else if (arg == "--emit-to") {
      const char* s = next("--emit-to");
      if (!s) return false;
      opt->emit_to = s;
    } else if (arg == "--socket") {
      const char* s = next("--socket");
      if (!s) return false;
      opt->socket_path = s;
    } else if (arg == "--expect") {
      const char* s = next("--expect");
      if (!s || !parse_u64(s, &v)) return false;
      opt->serve_expect = v;
    } else if (arg == "--top-k") {
      const char* s = next("--top-k");
      if (!s || !parse_u64(s, &v) || v == 0) return false;
      opt->top_k = v;
    } else if (arg == "--clients") {
      const char* s = next("--clients");
      if (!s || !parse_u64(s, &v) || v == 0 || v > 256) return false;
      opt->fleet_clients = v;
    } else if (arg == "--plan-out") {
      const char* s = next("--plan-out");
      if (!s) return false;
      opt->plan_out = s;
    } else if (arg == "--static" && opt->repair_mode) {
      opt->repair_static = true;
    } else if (arg == "--emit-plan") {
      const char* s = next("--emit-plan");
      if (!s) return false;
      opt->emit_plan = s;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if ((opt->monitor_mode || opt->fleet_mode || opt->repair_mode) &&
               arg.rfind("--", 0) != 0 && opt->workload.empty()) {
      opt->workload = arg;  // `monitor NAME` / `fleet NAME` positional
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// --topology: replay the same captured traces through the two-level NUMA
// simulator plus a 1-socket baseline with identical core count and costs,
// then print the big-machine verdict — remote/local cycle ratio, the
// interconnect traffic breakdown, and the hottest lines attributed back to
// their allocation sites. With `json_out` set, the verdict is serialized as
// one JSON object (the value of the report document's "topology" key — the
// whole --json output must stay a single parseable document) instead of
// printed.
void run_topology_sim(const CliOptions& opt, Session& session,
                      const std::vector<ThreadTrace>& traces,
                      std::string* json_out) {
  const NumaConfig& cfg = opt.topology;
  NumaConfig base = cfg;
  base.sockets = 1;
  base.cores_per_socket = cfg.total_cores();
  base.llc_line_size = cfg.line_size;
  CacheSim local(base);
  CacheSim numa(cfg);
  simulate_interleaved(local, traces, opt.replay_quantum);
  simulate_interleaved(numa, traces, opt.replay_quantum);
  const SimStats& s = numa.stats();
  const double ratio =
      local.max_core_cycles() == 0
          ? 1.0
          : static_cast<double>(numa.max_core_cycles()) /
                static_cast<double>(local.max_core_cycles());

  auto site_of = [&](Address a) -> std::string {
    const auto obj = session.runtime().objects().find(a);
    if (!obj) return "?";
    if (obj->is_global && !obj->name.empty()) return obj->name;
    if (obj->callsite != kNoCallsite) {
      const auto& frames =
          session.runtime().callsites().get(obj->callsite).frames;
      if (!frames.empty()) return frames.back();
    }
    return "?";
  };
  const auto hot = numa.hottest_lines(8);
  const char* placement =
      cfg.placement == NumaPlacement::kScatter ? "scatter" : "compact";

  if (json_out != nullptr) {
    JsonWriter w;
    w.begin_object();
    w.field("sockets", static_cast<std::uint64_t>(cfg.sockets));
    w.field("cores_per_socket",
            static_cast<std::uint64_t>(cfg.cores_per_socket));
    w.field("placement", placement);
    w.field("remote_factor", cfg.remote_factor);
    w.field("llc_line_size", static_cast<std::uint64_t>(cfg.llc_line_size));
    w.field("max_core_cycles", numa.max_core_cycles());
    w.field("local_max_core_cycles", local.max_core_cycles());
    w.field("remote_ratio", ratio);
    w.field("remote_coherence_misses", s.remote_coherence_misses);
    w.field("remote_invalidations", s.remote_invalidations_sent);
    w.field("directory_transitions", s.directory_transitions);
    w.field("llc_sibling_invalidations", s.llc_sibling_invalidations);
    w.key("hot_lines").begin_array();
    for (const auto& h : hot) {
      w.begin_object();
      w.field("addr", static_cast<std::uint64_t>(h.line_start));
      w.field("invalidations", h.invalidations);
      w.field("remote_invalidations", h.remote_invalidations);
      w.field("site", site_of(h.line_start));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    *json_out = w.str();
    return;
  }

  std::printf("\n=== topology %ux%u (%s, remote x%.1f, llc %zuB) ===\n",
              cfg.sockets, cfg.cores_per_socket, placement, cfg.remote_factor,
              cfg.llc_line_size);
  std::printf("modeled cycles: %llu (1-socket baseline %llu, "
              "remote/local ratio %.2fx)\n",
              static_cast<unsigned long long>(numa.max_core_cycles()),
              static_cast<unsigned long long>(local.max_core_cycles()), ratio);
  std::printf("remote traffic: coherence %llu, shared fetches %llu, "
              "cold %llu, invalidations %llu\n",
              static_cast<unsigned long long>(s.remote_coherence_misses),
              static_cast<unsigned long long>(s.remote_shared_fetches),
              static_cast<unsigned long long>(s.remote_cold_misses),
              static_cast<unsigned long long>(s.remote_invalidations_sent));
  std::printf("directory: transitions %llu, socket invalidations %llu, "
              "llc sibling kills %llu\n",
              static_cast<unsigned long long>(s.directory_transitions),
              static_cast<unsigned long long>(s.directory_invalidations),
              static_cast<unsigned long long>(s.llc_sibling_invalidations));
  if (!hot.empty()) {
    std::printf("hot lines (top %zu):\n", hot.size());
    for (const auto& h : hot) {
      std::printf("  0x%llx inv=%llu remote=%llu  %s\n",
                  static_cast<unsigned long long>(h.line_start),
                  static_cast<unsigned long long>(h.invalidations),
                  static_cast<unsigned long long>(h.remote_invalidations),
                  site_of(h.line_start).c_str());
    }
  }
}

int list_workloads() {
  std::printf("%-20s %-8s %s\n", "name", "suite", "known sites");
  for (const auto& w : wl::all_workloads()) {
    std::string sites;
    for (const auto& s : w->traits().sites) {
      if (!sites.empty()) sites += ", ";
      sites += s.where;
      if (s.needs_prediction) sites += " [latent]";
    }
    std::printf("%-20s %-8s %s\n", w->traits().name.c_str(),
                w->traits().suite.c_str(),
                sites.empty() ? "(clean)" : sites.c_str());
  }
  return 0;
}

// Connects to a `serve` collector and sends the hello bracket. Null (with
// a diagnostic) when the endpoint is unreachable.
std::unique_ptr<FdSink> open_emit_sink(const std::string& path,
                                       Session& session) {
  const int fd = connect_unix(path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to collector at %s\n", path.c_str());
    return nullptr;
  }
  auto sink = std::make_unique<FdSink>(fd);
  if (!sink->send(session.hello_frame())) {
    std::fprintf(stderr, "collector at %s hung up\n", path.c_str());
    return nullptr;
  }
  return sink;
}

// `monitor` subcommand: run the workload live (real threads) with the
// session monitor attached, print a rolling snapshot every interval, then
// the final report. Demonstrates that snapshots are served while mutators
// run — the printing happens from the main thread with no pauses. With
// --emit-to, every printed snapshot is also published to the collector.
int run_monitor(const CliOptions& opt, const wl::Workload* w) {
  Session session(opt.session);
  session.monitor().start();

  std::unique_ptr<FdSink> emit;
  if (!opt.emit_to.empty()) {
    emit = open_emit_sink(opt.emit_to, session);
    if (!emit) return 1;
  }

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (std::uint64_t r = 0; r < opt.monitor_repeat; ++r) {
      w->run_live(session, opt.params);
    }
    done.store(true, std::memory_order_release);
  });

  const auto interval = std::chrono::milliseconds(opt.monitor_interval_ms);
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    std::printf("%s\n", session.monitor().snapshot_text().c_str());
    std::fflush(stdout);
    if (emit) emit->send(session.publish());
  }
  worker.join();

  if (emit) {
    emit->send(session.publish());
    emit->send(session.goodbye_frame());
  }
  session.monitor().stop();

  std::printf("=== final snapshot ===\n%s\n",
              session.monitor().snapshot_text().c_str());
  std::printf("=== final report ===\n%s",
              format_report(session.report(),
                            session.runtime().callsites()).c_str());
  if (opt.fail_on_findings &&
      wl::false_sharing_findings(session.report()) > 0) {
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fleet aggregation: serve / fleet
// ---------------------------------------------------------------------------

// One transport connection into the collector: the fd plus the incremental
// parser reassembling frames across read() boundaries.
struct ClientConn {
  int fd = -1;
  FrameStreamParser parser;
  bool open = true;
};

// One POLLIN's worth of bytes: read once, feed the parser, ingest every
// complete frame. EOF or a poisoned stream closes the connection.
void drain_conn(Collector& collector, ClientConn& conn) {
  char buf[4096];
  ssize_t n;
  do {
    n = ::read(conn.fd, buf, sizeof buf);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    conn.open = false;
    ::close(conn.fd);
    return;
  }
  conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  wire::Frame frame;
  while (conn.parser.next(&frame)) collector.ingest_frame(frame);
  if (conn.parser.poisoned()) {
    std::fprintf(stderr, "dropping client: corrupt frame stream\n");
    conn.open = false;
    ::close(conn.fd);
  }
}

void print_rollup(const Collector& collector, bool json) {
  if (json) {
    const repair::RepairPlan plan = collector.merged_plan();
    std::printf("%s\n",
                rollup_json(collector.rollup(),
                            plan.empty() ? nullptr : &plan)
                    .c_str());
  } else {
    std::printf("%s", collector.rollup_text().c_str());
  }
  std::fflush(stdout);
}

// `serve` subcommand: collector daemon on a unix socket. Single-threaded
// poll loop (the Collector itself is what's thread-safe; the daemon needs
// no threads). With --expect N it exits once N clients said goodbye and
// every connection drained; otherwise it runs until killed.
int run_serve(const CliOptions& opt) {
  const int lfd = listen_unix(opt.socket_path);
  if (lfd < 0) {
    std::fprintf(stderr, "cannot listen on %s\n", opt.socket_path.c_str());
    return 1;
  }
  Collector collector({static_cast<std::size_t>(opt.top_k)});
  std::fprintf(stderr, "collector: listening on %s\n",
               opt.socket_path.c_str());

  std::vector<ClientConn> conns;
  const bool periodic = opt.serve_interval_ms != 0;
  for (;;) {
    std::vector<pollfd> pfds;
    pfds.push_back({lfd, POLLIN, 0});
    for (const ClientConn& c : conns) {
      if (c.open) pfds.push_back({c.fd, POLLIN, 0});
    }
    const int timeout =
        periodic ? static_cast<int>(opt.serve_interval_ms) : -1;
    const int ready = ::poll(pfds.data(), pfds.size(), timeout);
    if (ready < 0 && errno != EINTR) break;

    if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
      const int cfd = ::accept(lfd, nullptr, nullptr);
      if (cfd >= 0) {
        ClientConn conn;
        conn.fd = cfd;
        conns.push_back(std::move(conn));
      }
    }
    std::size_t pi = 1;
    for (ClientConn& c : conns) {
      if (!c.open) continue;
      if (pi < pfds.size() && pfds[pi].fd == c.fd &&
          (pfds[pi].revents & (POLLIN | POLLHUP)) != 0) {
        drain_conn(collector, c);
      }
      ++pi;
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const ClientConn& c) { return !c.open; }),
                conns.end());

    if (ready == 0 && periodic) print_rollup(collector, opt.json);
    if (opt.serve_expect != 0 &&
        collector.stats().goodbyes >= opt.serve_expect && conns.empty()) {
      break;
    }
  }
  ::close(lfd);
  ::unlink(opt.socket_path.c_str());

  const Collector::Stats st = collector.stats();
  std::fprintf(stderr,
               "collector: %llu frame(s) (%llu snapshot(s), %llu hello(s), "
               "%llu goodbye(s), %llu plan(s)), %llu rejected\n",
               static_cast<unsigned long long>(st.frames_ingested),
               static_cast<unsigned long long>(st.snapshots_ingested),
               static_cast<unsigned long long>(st.hellos),
               static_cast<unsigned long long>(st.goodbyes),
               static_cast<unsigned long long>(st.plans_ingested),
               static_cast<unsigned long long>(st.frames_rejected));
  if (!opt.emit_plan.empty()) {
    const repair::RepairPlan merged = collector.merged_plan();
    if (repair::save_plan_file(opt.emit_plan, merged)) {
      std::fprintf(stderr, "collector: merged plan (%zu entr%s) -> %s\n",
                   merged.entries.size(),
                   merged.entries.size() == 1 ? "y" : "ies",
                   opt.emit_plan.c_str());
    } else {
      std::fprintf(stderr, "collector: cannot write plan to %s\n",
                   opt.emit_plan.c_str());
      return 1;
    }
  }
  print_rollup(collector, opt.json);
  return 0;
}

// One forked fleet client: replay the workload deterministically,
// publishing a cumulative snapshot after every repeat, bracketed by
// hello/goodbye. Exits the process (never returns).
[[noreturn]] void run_fleet_client(const CliOptions& opt,
                                   const wl::Workload* w, int fd) {
  Session session(opt.session);
  session.monitor().start();
  FdSink sink(fd);
  bool ok = sink.send(session.hello_frame());
  for (std::uint64_t r = 0; r < opt.monitor_repeat && ok; ++r) {
    w->run_replay(session, opt.params, opt.replay_quantum);
    ok = sink.send(session.publish());
  }
  if (ok) ok = sink.send(session.goodbye_frame());
  session.monitor().stop();
  std::_Exit(ok ? 0 : 1);
}

// `fleet` subcommand: the end-to-end demo. Forks --clients workload
// processes, each streaming snapshots over its own socketpair, drains them
// all into an in-process collector, and prints the fleet rollup. Children
// replay captured traces, so the demo is deterministic even on one core.
int run_fleet(const CliOptions& opt, const wl::Workload* w) {
  Collector collector({static_cast<std::size_t>(opt.top_k)});
  std::vector<ClientConn> conns;
  std::vector<pid_t> pids;

  for (std::uint64_t c = 0; c < opt.fleet_clients; ++c) {
    int fds[2];
    if (!make_socketpair(fds)) {
      std::fprintf(stderr, "socketpair failed for client %llu\n",
                   static_cast<unsigned long long>(c));
      return 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed for client %llu\n",
                   static_cast<unsigned long long>(c));
      return 1;
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (const ClientConn& prev : conns) ::close(prev.fd);
      run_fleet_client(opt, w, fds[1]);  // _Exits
    }
    ::close(fds[1]);
    ClientConn conn;
    conn.fd = fds[0];
    conns.push_back(std::move(conn));
    pids.push_back(pid);
  }

  // Drain every socketpair until all children closed their end.
  std::size_t open = conns.size();
  while (open > 0) {
    std::vector<pollfd> pfds;
    for (const ClientConn& c : conns) {
      if (c.open) pfds.push_back({c.fd, POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0 && errno != EINTR) break;
    std::size_t pi = 0;
    for (ClientConn& c : conns) {
      if (!c.open) continue;
      if ((pfds[pi].revents & (POLLIN | POLLHUP)) != 0) {
        drain_conn(collector, c);
        if (!c.open) --open;
      }
      ++pi;
    }
  }

  int failed = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed;
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d fleet client(s) failed\n", failed);
  }

  const Collector::Stats st = collector.stats();
  std::fprintf(stderr,
               "fleet: %llu client(s), %llu snapshot(s) ingested, "
               "%llu rejected\n",
               static_cast<unsigned long long>(opt.fleet_clients),
               static_cast<unsigned long long>(st.snapshots_ingested),
               static_cast<unsigned long long>(st.frames_rejected));
  print_rollup(collector, opt.json);
  return failed > 0 ? 1 : 0;
}

int list_repair_targets() {
  std::printf("%-16s %s\n", "target", "defect");
  for (const repair::RepairTarget* t : repair::all_repair_targets()) {
    std::printf("%-16s %s\n", std::string(t->name()).c_str(),
                std::string(t->description()).c_str());
  }
  return 0;
}

// `repair` subcommand: run the closed loop on a planted target and report
// the verdict. Exit 0 iff the repair is proven (drop >= threshold, no
// surviving finding on the planned sites, bit-identical checksum).
int run_repair(const CliOptions& opt) {
  if (opt.workload.empty() || opt.list) return list_repair_targets();
  const repair::RepairTarget* target =
      repair::find_repair_target(opt.workload);
  if (target == nullptr) {
    std::fprintf(stderr, "unknown repair target '%s' (run `repair` with no "
                         "name to list them)\n",
                 opt.workload.c_str());
    return 1;
  }

  repair::VerifierOptions vopt;
  vopt.threads = opt.params.threads;
  vopt.scale = opt.params.scale;
  vopt.quantum = opt.replay_quantum;
  if (opt.repair_static) {
    repair::StaticModuleSpec probe;
    if (!target->static_spec(&probe, vopt.threads, vopt.scale)) {
      std::fprintf(stderr, "target '%s' has no static module spec; "
                           "--static needs an IR-describable target\n",
                   opt.workload.c_str());
      return 1;
    }
  }
  const repair::RepairOutcome outcome =
      opt.repair_static ? repair::run_static_repair_loop(*target, vopt)
                        : repair::run_repair_loop(*target, vopt);

  if (!opt.plan_out.empty()) {
    if (!repair::save_plan_file(opt.plan_out, outcome.plan)) {
      std::fprintf(stderr, "cannot write plan to %s\n", opt.plan_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "plan: %zu entr%s -> %s\n",
                 outcome.plan.entries.size(),
                 outcome.plan.entries.size() == 1 ? "y" : "ies",
                 opt.plan_out.c_str());
  }

  const bool proven = outcome.repaired(vopt.drop_threshold);
  if (opt.json) {
    JsonWriter w;
    w.begin_object();
    w.field("target", std::string(target->name()));
    w.field("static", opt.repair_static);
    w.field("repaired", proven);
    w.field("baseline_invalidations", outcome.baseline_invalidations);
    w.field("repaired_invalidations", outcome.repaired_invalidations);
    w.field("drop_pct", outcome.drop_pct());
    w.field("drop_threshold", vopt.drop_threshold);
    w.field("surviving_site_findings",
            static_cast<std::uint64_t>(outcome.repaired_site_findings));
    w.field("baseline_checksum", outcome.baseline_checksum);
    w.field("repaired_checksum", outcome.repaired_checksum);
    w.field("checksums_match", outcome.checksums_match());
    w.field("detect_ms", outcome.detect_ms);
    w.field("plan_ms", outcome.plan_ms);
    w.field("apply_ms", outcome.apply_ms);
    w.field("verify_ms", outcome.verify_ms);
    w.key("repair_plan").begin_object();
    write_plan_fields(w, outcome.plan);
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s\n%s", repair::format_plan(outcome.plan).c_str(),
                repair::format_outcome(outcome, vopt.drop_threshold).c_str());
  }
  return proven ? 0 : 2;
}

// `analyze` subcommand: delegates to the shared analyze tool (also the
// library entry point the tests drive), which prints the per-function
// CFG/dominator/loop/constant view, the call graph and access summaries,
// and the module-wide instrumentation ledger -- plus the static
// false-sharing prediction report under --predict, or everything as one
// JSON document under --json.
int run_analyze_cmd(const char* argv0, const std::vector<std::string>& args) {
  ir::AnalyzeOptions aopt;
  std::string err;
  if (!ir::parse_analyze_args(args, &aopt, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    usage(argv0);
    return 1;
  }
  std::string out;
  const int rc = ir::run_analyze(aopt, &out, &err);
  if (!out.empty()) std::fputs(out.c_str(), stdout);
  if (!err.empty()) std::fprintf(stderr, "%s\n", err.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "analyze") == 0) {
    return run_analyze_cmd(argv[0],
                           std::vector<std::string>(argv + 2, argv + argc));
  }
  CliOptions opt;
  opt.session.heap_size = 64 * 1024 * 1024;
  if (!parse_args(argc, argv, &opt)) {
    usage(argv[0]);
    return 1;
  }
  if (opt.repair_mode) return run_repair(opt);
  if (opt.list) return list_workloads();
  // A dead collector must surface as a failed send, not a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (opt.serve_mode) {
    if (opt.socket_path.empty()) {
      usage(argv[0]);
      return 1;
    }
    return run_serve(opt);
  }
  if (opt.workload.empty()) {
    usage(argv[0]);
    return 1;
  }
  const wl::Workload* w = wl::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 opt.workload.c_str());
    return 1;
  }

  opt.session.runtime.prediction_enabled = !opt.no_prediction;
  if (opt.monitor_mode) return run_monitor(opt, w);
  if (opt.fleet_mode) return run_fleet(opt, w);
  Session session(opt.session);

  // --plan: the saved plan must be live in the allocator before the
  // workload allocates anything, or heap sites would miss their padding.
  if (!opt.plan_file.empty()) {
    repair::RepairPlan loaded;
    if (!repair::load_plan_file(opt.plan_file, &loaded)) {
      std::fprintf(stderr, "cannot load repair plan from %s\n",
                   opt.plan_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "plan: %zu entr%s installed from %s\n",
                 loaded.entries.size(),
                 loaded.entries.size() == 1 ? "y" : "ies",
                 opt.plan_file.c_str());
    session.allocator().install_repair_plan(
        std::make_shared<const repair::RepairPlan>(std::move(loaded)));
  }

  // --emit-to: publish this run's snapshots to a `serve` collector. The
  // monitor must observe the replay, so start it before events flow.
  std::unique_ptr<FdSink> emit;
  if (!opt.emit_to.empty()) {
    emit = open_emit_sink(opt.emit_to, session);
    if (!emit) return 1;
    session.monitor().start();
  }

  const auto traces = w->capture(session, opt.params);
  if (!opt.save_trace.empty()) {
    if (!save_traces_file(opt.save_trace, traces)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   opt.save_trace.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu events -> %s\n", total_events(traces),
                 opt.save_trace.c_str());
  }
  wl::replay_into_session(session, traces, opt.replay_quantum);

  const Report report = session.report();
  std::vector<FixSuggestion> suggestions;
  repair::RepairPlan plan;
  if (opt.advise_fixes || emit) {
    suggestions = advise(report);
    plan = repair::compile_plan(report, suggestions,
                                session.runtime().callsites());
  }

  if (emit) {
    emit->send(session.publish());
    // The compiled plan rides along so a `serve --emit-plan` collector can
    // merge repair advice across the fleet, bracketed before the goodbye.
    // The session uid is stamped only on the emitted copy: local reports
    // stay byte-identical across runs (deterministic-replay invariant),
    // while the collector still gets per-session provenance.
    if (!plan.empty()) {
      repair::RepairPlan tagged = plan;
      tagged.origin_uid = session.uid();
      emit->send(repair::encode_plan_frame(tagged));
    }
    emit->send(session.goodbye_frame());
    session.monitor().stop();
  }

  if (opt.json) {
    std::string doc =
        report_to_json(report, session.runtime().callsites(),
                       opt.advise_fixes ? &suggestions : nullptr,
                       opt.advise_fixes && !plan.empty() ? &plan : nullptr);
    if (opt.topology_set) {
      // Splice the topology verdict into the report document so --json
      // still emits exactly one parseable JSON object.
      std::string topo;
      run_topology_sim(opt, session, traces, &topo);
      doc.insert(doc.rfind('}'), ",\"topology\":" + topo);
    }
    std::printf("%s\n", doc.c_str());
  } else {
    std::printf("%s",
                format_report(report, session.runtime().callsites()).c_str());
    if (opt.advise_fixes) {
      std::printf("\n%s", format_suggestions(suggestions).c_str());
    }
    if (opt.topology_set) run_topology_sim(opt, session, traces, nullptr);
  }

  if (opt.diff_fix) {
    Session fixed_session(opt.session);
    wl::Params fixed_params = opt.params;
    fixed_params.fix_mask = ~0u;
    w->run_replay(fixed_session, fixed_params, opt.replay_quantum);
    const Report fixed_report = fixed_session.report();
    const ReportDiff diff =
        diff_reports(report, session.runtime().callsites(), fixed_report,
                     fixed_session.runtime().callsites());
    std::printf("\n=== buggy -> fixed diff ===\n%s",
                format_diff(diff).c_str());
  }

  if (opt.fail_on_findings && wl::false_sharing_findings(report) > 0) {
    return 2;
  }
  return 0;
}
