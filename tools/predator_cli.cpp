// predator-cli: the command-line front end of the PREDATOR library. This
// file is only main (parse, dispatch, usage); every subcommand lives in
// src/cli/, and `analyze` in instrument/analyze_tool, where the tests drive
// them in-process. usage() below documents each subcommand and flag.
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
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "instrument/analyze_tool.hpp"

namespace {

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
      "                         before/after report diff (not with --json)\n\n"
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

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::string err;
  if (!args.empty() && args[0] == "analyze") {
    pred::ir::AnalyzeOptions aopt;
    if (!pred::ir::parse_analyze_args({args.begin() + 1, args.end()}, &aopt,
                                      &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      usage(argv[0]);
      return 1;
    }
    std::string out;
    const int rc = pred::ir::run_analyze(aopt, &out, &err);
    std::fputs(out.c_str(), stdout);
    if (!err.empty()) std::fprintf(stderr, "%s\n", err.c_str());
    return rc;
  }

  using namespace pred::cli;
  CliOptions opt;
  if (!parse_cli(args, &opt, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    usage(argv[0]);
    return 1;
  }
  if (opt.help) {
    usage(argv[0]);
    return 0;
  }
  if (opt.command == Command::kRepair) return run_repair(opt, stdout, stderr);
  if (opt.list) return run_list(stdout);
  // A dead collector must surface as a failed send, not a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  switch (opt.command) {
    case Command::kMonitor: return run_monitor(opt, stdout, stderr);
    case Command::kServe: return run_serve(opt, stdout, stderr);
    case Command::kFleet: return run_fleet(opt, stdout, stderr);
    default: return run_detect(opt, stdout, stderr);
  }
}
