#include <cinttypes>
#include <climits>
#include <utility>

#include "cli/cli.hpp"
#include "common/append_fmt.hpp"
#include "common/read_number.hpp"

namespace pred::cli {

bool parse_cli(const std::vector<std::string>& args, CliOptions* opts,
               std::string* err) {
  err->clear();
  CliOptions o;
  o.session.heap_size = 64 * 1024 * 1024;
  static const std::pair<const char*, Command> kSubcommands[] = {
      {"monitor", Command::kMonitor},
      {"serve", Command::kServe},
      {"fleet", Command::kFleet},
      {"repair", Command::kRepair}};
  std::size_t i = 0;
  for (const auto& [word, command] : kSubcommands) {
    if (!args.empty() && args[0] == word) {
      o.command = command;
      i = 1;
    }
  }
  const bool positional = o.command == Command::kMonitor ||
                          o.command == Command::kFleet ||
                          o.command == Command::kRepair;
  const std::pair<const char*, bool*> switches[] = {
      {"--list", &o.list}, {"--json", &o.json}, {"--advise", &o.advise_fixes},
      {"--fail-on-findings", &o.fail_on_findings}, {"--diff-fix", &o.diff_fix}};
  const std::pair<const char*, std::string*> texts[] = {
      {"--workload", &o.workload}, {"--save-trace", &o.save_trace},
      {"--plan", &o.plan_file}, {"--emit-to", &o.emit_to},
      {"--socket", &o.socket_path}, {"--plan-out", &o.plan_out},
      {"--emit-plan", &o.emit_plan}};

  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string* {
      if (i + 1 >= args.size()) {
        *err = "missing value for " + arg;
        return nullptr;
      }
      return &args[++i];
    };
    auto num = [&]<class T>(T* dst, std::uint64_t lo, std::uint64_t hi) {
      const std::string* s = value();
      std::uint64_t v = 0;
      if (s == nullptr) return false;
      if (!read_unsigned(*s, lo, hi, &v)) {
        if (hi == UINT64_MAX) {
          append_fmt(*err, "bad %s (want an integer >= %" PRIu64 ")",
                     arg.c_str(), lo);
        } else {
          append_fmt(*err,
                     "bad %s (want an integer in [%" PRIu64 ", %" PRIu64 "])",
                     arg.c_str(), lo, hi);
        }
        return false;
      }
      *dst = static_cast<T>(v);
      return true;
    };
    bool* on = nullptr;
    std::string* text = nullptr;
    for (const auto& [flag, dst] : switches) on = arg == flag ? dst : on;
    for (const auto& [flag, dst] : texts) text = arg == flag ? dst : text;

    bool ok = true;
    if (on != nullptr) {
      *on = true;
    } else if (text != nullptr) {
      const std::string* s = value();
      ok = s != nullptr;
      if (ok) *text = *s;
    } else if (arg == "--threads") {
      ok = num(&o.params.threads, 1, 64);
    } else if (arg == "--scale") {
      ok = num(&o.params.scale, 1, UINT64_MAX);
    } else if (arg == "--offset") {
      ok = num(&o.params.offset, 0, 127);
    } else if (arg == "--fix") {
      ok = num(&o.params.fix_mask, 0, UINT32_MAX);
    } else if (arg == "--no-prediction") {
      o.session.runtime.prediction_enabled = false;
    } else if (arg == "--sampling") {
      const std::string* s = value();
      double rate = 0;
      ok = s != nullptr && read_finite(*s, &rate) && rate > 0.0 &&
           rate <= 1.0;
      if (ok) o.session.runtime.set_sampling_rate(rate);
      if (s != nullptr && !ok) {
        *err = "bad --sampling (want a finite number in (0, 1])";
      }
    } else if (arg == "--tracking-threshold") {
      RuntimeConfig& rt = o.session.runtime;
      ok = num(&rt.tracking_threshold, 1, UINT64_MAX);
      if (rt.prediction_threshold < rt.tracking_threshold) {
        rt.prediction_threshold = rt.tracking_threshold;
      }
    } else if (arg == "--report-threshold") {
      ok = num(&o.session.runtime.report_invalidation_threshold, 0,
               UINT64_MAX);
    } else if (arg == "--quantum") {
      ok = num(&o.replay_quantum, 1, UINT64_MAX);
    } else if (arg == "--topology") {
      const std::string* s = value();
      const std::size_t x = s == nullptr ? std::string::npos : s->find('x');
      std::uint64_t sockets = 0, cores = 0;
      // Bounds checked by division, so no S*C product can wrap.
      ok = x != std::string::npos &&
           read_unsigned(s->substr(0, x), 1, CacheSim::kMaxSockets,
                         &sockets) &&
           read_unsigned(s->substr(x + 1), 1, CacheSim::kMaxCores / sockets,
                         &cores);
      if (s != nullptr && !ok) {
        append_fmt(*err,
                   "bad --topology (want SxC with 1 <= S <= %u and S*C <= "
                   "%u, e.g. 2x4)",
                   CacheSim::kMaxSockets, CacheSim::kMaxCores);
      }
      o.topology_set = true;
      o.topology.sockets = static_cast<std::uint32_t>(sockets);
      o.topology.cores_per_socket = static_cast<std::uint32_t>(cores);
    } else if (arg == "--remote-factor") {
      const std::string* s = value();
      ok = s != nullptr && read_finite(*s, &o.topology.remote_factor) &&
           o.topology.remote_factor >= 1.0 &&
           o.topology.remote_factor <= CacheSim::kMaxRemoteFactor;
      if (s != nullptr && !ok) {
        append_fmt(*err,
                   "bad --remote-factor (want a finite number in [1, %g])",
                   CacheSim::kMaxRemoteFactor);
      }
    } else if (arg == "--placement") {
      const std::string* s = value();
      ok = s != nullptr && (*s == "compact" || *s == "scatter");
      if (s != nullptr && !ok) *err = "bad --placement (compact | scatter)";
      o.topology.placement = s != nullptr && *s == "scatter"
                                 ? NumaPlacement::kScatter
                                 : NumaPlacement::kCompact;
    } else if (arg == "--llc-line") {
      const std::string* s = value();
      std::uint64_t v = 0;
      ok = s != nullptr &&
           read_unsigned(*s, 64, CacheSim::kMaxLlcLineSize, &v) &&
           v % 64 == 0;
      if (s != nullptr && !ok) {
        append_fmt(*err, "bad --llc-line (want a multiple of 64 up to %zu)",
                   CacheSim::kMaxLlcLineSize);
      }
      o.topology.llc_line_size = v;
    } else if (arg == "--interval-ms") {
      // poll() takes an int timeout; a larger value would wrap negative
      // and block forever.
      ok = num(&o.interval_ms, 1, INT_MAX);
    } else if (arg == "--repeat") {
      ok = num(&o.repeat, 1, UINT64_MAX);
    } else if (arg == "--expect") {
      ok = num(&o.expect, 0, UINT64_MAX);
    } else if (arg == "--top-k") {
      ok = num(&o.top_k, 1, UINT64_MAX);
    } else if (arg == "--clients") {
      ok = num(&o.clients, 1, kMaxServeConnections);
    } else if (arg == "--static" && o.command == Command::kRepair) {
      o.repair_static = true;
    } else if (arg == "--help" || arg == "-h") {
      o.help = true;
      *opts = std::move(o);
      return true;
    } else if (positional && arg.rfind("--", 0) != 0 && o.workload.empty()) {
      o.workload = arg;
    } else {
      *err = "unknown flag: " + arg;
      return false;
    }
    if (!ok) return false;
  }

  if (o.command == Command::kDetect && o.json && o.diff_fix) {
    *err = "--diff-fix prints a text diff, so it cannot be combined with "
           "--json (one JSON document)";
    return false;
  }
  if (!o.list && o.command == Command::kServe && o.socket_path.empty()) {
    *err = "serve needs --socket PATH";
    return false;
  }
  if (!o.list && o.command != Command::kServe &&
      o.command != Command::kRepair && o.workload.empty()) {
    *err = "missing workload (--workload NAME, or NAME after the command)";
    return false;
  }
  *opts = std::move(o);
  return true;
}

}  // namespace pred::cli
