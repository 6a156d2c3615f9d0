// perfbench: one process runs one workload of the repository benchmark.
//
//   perfbench --workload replay|ir|offline --seed N --seconds S
//             [--trace 0|1] [--ir-dir DIR] [--workdir DIR] [--spans-out FILE]
//             [--launched-ns NS] [--setup-only 0|1]
//
// Set-up (inputs from the seed plus one warm-up op) is timed from the
// process's launch: --launched-ns is CLOCK_MONOTONIC as the launcher read
// it just before starting this process (main() entry when absent).
// --setup-only 1 stops after set-up and prints only that time, so a
// launcher can take the median over several cold processes.
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// perfbench/run.py adds the other workloads' end-to-end metrics from short
// runs of their own processes, so every run reports every end-to-end
// metric.
//
// --trace 1 instead splits the time into an untraced third, a traced third
// (spans around every layer call, kept in memory and written to
// --spans-out at the end) and a third with prediction off, and reports
// per-layer metrics.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark result. See perfbench/NOTES.md for what each number means.
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "pipelines.hpp"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;

std::unique_ptr<Pipeline> make(const std::string& name) {
  if (name == "replay") return make_replay();
  if (name == "ir") return make_ir();
  if (name == "offline") return make_offline();
  return nullptr;
}

struct Args {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::int64_t launched_ns = 0;
  bool setup_only = false;
  Options options;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v);
    } else if (arg == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--ir-dir") {
      a->options.ir_dir = v;
    } else if (arg == "--workdir") {
      a->options.workdir = v;
    } else if (arg == "--spans-out") {
      a->spans_out = v;
    } else if (arg == "--launched-ns") {
      a->launched_ns = std::strtoll(v, nullptr, 10);
    } else if (arg == "--setup-only") {
      a->setup_only = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return make(a->workload) != nullptr && a->seconds > 0;
}

/// Every op's runs over a stretch of passes, plus per-pass layer totals.
struct PassLog {
  Samples samples;
  std::pmr::vector<LogMap> layers{log_arena()};
};

/// Runs whole passes over the op list until `seconds` have elapsed and at
/// least `min_passes` passes ran. With an enabled tracer each op is a root
/// span, and each pass's layer counts and layer self times are kept.
PassLog run_passes(Pipeline& p, Tracer& tracer, double seconds,
                   int min_passes, std::uint32_t* next_op) {
  PassLog log;
  log.samples.resize(p.op_names().size());
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < min_passes || seconds_since(start) < seconds;
       ++pass) {
    const std::size_t first_span = tracer.size();
    LogMap layer(log_arena());
    for (std::size_t i = 0; i < log.samples.size(); ++i) {
      OpRecord rec;
      {
        Timed op(tracer, "perfbench.op", *next_op);
        p.run_op(i, tracer, (*next_op)++, rec);
        rec.t["op"] = op.stop();
      }
      if (tracer.enabled) {
        for (const auto& [k, v] : rec.layer) accumulate(layer, k, v);
      }
      log.samples[i].add(rec);
    }
    if (!tracer.enabled) continue;
    for (const auto& [name, s] : tracer.self_seconds(first_span)) {
      accumulate(layer, name, name.ends_with("_ms") ? s * 1e3 : s);
    }
    accumulate(layer, "tracing.spans",
               static_cast<double>(tracer.size() - first_span));
    auto get = [&layer](std::string_view k) {
      const auto it = layer.find(k);
      return it == layer.end() ? 0.0 : it->second;
    };
    if (get("runtime.accesses") > 0) {
      accumulate(layer, "runtime.tracked_share",
                 get("runtime.tracked_accesses") / get("runtime.accesses"));
    }
    const double events = get("monitor.events") + get("monitor.dropped");
    if (events > 0) {
      accumulate(layer, "monitor.drop_ratio", get("monitor.dropped") / events);
    }
    log.layers.push_back(std::move(layer));
  }
  return log;
}

/// Prints each op's verdict: it fails when any of its runs failed a check
/// or when a run's deterministic counters differ from the first run's.
void print_ops(const char* title, const Pipeline& p, const Samples& samples) {
  const auto names = p.op_names();
  std::printf("%s %s: %zu ops\n", title, p.name(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-36s runs=%-3zu median=%9.4f s  %s%s\n", names[i].c_str(),
                samples[i].runs, median_segment(samples, i, "op"),
                samples[i].failure.empty() ? "ok" : "FAILED: ",
                samples[i].failure.c_str());
  }
}

std::size_t failed_ops(const Samples& samples) {
  std::size_t n = 0;
  for (const OpLog& op : samples) n += !op.failure.empty();
  return n;
}

bool intact(const Samples& samples) {
  for (const OpLog& op : samples) {
    if (op.integrity_failure) return false;
  }
  return true;
}

/// CLOCK_MONOTONIC in nanoseconds: the clock the launcher's --launched-ns
/// was read from.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void json_number(std::string& out, const std::string& key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  if (out.back() != '{') out += ',';
  out += '"' + key + "\":" + buf;
}

int run(const Args& args) {
  std::unique_ptr<Pipeline> primary = make(args.workload);
  Tracer off;
  std::uint32_t next_op = 0;

  // Set-up: inputs from the seed plus one warm-up op, so no lazy
  // initialisation lands inside a timed op.
  primary->setup(args.options);
  {
    OpRecord warm;
    primary->run_op(0, off, next_op++, warm);
  }
  const double setup_s =
      static_cast<double>(monotonic_ns() - args.launched_ns) * 1e-9;
  if (args.setup_only) {
    std::printf("{\"setup_s\":%.17g}\n", setup_s);
    return 0;
  }

  MetricMap metrics;
  std::string counters = "{";
  bool integrity_ok = true;
  std::size_t failed = 0;
  const auto names = primary->op_names();

  auto record_counters = [&](const Pipeline& p, const Samples& samples) {
    const auto op_names = p.op_names();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (const auto& [k, v] : samples[i].det) {
        json_number(counters,
                    std::string(p.name()) + "/" + op_names[i] + "/" +
                        std::string(k),
                    static_cast<double>(v));
      }
    }
  };

  if (!args.trace) {
    const PassLog log =
        run_passes(*primary, off, args.seconds, kMinPasses, &next_op);
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["setup_s"] = setup_s;
    primary->end_to_end(log.samples, metrics);
    print_ops("workload", *primary, log.samples);
    failed = failed_ops(log.samples);
    integrity_ok = intact(log.samples);
    record_counters(*primary, log.samples);
  } else {
    const double third = args.seconds / 3;
    const PassLog plain = run_passes(*primary, off, third, 1, &next_op);
    Tracer on;
    on.enabled = true;
    const PassLog traced = run_passes(*primary, on, third, 1, &next_op);
    primary->prediction = false;
    const PassLog np = run_passes(*primary, off, third, 1, &next_op);
    primary->prediction = true;

    // Per-layer metrics: medians over the traced passes.
    std::map<std::string, std::vector<double>> per_pass;
    for (const LogMap& layer : traced.layers) {
      for (const auto& [k, v] : layer) per_pass[std::string(k)].push_back(v);
    }
    for (auto& [k, v] : per_pass) metrics[k] = median(v);

    double with_prediction = 0;
    double without = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      with_prediction += median_segment(plain.samples, i, "op");
      without += median_segment(np.samples, i, "op");
    }
    metrics["predict.np_delta_s"] = with_prediction - without;

    MetricMap untraced_e2e;
    MetricMap traced_e2e;
    primary->end_to_end(plain.samples, untraced_e2e);
    primary->end_to_end(traced.samples, traced_e2e);
    for (const auto& [k, v] : untraced_e2e) {
      metrics["tracing." + k + "_delta"] = traced_e2e[k] - v;
      std::printf("tracing overhead %-26s untraced %.6g traced %.6g\n",
                  k.c_str(), v, traced_e2e[k]);
    }

    // Verdicts come from the traced passes: without prediction, latent
    // sites (linear_regression) are expected to go unreported.
    print_ops("workload (traced)", *primary, traced.samples);
    failed = failed_ops(traced.samples);
    integrity_ok = intact(plain.samples) && intact(traced.samples) &&
                   intact(np.samples);
    record_counters(*primary, traced.samples);
    if (!args.spans_out.empty() && !on.write_jsonl(args.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }
  counters += '}';

  std::string out = "{";
  out += std::string("\"correct\":") + (integrity_ok ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(names.size());
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (const auto& [k, v] : metrics) json_number(out, k, v);
  out += "},\"counters\":" + counters + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  args.launched_ns = perfbench::monotonic_ns();
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload replay|ir|offline --seed N "
                 "--seconds S [--trace 0|1] [--ir-dir DIR] [--workdir DIR] "
                 "[--spans-out FILE] [--launched-ns NS] [--setup-only 0|1]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
