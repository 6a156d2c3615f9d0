// Coherence simulator microbench: what the topology layer costs over the
// flat reference simulator, and whether the topology actually prices remote
// traffic.
//
// Phase A — simulation throughput: replay the captured numa_pingpong traces
//   through the flat reference simulator (tests/reference/flat_cache_sim.hpp)
//   and through the production CacheSim at 1 socket and at 4x16 scatter,
//   reporting accesses/sec each as the median of kRepeats repeats (the rows
//   interleave within each repeat). The 1-socket-over-flat ratio —
//   the median of the per-repeat ratios — is what directory bookkeeping and
//   socket pricing cost per access. Two more rows time the saved-trace
//   topology path's other layers: simulate_concurrent on the 4x16 machine
//   (accesses/sec) and load_traces of the same traces from an in-memory
//   stream (MB/s, frame CRCs included).
//
// Phase B — the latency model: modeled total cycles at 4x16 scatter over
//   the 1-socket baseline on the same traces. The packed slots ping-pong
//   across sockets, so remote_factor (3x) must show up in the ratio; the
//   acceptance bar is >= 2x.
//
// Usage: microbench_sim [iters per repeat] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "flat_cache_sim.hpp"
#include "sim/cache_sim.hpp"
#include "sim/executor.hpp"
#include "trace/trace_io.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t trace_events(const std::vector<pred::ThreadTrace>& traces) {
  std::uint64_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

constexpr int kRepeats = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Seconds to replay `traces` through `iters` fresh simulators built from
/// `config`; adds each run's modeled cycles to `sink`.
template <typename Sim, typename Config>
double time_replays(const Config& config, int iters,
                    const std::vector<pred::ThreadTrace>& traces,
                    std::uint64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    Sim sim(config);
    *sink += simulate_interleaved(sim, traces).total_cycles;
  }
  return seconds_since(start);
}

/// Seconds for `iters` event-driven replays on fresh simulators.
double time_concurrent(const pred::NumaConfig& config, int iters,
                       const std::vector<pred::ThreadTrace>& traces,
                       std::uint64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    pred::CacheSim sim(config);
    *sink += pred::simulate_concurrent(sim, traces).finish_cycles;
  }
  return seconds_since(start);
}

/// Seconds to load the saved trace stream `bytes` `iters` times; 0 if a
/// load fails.
double time_loads(const std::string& bytes, int iters, std::uint64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    std::istringstream in(bytes);
    std::vector<pred::ThreadTrace> loaded;
    if (!pred::load_traces(in, &loaded)) return 0;
    *sink += pred::total_events(loaded);
  }
  return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 20;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      iters = std::atoi(argv[i]);
      if (iters <= 0) {
        std::fprintf(stderr, "usage: %s [iters > 0] [--json FILE]\n", argv[0]);
        return 1;
      }
    }
  }

  const pred::wl::Workload* w = pred::wl::find_workload("numa_pingpong");
  if (w == nullptr) {
    std::fprintf(stderr, "numa_pingpong workload missing from registry\n");
    return 1;
  }
  pred::Session session(pred::bench::session_options());
  pred::wl::Params p;
  p.threads = 64;
  const auto traces = w->capture(session, p);
  const std::uint64_t events = trace_events(traces);

  const pred::SimConfig flat_cfg(64);
  const pred::NumaConfig one_socket(1, 64);
  pred::NumaConfig big(4, 16);
  big.placement = pred::NumaPlacement::kScatter;

  // Phase A — replay throughput, flat reference vs production.
  std::ostringstream saved;
  if (!pred::save_traces(saved, traces)) {
    std::fprintf(stderr, "cannot save the traces\n");
    return 1;
  }
  const std::string trace_bytes = saved.str();

  const double evs = static_cast<double>(events) * iters;
  const double mbs = static_cast<double>(trace_bytes.size()) * iters / 1e6;
  std::uint64_t sink = 0;
  std::vector<double> flat_rates, numa1_rates, numa4_rates, ratios;
  std::vector<double> concurrent_rates, load_rates;
  for (int r = 0; r < kRepeats; ++r) {
    const double flat_s =
        time_replays<pred::FlatCacheSim>(flat_cfg, iters, traces, &sink);
    const double numa1_s =
        time_replays<pred::CacheSim>(one_socket, iters, traces, &sink);
    const double numa4_s =
        time_replays<pred::CacheSim>(big, iters, traces, &sink);
    flat_rates.push_back(evs / flat_s);
    numa1_rates.push_back(evs / numa1_s);
    numa4_rates.push_back(evs / numa4_s);
    ratios.push_back(flat_s / numa1_s);
    concurrent_rates.push_back(evs /
                               time_concurrent(big, iters, traces, &sink));
    const double load_s = time_loads(trace_bytes, iters, &sink);
    if (load_s == 0) {
      std::fprintf(stderr, "saved traces do not load\n");
      return 1;
    }
    load_rates.push_back(mbs / load_s);
  }
  const double flat_aps = median(flat_rates);
  const double numa1_aps = median(numa1_rates);
  const double numa4_aps = median(numa4_rates);
  // >= 1.0 would mean the topology layer is free; the floor guards it from
  // becoming pathologically expensive (directory work ballooning per access).
  const double overhead_ratio = median(ratios);
  const double concurrent_aps = median(concurrent_rates);
  const double load_mbps = median(load_rates);

  // Phase B — the modeled-latency ratio the topology exists to produce.
  pred::CacheSim local_sim(one_socket);
  const pred::SimStats local = simulate_interleaved(local_sim, traces);
  pred::CacheSim remote_sim(big);
  const pred::SimStats remote = simulate_interleaved(remote_sim, traces);
  const double remote_local_ratio =
      local.total_cycles == 0
          ? 0.0
          : static_cast<double>(remote.total_cycles) /
                static_cast<double>(local.total_cycles);

  std::printf("numa_pingpong: %zu traces, %llu events, iters %d x %d "
              "repeats (sink %llu)\n",
              traces.size(), static_cast<unsigned long long>(events), iters,
              kRepeats, static_cast<unsigned long long>(sink));
  std::printf("flat reference:       %12.0f accesses/s (median)\n", flat_aps);
  std::printf("CacheSim 1x64:        %12.0f accesses/s (median; %.2fx of "
              "flat)\n",
              numa1_aps, overhead_ratio);
  std::printf("CacheSim 4x16:        %12.0f accesses/s (median)\n",
              numa4_aps);
  std::printf("concurrent 4x16:      %12.0f accesses/s (median, "
              "simulate_concurrent)\n",
              concurrent_aps);
  std::printf("trace load:           %12.1f MB/s (median, %zu-byte "
              "stream)\n",
              load_mbps, trace_bytes.size());
  std::printf("modeled cycles: 1-socket %llu, 4x16 scatter %llu "
              "(remote/local %.2fx)\n",
              static_cast<unsigned long long>(local.total_cycles),
              static_cast<unsigned long long>(remote.total_cycles),
              remote_local_ratio);
  std::printf("remote traffic @4x16: coherence %llu, invalidations %llu, "
              "directory transitions %llu\n",
              static_cast<unsigned long long>(remote.remote_coherence_misses),
              static_cast<unsigned long long>(
                  remote.remote_invalidations_sent),
              static_cast<unsigned long long>(remote.directory_transitions));

  if (!json_path.empty()) {
    pred::bench::JsonWriter json;
    json.add("sim_flat_accesses_per_sec", flat_aps);
    json.add("sim_numa1_accesses_per_sec", numa1_aps);
    json.add("sim_numa4_accesses_per_sec", numa4_aps);
    json.add("sim_concurrent_accesses_per_sec", concurrent_aps);
    json.add("trace_load_mb_per_sec", load_mbps);
    json.add("sim_numa_overhead_ratio", overhead_ratio);
    json.add("sim_remote_local_ratio", remote_local_ratio);
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  // The latency model is deterministic: a sub-2x ratio means the topology
  // stopped pricing remote traffic — fail loudly even without check_bench.
  return remote_local_ratio >= 2.0 ? 0 : 2;
}
