// Hot-path throughput: pre-threshold accesses per second through the
// runtime's fast path (page-map region resolution plus thread-local write
// staging).
//
// Workload: 4 threads, each writing round-robin over 8 private cache lines
// (disjoint between threads), with thresholds set high enough that no line
// ever escalates — so the measurement isolates exactly those two layers.
// Reported as `full_aps`.
//
// Usage: microbench_fastpath [writes_per_thread] [--json FILE]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "bench_util.hpp"

namespace {

constexpr std::uint32_t kThreads = 4;
constexpr std::size_t kLinesPerThread = 8;

double run(std::uint64_t writes_per_thread) {
  pred::SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  // Never escalate: keep every access on the pre-threshold path.
  o.runtime.tracking_threshold = ~std::uint64_t{0} >> 1;
  o.runtime.prediction_threshold = ~std::uint64_t{0} >> 1;
  pred::Session session(o);

  const pred::CallsiteId cs = session.intern_frames({"microbench_fastpath"});
  std::vector<long*> blocks(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    blocks[t] = static_cast<long*>(
        session.alloc(kLinesPerThread * 64, cs));
    if (blocks[t] == nullptr) {
      std::fprintf(stderr, "allocation failed\n");
      std::exit(1);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pred::ScopedThread guard(session, t);
      long* block = blocks[t];
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        // Round-robin over the thread's 8 disjoint lines (8 longs per line).
        session.record(&block[(i % kLinesPerThread) * 8],
                       pred::AccessType::kWrite, t, 8);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration<double>(end - start).count();
  return static_cast<double>(kThreads) *
         static_cast<double>(writes_per_thread) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t writes = 4'000'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      writes = std::strtoull(argv[i], nullptr, 10);
      if (writes == 0) {
        std::fprintf(stderr,
                     "usage: %s [writes_per_thread > 0] [--json FILE]\n",
                     argv[0]);
        return 1;
      }
    }
  }

  // Warm-up pass, then the measured pass.
  run(writes / 8);
  const double rate = run(writes);
  std::printf("hot path: %u threads x %" PRIu64
              " disjoint-line writes: %.0f accesses/sec\n",
              kThreads, writes, rate);

  pred::bench::JsonWriter json;
  json.add("full_aps", rate);
  if (!json_path.empty()) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
