// Memcached (modeled): Section 4.1.2 — no severe false sharing found. Its
// per-thread stats are correctly padded, and what remains is a *true*
// sharing hotspot (the global item-count all workers bump), which PREDATOR's
// word histograms must classify as true sharing, not report as false
// sharing.
#include <atomic>
#include <cstring>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "workloads/workload.hpp"

namespace pred::wl {
namespace {

class MemcachedLike final : public WorkloadImpl<MemcachedLike> {
 public:
  const Traits& traits() const override {
    static const Traits t{.name = "memcached", .suite = "real", .sites = {}};
    return t;
  }

  template <class H>
  static Result kernel(H& h, const Params& p) {
    const std::uint32_t n = p.threads;
    const std::uint64_t requests = 3000 * p.scale;
    constexpr std::uint64_t kBuckets = 1024;

    // Per-thread stats: each worker allocates its own struct (memcached does
    // this at thread setup), so they are padded AND heap-separated.
    std::vector<char*> stats(n);
    for (std::uint32_t t = 0; t < n; ++t) {
      stats[t] = static_cast<char*>(
          h.alloc(128, {"memcached/thread.c:stats"}));
      PRED_CHECK(stats[t] != nullptr);
      std::memset(stats[t], 0, 128);
    }

    // Global item counter: genuine true sharing (every worker bumps it).
    auto* total_items = static_cast<std::int64_t*>(
        h.alloc(64, {"memcached/items.c:total_items"}));
    PRED_CHECK(total_items != nullptr);
    *total_items = 0;

    // Shared hash table, read-mostly.
    auto* table = static_cast<std::uint64_t*>(
        h.alloc(kBuckets * 8, {"memcached/assoc.c:primary_hashtable"}));
    PRED_CHECK(table != nullptr);
    Xorshift64 rng(p.seed);
    for (std::uint64_t i = 0; i < kBuckets; ++i) table[i] = rng.next();

    h.parallel(n, [&](std::uint32_t t, auto& sink) {
      auto* my_stats = reinterpret_cast<std::int64_t*>(stats[t]);
      Xorshift64 local(p.seed + 3 * t);
      for (std::uint64_t req = 0; req < requests; ++req) {
        const std::uint64_t b = local.next_below(kBuckets);
        sink.read(&table[b], 8);
        const bool hit = (table[b] & 7u) != 0;
        sink.read(my_stats, 8);
        *my_stats += hit ? 1 : 0;
        sink.write(my_stats, 8);
        if (!hit) {
          // Miss path: insert, bumping the globally shared counter. It is
          // atomic so live mode has no data race; the coherence traffic it
          // makes is the same.
          sink.read(total_items, 8);
          sink.write(total_items, 8);
          std::atomic_ref<std::int64_t>(*total_items)
              .fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    Result r;
    for (std::uint32_t t = 0; t < n; ++t) {
      r.checksum += static_cast<std::uint64_t>(
          *reinterpret_cast<std::int64_t*>(stats[t]));
    }
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_memcached_like() {
  return std::make_unique<MemcachedLike>();
}

}  // namespace pred::wl
