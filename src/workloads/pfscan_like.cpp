// pfscan (modeled): parallel file scanner — threads grep private chunks and
// occasionally record a match in a per-thread, heap-separated result slot.
// No false sharing. A lightly-written shared match total stays below the
// report threshold, mirroring why the paper finds nothing here.
#include <atomic>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "workloads/workload.hpp"

namespace pred::wl {
namespace {

class PfscanLike final : public WorkloadImpl<PfscanLike> {
 public:
  const Traits& traits() const override {
    static const Traits t{.name = "pfscan", .suite = "real", .sites = {}};
    return t;
  }

  template <class H>
  static Result kernel(H& h, const Params& p) {
    const std::uint32_t n = p.threads;
    const std::uint64_t bytes_per_thread = 20000 * p.scale;
    constexpr unsigned char kNeedle = 0x2a;

    std::vector<unsigned char*> chunk(n);
    std::vector<std::uint64_t*> matches(n);
    Xorshift64 rng(p.seed);
    for (std::uint32_t t = 0; t < n; ++t) {
      chunk[t] = static_cast<unsigned char*>(
          h.alloc(bytes_per_thread, {"pfscan/pfscan.c:chunk"}));
      matches[t] = static_cast<std::uint64_t*>(
          h.alloc(128, {"pfscan/pfscan.c:matches"}));
      PRED_CHECK(chunk[t] && matches[t]);
      for (std::uint64_t i = 0; i < bytes_per_thread; ++i) {
        chunk[t][i] = static_cast<unsigned char>(rng.next());
      }
      *matches[t] = 0;
    }

    // Shared grand total, updated once per thread at the end (far below any
    // reporting threshold).
    auto* total = static_cast<std::uint64_t*>(
        h.alloc(64, {"pfscan/pfscan.c:total"}));
    PRED_CHECK(total != nullptr);
    *total = 0;

    h.parallel(n, [&](std::uint32_t t, auto& sink) {
      std::uint64_t local_matches = 0;
      for (std::uint64_t i = 0; i < bytes_per_thread; ++i) {
        sink.read(&chunk[t][i], 1);
        if (chunk[t][i] == kNeedle) ++local_matches;
      }
      sink.read(matches[t], 8);
      *matches[t] = local_matches;
      sink.write(matches[t], 8);
      sink.read(total, 8);
      sink.write(total, 8);
      // Atomic so live mode has no data race; the checksum uses matches[].
      std::atomic_ref<std::uint64_t>(*total).fetch_add(
          local_matches, std::memory_order_relaxed);
    });

    Result r;
    for (std::uint32_t t = 0; t < n; ++t) r.checksum += *matches[t];
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_pfscan_like() {
  return std::make_unique<PfscanLike>();
}

}  // namespace pred::wl
