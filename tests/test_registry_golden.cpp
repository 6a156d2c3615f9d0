// Registry golden digests: every registry workload, replayed with default
// wl::Params, must leave the detector in exactly the state recorded in
// kGolden below. The table was captured before the runtime's reference
// modes were removed, with every mode on and again with every mode off
// (the two agreed), so it pins the one remaining production path to the
// behavior of both.
//
// Each digest is a 64-bit FNV-1a over
//   - the report JSON, with every address rewritten as "r<region>+<offset>"
//     so heap and global placement (ASLR) stay out of it;
//   - every tracker: line index, total accesses, sampled reads and writes,
//     invalidations and the word histogram (reads, writes, owner);
//   - every line's write counter, as (line, count) pairs for the nonzero
//     lines. Several clean workloads escalate no line at all, so these
//     pre-threshold counts are the only state the staged write path leaves.
//
// On a mismatch gtest prints the actual table in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "report_io/report_json.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

class Fnv1a {
 public:
  void bytes(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  /// Little-endian, so the digest does not depend on the host byte order.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Rewrites every "0x..." string of the report JSON as "r<i>+<offset>",
/// where i is the registration ordinal of the region holding the address.
std::string rebase_addresses(const std::string& json,
                             const std::vector<const ShadowSpace*>& regions) {
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  for (std::size_t at = json.find("\"0x"); at != std::string::npos;
       at = json.find("\"0x", pos)) {
    const std::size_t end = json.find('"', at + 1);
    EXPECT_NE(end, std::string::npos);
    const Address a = std::strtoull(json.c_str() + at + 3, nullptr, 16);
    out.append(json, pos, at - pos);
    std::string label = "\"abs+" + std::to_string(a) + "\"";
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const Address base = regions[i]->base();
      const Address end_addr =
          base + regions[i]->num_lines() * regions[i]->geometry().line_size;
      if (a >= base && a <= end_addr) {
        label = "\"r" + std::to_string(i) + "+" + std::to_string(a - base) +
                "\"";
        break;
      }
    }
    out += label;
    pos = end + 1;
  }
  out.append(json, pos, std::string::npos);
  return out;
}

std::uint64_t detector_digest(Session& session) {
  const std::string json =
      report_to_json(session.report(), session.runtime().callsites());
  std::vector<const ShadowSpace*> regions;
  session.runtime().for_each_region(
      [&](const ShadowSpace& r) { regions.push_back(&r); });

  Fnv1a h;
  h.bytes(rebase_addresses(json, regions));
  for (const ShadowSpace* r : regions) {
    h.bytes("region");
    r->for_each_tracker([&](std::size_t line, const CacheTracker* t) {
      h.u64(line);
      h.u64(t->total_accesses());
      h.u64(t->sampled_reads());
      h.u64(t->sampled_writes());
      h.u64(t->invalidations());
      for (const WordAccess& w : t->words_snapshot()) {
        h.u64(w.reads);
        h.u64(w.writes);
        h.u64(w.owner);
      }
    });
    h.bytes("writes");
    for (std::size_t line = 0; line < r->num_lines(); ++line) {
      if (const std::uint64_t n = r->writes_count(line); n != 0) {
        h.u64(line);
        h.u64(n);
      }
    }
  }
  return h.value();
}

struct Golden {
  const char* workload;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"histogram", 0x4df1d1030ab18debull},
    {"kmeans", 0xefaf2266381aadffull},
    {"linear_regression", 0x6491b2f9fb6330edull},
    {"matrix_multiply", 0xcdac5ac286d3995aull},
    {"pca", 0x50f38334eb50bb9full},
    {"reverse_index", 0x9404580543a60438ull},
    {"string_match", 0x7eee4d00c45b2b24ull},
    {"word_count", 0xd24720e763f9b5d2ull},
    {"blackscholes", 0x40d37fa41849381eull},
    {"bodytrack", 0xee0166fe705850e5ull},
    {"dedup", 0x661b4fcf3e588c19ull},
    {"ferret", 0xb49ad082a906629aull},
    {"fluidanimate", 0x275307a64f1eed5aull},
    {"streamcluster", 0x29906d13c0f2e6d6ull},
    {"swaptions", 0xa19e79e24cf78365ull},
    {"x264", 0x8fa98438f8c39a6aull},
    {"aget", 0xae21c76532db77aaull},
    {"boost", 0xf6dd5b6c7085f182ull},
    {"memcached", 0x14baaa4f98a7424cull},
    {"mysql", 0x229b37d0ec51b5fbull},
    {"pbzip2", 0x3d34303aabd10565ull},
    {"pfscan", 0x1924af817a593611ull},
    {"blocked_matrix", 0x475d197b468ae36cull},
    {"numa_pingpong", 0x816c58b7cbc8cbfaull},
    {"tensor_parallel", 0xd97441170a6adb62ull},
};
// clang-format on

std::string table_row(std::string_view name, std::uint64_t digest) {
  char row[96];
  std::snprintf(row, sizeof row, "    {\"%.*s\", 0x%016llxull},\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(digest));
  return row;
}

TEST(RegistryGolden, EveryWorkloadMatchesItsDigest) {
  std::string golden;
  for (const Golden& g : kGolden) golden += table_row(g.workload, g.digest);
  std::string actual;
  for (const auto& w : wl::all_workloads()) {
    SessionOptions o;
    o.heap_size = 64 * 1024 * 1024;
    Session session(o);
    w->run_replay(session, wl::Params{});
    actual += table_row(w->traits().name, detector_digest(session));
  }
  EXPECT_EQ(actual, golden);
}

}  // namespace
}  // namespace pred
