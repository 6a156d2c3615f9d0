#include "kernels.hpp"

#include <algorithm>

#include "trace/trace_io.hpp"

namespace perfbench {

std::uint64_t comparable_scale(const pred::wl::Workload& w,
                               std::uint64_t seed,
                               std::uint64_t target_accesses) {
  pred::Session scratch(kernel_session_options(true));
  pred::wl::Params p;
  p.threads = kThreads;
  p.scale = 1;
  p.seed = seed;
  const std::size_t events = pred::total_events(w.capture(scratch, p));
  const std::uint64_t scale =
      (target_accesses + events - 1) / std::max<std::size_t>(events, 1);
  return std::clamp<std::uint64_t>(scale, 1, 256);
}

pred::SessionOptions kernel_session_options(bool prediction) {
  pred::SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  o.runtime.prediction_enabled = prediction;
  return o;
}

namespace {

/// FNV-1a over a byte range, folded into `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string describe(const pred::ObjectFinding& f,
                     const pred::CallsiteTable& callsites) {
  std::string label = f.object.name;
  if (label.empty() && f.object.callsite != pred::kNoCallsite) {
    for (const std::string& frame : callsites.get(f.object.callsite).frames) {
      if (!label.empty()) label += " < ";
      label += frame;
    }
  }
  return std::string(pred::to_string(f.kind)) + " on " +
         (label.empty() ? "?" : label);
}

}  // namespace

void check_sites(const pred::wl::Workload& w, const pred::Report& report,
                 const pred::CallsiteTable& callsites, OpRecord& rec) {
  const auto& sites = w.traits().sites;
  for (const pred::wl::Site& site : sites) {
    if (!pred::wl::report_mentions_site(report, callsites, site.where)) {
      rec.fail("expected site not reported: " + site.where, false);
    }
  }
  if (!sites.empty()) return;
  for (const pred::ObjectFinding& f : report.findings) {
    if (f.is_false_sharing()) {
      rec.fail("clean kernel reports a false-sharing finding: " +
                   describe(f, callsites),
               false);
      return;
    }
  }
}

std::vector<const pred::wl::Workload*> table1_kernels() {
  std::vector<const pred::wl::Workload*> out;
  for (const auto& w : pred::wl::all_workloads()) {
    if (w->traits().suite != "numa" && !w->traits().sites.empty()) {
      out.push_back(w.get());
    }
  }
  return out;
}

std::uint64_t trace_hash(const std::vector<pred::ThreadTrace>& traces) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const pred::ThreadTrace& t : traces) {
    const std::uint64_t n = t.size();
    h = fnv1a(&n, sizeof n, h);
    for (const pred::TraceEvent& ev : t) {
      h = fnv1a(&ev.addr, sizeof ev.addr, h);
      h = fnv1a(&ev.think_cycles, sizeof ev.think_cycles, h);
      h = fnv1a(&ev.type, sizeof ev.type, h);
      h = fnv1a(&ev.size, sizeof ev.size, h);
    }
  }
  return h;
}

}  // namespace perfbench
