// Registry-kernel helpers shared by the replay and offline workloads.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

inline constexpr std::uint32_t kThreads = 4;

/// Scale at which kernel `w` makes about `target_accesses` accesses
/// (measured by one capture at scale 1 with this seed), clamped to
/// [1, 256]. Kernels differ by four orders of magnitude in accesses per
/// unit of scale, so one fixed scale would let a few kernels dominate.
std::uint64_t comparable_scale(const pred::wl::Workload& w,
                               std::uint64_t seed,
                               std::uint64_t target_accesses);

/// Session options every kernel op uses (the CLI's 64 MiB heap).
pred::SessionOptions kernel_session_options(bool prediction);

/// Table 1 verdict: every expected site of `w` is reported, and a kernel
/// with no expected site reports no false-sharing finding.
void check_sites(const pred::wl::Workload& w, const pred::Report& report,
                 const pred::CallsiteTable& callsites, OpRecord& rec);

/// The Table 1 kernels: registry entries from the paper's suites with at
/// least one expected site.
std::vector<const pred::wl::Workload*> table1_kernels();

/// Hash of every event of every thread trace.
std::uint64_t trace_hash(const std::vector<pred::ThreadTrace>& traces);

}  // namespace perfbench
