// `replay`: the CLI's default detection path over every registry kernel.
//
// One op is one kernel: Workload::capture -> replay_into_session ->
// Session::report -> advise -> report_to_json, exactly the chain
// `predator-cli --workload NAME --json --advise` runs. Single-threaded and
// deterministic, so its counters must repeat exactly.
#include "pipelines.hpp"

#include "advice/fix_advisor.hpp"
#include "kernels.hpp"
#include "report_io/report_json.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

// About 1.5M accesses per kernel: every kernel then lands between 0.3x
// and 10x of the others, and the slowest (kmeans at scale 1) stays near
// 0.2 s per op.
constexpr std::uint64_t kTargetAccesses = 1'500'000;

class ReplayPipeline final : public Pipeline {
 public:
  const char* name() const override { return "replay"; }

  void setup(const Options& options) override {
    kernels_.clear();
    for (const auto& w : pred::wl::all_workloads()) {
      Kernel k;
      k.w = w.get();
      k.params.threads = kThreads;
      k.params.seed = options.seed;
      k.params.scale = comparable_scale(*w, options.seed, kTargetAccesses);
      kernels_.push_back(k);
    }
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> out;
    for (const Kernel& k : kernels_) {
      out.push_back(k.w->traits().name + "@scale" +
                    std::to_string(k.params.scale));
    }
    return out;
  }

  void run_op(std::size_t i, Tracer& tr, std::uint32_t op,
              OpRecord& rec) override {
    const Kernel& k = kernels_[i];
    pred::Session session(kernel_session_options(prediction));
    double detect = 0;

    Timed capture(tr, "workloads.capture_s", op);
    const auto traces = k.w->capture(session, k.params);
    detect += capture.stop();

    Timed replay(tr, "runtime.replay_s", op);
    pred::wl::replay_into_session(session, traces);
    detect += replay.stop();

    Timed report_t(tr, "runtime.report_ms", op);
    const pred::Report report = session.report();
    detect += report_t.stop();

    Timed advise_t(tr, "advice.advise_ms", op);
    const auto suggestions = pred::advise(report);
    detect += advise_t.stop();

    Timed json_t(tr, "report_io.json_ms", op);
    const std::string json =
        pred::report_to_json(report, session.runtime().callsites(),
                             &suggestions);
    detect += json_t.stop();

    const std::uint64_t accesses = pred::total_events(traces);
    rec.t["detect"] = detect;
    rec.t["accesses"] = static_cast<double>(accesses);
    check_sites(*k.w, report, session.runtime().callsites(), rec);
    if (json.empty() || json.front() != '{') {
      rec.fail("report_to_json produced no document", true);
    }

    const SessionCounters c = read_counters(session, report);
    add_runtime_layer(rec, c, accesses);
    rec.det["accesses"] = accesses;
    rec.det["tracked_lines"] = c.tracked_lines;
    rec.det["invalidations"] = c.invalidations;
    rec.det["virtual_lines"] = c.virtual_lines;
    rec.det["findings"] = c.findings;
    rec.det["suggestions"] = suggestions.size();
  }

  void end_to_end(const Samples& s, MetricMap& out) const override {
    double accesses = 0;
    double seconds = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      accesses += median_segment(s, i, "accesses");
      seconds += median_segment(s, i, "detect");
    }
    out["detect_maccess_per_s"] = accesses / seconds / 1e6;
  }

 private:
  struct Kernel {
    const pred::wl::Workload* w = nullptr;
    pred::wl::Params params;
  };
  std::vector<Kernel> kernels_;
};

}  // namespace

std::unique_ptr<Pipeline> make_replay() {
  return std::make_unique<ReplayPipeline>();
}

}  // namespace perfbench
