// `ir`: the `analyze` toolchain plus the program it instruments.
//
// One op is one module, given as text: parse_module ->
// run_instrumentation_pass with every pass `analyze` enables ->
// predict_static_fs -> Interpreter::run of every original function as
// threads 0..3 into a Session -> report. The module set is
// examples/ir/*.pir plus seeded generator modules of four shapes. It is
// the only workload that spends time in instrument/ and the only one that
// reaches sync-aware suppression (no registry kernel calls Session::sync).
#include "pipelines.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "instrument/analysis/generator.hpp"
#include "instrument/analysis/predict.hpp"
#include "instrument/interp.hpp"
#include "instrument/ir_parser.hpp"
#include "instrument/pass.hpp"
#include "kernels.hpp"

namespace perfbench {
namespace {

namespace ir = pred::ir;

constexpr std::int64_t kCount = 512;     // the count argument of every call
// Two buffers of 8 KiB each, registered as separate globals: the generator
// contract needs 8 * (kCount + 24 + 16) bytes of the first, and a
// three-argument corpus function takes the second as its source.
constexpr std::size_t kBufWords = 1024;
constexpr std::uint64_t kStepLimit = 50'000'000;
constexpr std::uint64_t kStepsPerShape = 8'000'000;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ModuleInput {
  std::string name;
  std::string text;
  std::size_t original_functions = 0;
  /// 64B lines of region 0 two planted slots share (planted modules only).
  std::set<std::int64_t> planted_lines;
  /// Return value of every (function, thread) call of the unpruned module.
  std::vector<std::int64_t> expected_returns;
};

/// Corpus convention (shared with the escape-oracle test): arg0 is a
/// buffer; a third argument makes arg1 a second buffer; any other argument
/// is a count.
std::vector<std::int64_t> make_args(const ir::Function& fn,
                                    std::int64_t* buf) {
  std::vector<std::int64_t> args;
  for (std::uint32_t a = 0; a < fn.num_args; ++a) {
    if (a == 0) {
      args.push_back(reinterpret_cast<std::intptr_t>(buf));
    } else if (a == 1 && fn.num_args >= 3) {
      args.push_back(reinterpret_cast<std::intptr_t>(buf + kBufWords));
    } else {
      args.push_back(kCount);
    }
  }
  return args;
}

class IrPipeline final : public Pipeline {
 public:
  const char* name() const override { return "ir"; }

  void setup(const Options& options) override {
    modules_.clear();
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(options.ir_dir)) {
      if (e.path().extension() == ".pir") files.push_back(e.path());
    }
    if (files.empty()) {
      throw std::runtime_error("no .pir modules in " + options.ir_dir);
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::stringstream ss;
      ss << in.rdbuf();
      add_module(path.filename().string(), ss.str(), {});
    }
    // Each shape gets modules from the seed until their uninstrumented
    // runs retire kStepsPerShape instructions, so every seed interprets
    // about the same amount of work.
    const char* shapes[] = {"loop", "call", "sync", "planted"};
    for (std::uint64_t shape = 0; shape < 4; ++shape) {
      std::uint64_t steps = 0;
      for (std::uint64_t j = 0; steps < kStepsPerShape; ++j) {
        const std::uint64_t gen_seed =
            splitmix64(options.seed * 4096 + shape * 1024 + j);
        ir::GeneratorOptions g;
        g.segments = 5;
        g.accesses_per_block = 4;
        std::set<std::int64_t> planted;
        if (shape == 1) {
          g.callees = 5;
          g.summarizable_callees = true;
        } else if (shape == 2) {
          g.segments = 4;
          g.sync_segments = 2;
        } else if (shape == 3) {
          g.segments = 3;
          g.planted_slots = 4;
          g.planted_stride = 8u * (1 + static_cast<std::uint32_t>(j % 2));
          g.planted_base_words = 16;
          planted = planted_shared_lines(g);
        }
        steps += add_module(std::string(shapes[shape]) + std::to_string(j),
                            ir::to_string(ir::generate_module(gen_seed, g)),
                            std::move(planted));
      }
    }
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> out;
    for (const ModuleInput& m : modules_) out.push_back(m.name);
    return out;
  }

  void run_op(std::size_t i, Tracer& tr, std::uint32_t op,
              OpRecord& rec) override {
    const ModuleInput& in = modules_[i];

    Timed parse_t(tr, "instrument.parse_ms", op);
    ir::ParseResult parsed = ir::parse_module(in.text);
    double compile = parse_t.stop();
    if (!parsed.ok) {
      rec.fail("parse error: " + parsed.error, true);
      return;
    }

    Timed pass_t(tr, "instrument.pass_ms", op);
    ir::PassOptions all;
    all.loop_batching = true;
    all.dominance_elim = true;
    all.interprocedural = true;
    all.sync_scoped = true;
    const ir::PassStats stats =
        ir::run_instrumentation_pass(parsed.module, all);
    compile += pass_t.stop();

    Timed predict_t(tr, "instrument.predict_ms", op);
    const ir::StaticFsReport predicted = ir::predict_static_fs(
        parsed.module, ir::default_roles(parsed.module));
    compile += predict_t.stop();
    rec.t["compile"] = compile;

    if (!stats.reconciles()) {
      rec.fail("PassStats ledger does not reconcile", true);
    }
    std::set<std::int64_t> lines;
    for (const ir::PredictedLine& l : predicted.lines) {
      if (l.region == 0 && l.line_size == 64 && !l.latent) {
        lines.insert(l.line_index);
      }
    }
    for (const std::int64_t line : in.planted_lines) {
      if (lines.count(line) == 0) {
        rec.fail("planted line " + std::to_string(line) + " not predicted",
                 false);
      }
    }

    pred::SessionOptions so;
    so.heap_size = 8 * 1024 * 1024;
    so.runtime.prediction_enabled = prediction;
    pred::Session session(so);
    std::memset(buffer_, 0, 2 * kBufWords * sizeof(std::int64_t));
    session.register_global(buffer_, kBufWords * sizeof(std::int64_t),
                            "ir_buf0");
    session.register_global(buffer_ + kBufWords,
                            kBufWords * sizeof(std::int64_t), "ir_buf1");
    std::uint64_t runtime_calls = 0;
    std::uint64_t delivered = 0;
    std::size_t call = 0;
    Timed interp_t(tr, "instrument.interp_s", op);
    ir::Interpreter interp(&session, kStepLimit);
    for (std::size_t f = 0; f < in.original_functions; ++f) {
      const ir::Function& fn = parsed.module.functions[f];
      const auto args = make_args(fn, buffer_);
      for (pred::ThreadId tid = 0; tid < kThreads; ++tid) {
        const ir::ExecResult r = interp.run(parsed.module, fn, args, tid);
        runtime_calls += r.runtime_calls;
        delivered += r.accesses_delivered;
        if (r.step_limit_exceeded) {
          rec.fail(fn.name + " hit the step limit", true);
        }
        if (r.return_value != in.expected_returns[call]) {
          rec.fail(fn.name + " returns differently from the unpruned module",
                   true);
        }
        ++call;
      }
    }
    double run = interp_t.stop();
    Timed report_t(tr, "runtime.report_ms", op);
    const pred::Report report = session.report();
    run += report_t.stop();
    rec.t["run"] = run;

    const std::uint64_t static_sites = stats.instrumented_accesses +
                                       stats.intrinsic_accesses +
                                       stats.reports_inserted;
    const std::uint64_t pruned = stats.loop_batched + stats.dominance_merged +
                                 stats.sync_scoped_skipped +
                                 stats.escape_skipped;
    rec.layer["instrument.static_sites"] += static_cast<double>(static_sites);
    rec.layer["instrument.pruned_sites"] += static_cast<double>(pruned);
    rec.layer["instrument.predicted_lines"] +=
        static_cast<double>(predicted.lines.size());
    rec.layer["instrument.runtime_calls"] += static_cast<double>(runtime_calls);
    rec.layer["instrument.accesses_delivered"] +=
        static_cast<double>(delivered);
    const SessionCounters c = read_counters(session, report);
    add_runtime_layer(rec, c, delivered);

    rec.det["static_sites"] = static_sites;
    rec.det["pruned_sites"] = pruned;
    rec.det["predicted_lines"] = predicted.lines.size();
    rec.det["runtime_calls"] = runtime_calls;
    rec.det["accesses_delivered"] = delivered;
    rec.det["tracked_lines"] = c.tracked_lines;
    rec.det["invalidations"] = c.invalidations;
    rec.det["suppressed_accesses"] = c.suppressed_accesses;
    rec.det["virtual_lines"] = c.virtual_lines;
    rec.det["findings"] = c.findings;
  }

  void end_to_end(const Samples& s, MetricMap& out) const override {
    double compile = 0;
    double run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      compile += median_segment(s, i, "compile");
      run += median_segment(s, i, "run");
    }
    out["ir_compile_modules_per_s"] = static_cast<double>(s.size()) / compile;
    out["ir_run_s"] = run;
  }

 private:
  /// The module as given, run uninstrumented once: the return values every
  /// op must reproduce after pruning. Returns the instructions that run
  /// retired.
  std::uint64_t add_module(std::string name, std::string text,
                           std::set<std::int64_t> planted) {
    const ir::ParseResult parsed = ir::parse_module(text);
    if (!parsed.ok) {
      throw std::runtime_error(name + ": " + parsed.error);
    }
    ModuleInput in;
    in.name = std::move(name);
    in.text = std::move(text);
    in.original_functions = parsed.module.functions.size();
    in.planted_lines = std::move(planted);
    std::memset(buffer_, 0, 2 * kBufWords * sizeof(std::int64_t));
    ir::Interpreter interp(nullptr, kStepLimit);
    std::uint64_t steps = 0;
    for (const ir::Function& fn : parsed.module.functions) {
      const auto args = make_args(fn, buffer_);
      for (pred::ThreadId tid = 0; tid < kThreads; ++tid) {
        const ir::ExecResult r = interp.run(parsed.module, fn, args, tid);
        in.expected_returns.push_back(r.return_value);
        steps += r.steps;
      }
    }
    modules_.push_back(std::move(in));
    return steps;
  }

  /// 64B lines of the planted region written by at least two slots.
  static std::set<std::int64_t> planted_shared_lines(
      const ir::GeneratorOptions& g) {
    std::set<std::int64_t> out;
    const std::int64_t base = 8 * std::int64_t{g.planted_base_words};
    const std::int64_t end =
        base + std::int64_t{g.planted_slots} * g.planted_stride;
    for (std::int64_t line = base / 64; line <= (end - 1) / 64; ++line) {
      std::uint32_t slots = 0;
      for (std::uint32_t t = 0; t < g.planted_slots; ++t) {
        const std::int64_t lo = base + std::int64_t{t} * g.planted_stride;
        if (lo < 64 * (line + 1) && lo + g.planted_stride > 64 * line) ++slots;
      }
      if (slots >= 2) out.insert(line);
    }
    return out;
  }

  // Page-aligned, so the detector sees the same placement relative to
  // lines, double lines and shifted windows in every process; virtual-line
  // and suppression counts depend on it.
  struct alignas(4096) Page {
    std::int64_t words[512];
  };
  std::vector<Page> storage_ = std::vector<Page>(2 * kBufWords / 512);
  std::int64_t* const buffer_ = storage_.front().words;
  std::vector<ModuleInput> modules_;
};

}  // namespace

std::unique_ptr<Pipeline> make_ir() { return std::make_unique<IrPipeline>(); }

}  // namespace perfbench
