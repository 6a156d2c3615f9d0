// Tests for predator-cli's library half (src/cli/): flag parsing and
// rejection, and every subcommand entry run in-process with its output
// captured through open_memstream.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "cli/cli.hpp"
#include "trace/snapshot_codec.hpp"

namespace pred::cli {
namespace {

struct Captured {
  int rc = 0;
  std::string out;
  std::string err;
};

Captured capture(const std::function<int(std::FILE*, std::FILE*)>& entry) {
  char* out_buf = nullptr;
  char* err_buf = nullptr;
  std::size_t out_len = 0, err_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  std::FILE* err = open_memstream(&err_buf, &err_len);
  Captured run;
  run.rc = entry(out, err);
  std::fclose(out);
  std::fclose(err);
  run.out.assign(out_buf, out_len);
  run.err.assign(err_buf, err_len);
  std::free(out_buf);
  std::free(err_buf);
  return run;
}

CliOptions parse_ok(const std::vector<std::string>& args) {
  CliOptions opts;
  std::string err;
  EXPECT_TRUE(parse_cli(args, &opts, &err)) << err;
  return opts;
}

/// Minimal JSON recognizer: true iff `s` is exactly one JSON value (so
/// trailing text after the document, json.load's "Extra data", fails).
class JsonCheck {
 public:
  static bool one_document(const std::string& s) {
    JsonCheck c{s};
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.i_ == s.size();
  }

 private:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool eat(char ch) {
    if (i_ < s_.size() && s_[i_] == ch) return ++i_, true;
    return false;
  }
  void ws() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    return eat('"');
  }
  bool number() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::strchr("+-0123456789.eE", s_[i_])) ++i_;
    return i_ > start;
  }
  template <class F>
  bool sequence(char close, F&& item) {
    ws();
    if (eat(close)) return true;
    do {
      ws();
      if (!item()) return false;
      ws();
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    if (eat('{')) {
      return sequence('}', [&] {
        if (!string()) return false;
        ws();
        if (!eat(':')) return false;
        ws();
        return value();
      });
    }
    if (eat('[')) return sequence(']', [&] { return value(); });
    if (i_ < s_.size() && s_[i_] == '"') return string();
    return literal("true") || literal("false") || literal("null") || number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(JsonCheck, RecognizesExactlyOneDocument) {
  EXPECT_TRUE(JsonCheck::one_document(R"({"a":[1,2.5e3,"x\"y"],"b":null})"));
  EXPECT_FALSE(JsonCheck::one_document(R"({"a":1}
=== buggy -> fixed diff ===)"));
  EXPECT_FALSE(JsonCheck::one_document(R"({"a":})"));
}

// ---------------------------------------------------------------------------
// parse_cli
// ---------------------------------------------------------------------------

TEST(ParseCli, DetectFlags) {
  const CliOptions o = parse_ok(
      {"--workload", "histogram", "--threads", "4", "--scale", "3",
       "--offset", "24", "--fix", "4294967295", "--no-prediction",
       "--sampling", "0.5", "--tracking-threshold", "300",
       "--report-threshold", "0", "--quantum", "2", "--topology", "4x16",
       "--remote-factor", "2.5", "--placement", "scatter", "--llc-line",
       "128", "--json", "--advise", "--save-trace", "t.trace", "--plan",
       "p.plan", "--fail-on-findings", "--emit-to", "c.sock"});
  EXPECT_EQ(o.command, Command::kDetect);
  EXPECT_EQ(o.workload, "histogram");
  EXPECT_EQ(o.params.threads, 4u);
  EXPECT_EQ(o.params.scale, 3u);
  EXPECT_EQ(o.params.offset, 24u);
  EXPECT_EQ(o.params.fix_mask, 0xffffffffu);
  EXPECT_FALSE(o.session.runtime.prediction_enabled);
  EXPECT_DOUBLE_EQ(o.session.runtime.sampling_rate(), 0.5);
  EXPECT_EQ(o.session.runtime.tracking_threshold, 300u);
  EXPECT_EQ(o.session.runtime.prediction_threshold, 300u);
  EXPECT_EQ(o.session.runtime.report_invalidation_threshold, 0u);
  EXPECT_EQ(o.session.heap_size, 64u * 1024 * 1024);
  EXPECT_EQ(o.replay_quantum, 2u);
  EXPECT_TRUE(o.topology_set);
  EXPECT_EQ(o.topology.sockets, 4u);
  EXPECT_EQ(o.topology.cores_per_socket, 16u);
  EXPECT_DOUBLE_EQ(o.topology.remote_factor, 2.5);
  EXPECT_EQ(o.topology.placement, NumaPlacement::kScatter);
  EXPECT_EQ(o.topology.llc_line_size, 128u);
  EXPECT_TRUE(o.json && o.advise_fixes && o.fail_on_findings);
  EXPECT_EQ(o.save_trace, "t.trace");
  EXPECT_EQ(o.plan_file, "p.plan");
  EXPECT_EQ(o.emit_to, "c.sock");

  EXPECT_TRUE(parse_ok({"--workload", "histogram", "--diff-fix"}).diff_fix);
  EXPECT_TRUE(parse_ok({"--list"}).list);
  EXPECT_TRUE(parse_ok({"--workload", "x", "--help", "--bogus"}).help);
}

TEST(ParseCli, SubcommandFlags) {
  const CliOptions m = parse_ok({"monitor", "histogram", "--interval-ms",
                                 "2147483647", "--repeat", "5", "--emit-to",
                                 "c.sock", "--fail-on-findings"});
  EXPECT_EQ(m.command, Command::kMonitor);
  EXPECT_EQ(m.workload, "histogram");
  EXPECT_EQ(m.interval_ms, 2147483647u);
  EXPECT_EQ(m.repeat, 5u);

  const CliOptions s =
      parse_ok({"serve", "--socket", "c.sock", "--expect", "4", "--top-k",
                "8", "--interval-ms", "250", "--emit-plan", "m.plan",
                "--json"});
  EXPECT_EQ(s.command, Command::kServe);
  EXPECT_EQ(s.socket_path, "c.sock");
  EXPECT_EQ(s.expect, 4u);
  EXPECT_EQ(s.top_k, 8u);
  EXPECT_EQ(s.interval_ms, 250u);
  EXPECT_EQ(s.emit_plan, "m.plan");

  const CliOptions f = parse_ok(
      {"fleet", "histogram", "--clients", "256", "--repeat", "2", "--json"});
  EXPECT_EQ(f.command, Command::kFleet);
  EXPECT_EQ(f.workload, "histogram");
  EXPECT_EQ(f.clients, 256u);
  EXPECT_EQ(f.repeat, 2u);

  const CliOptions r =
      parse_ok({"repair", "counter_pool", "--static", "--plan-out", "p.plan",
                "--threads", "4", "--scale", "2", "--quantum", "3", "--json"});
  EXPECT_EQ(r.command, Command::kRepair);
  EXPECT_EQ(r.workload, "counter_pool");
  EXPECT_TRUE(r.repair_static);
  EXPECT_EQ(r.plan_out, "p.plan");
  EXPECT_EQ(parse_ok({"repair"}).workload, "");
  EXPECT_TRUE(parse_ok({"serve", "--list"}).list);
}

TEST(ParseCli, RejectsWithDiagnostic) {
  const struct {
    std::vector<std::string> args;
    const char* diagnostic;
  } cases[] = {
      // Numeric flags: whole string, no sign, in range.
      {{"--workload", "histogram", "--scale", "-1"}, "bad --scale"},
      {{"monitor", "histogram", "--repeat", "-1"}, "bad --repeat"},
      {{"--workload", "histogram", "--scale", "18446744073709551616"},
       "bad --scale"},
      {{"--workload", "histogram", "--threads", "0"}, "bad --threads"},
      {{"--workload", "histogram", "--threads", "65"}, "bad --threads"},
      {{"--workload", "histogram", "--threads", " 4"}, "bad --threads"},
      {{"--workload", "histogram", "--threads", "+4"}, "bad --threads"},
      {{"--workload", "histogram", "--offset", "128"}, "bad --offset"},
      {{"--workload", "histogram", "--fix", "4294967296"}, "bad --fix"},
      {{"monitor", "histogram", "--interval-ms", "2147483648"},
       "bad --interval-ms"},
      {{"fleet", "histogram", "--clients", "257"}, "bad --clients"},
      {{"--workload", "histogram", "--sampling", "nan"}, "bad --sampling"},
      {{"--workload", "histogram", "--sampling", "0.5junk"},
       "bad --sampling"},
      {{"--workload", "histogram", "--sampling", "0"}, "bad --sampling"},
      {{"--workload", "histogram", "--sampling", "1.5"}, "bad --sampling"},
      // The four cases the cli_rejects_* ctests run as processes.
      {{"--workload", "numa_pingpong", "--topology", "2x2",
        "--remote-factor", "nan"},
       "bad --remote-factor"},
      {{"--workload", "numa_pingpong", "--topology", "2x2",
        "--remote-factor", "inf"},
       "bad --remote-factor"},
      {{"--workload", "numa_pingpong", "--topology", "2x2", "--llc-line",
        "1099511627776"},
       "bad --llc-line"},
      {{"--workload", "numa_pingpong", "--topology", "16x268435457"},
       "bad --topology"},
      {{"--workload", "numa_pingpong", "--topology", "2x-4"},
       "bad --topology"},
      {{"--workload", "numa_pingpong", "--placement", "spread"},
       "bad --placement"},
      // --json promises one document; the diff is text.
      {{"--workload", "histogram", "--json", "--diff-fix"}, "--diff-fix"},
      // Structure.
      {{"--workload", "histogram", "--threads"}, "missing value for --threads"},
      {{"--workload", "histogram", "--static"}, "unknown flag: --static"},
      {{"--bogus"}, "unknown flag: --bogus"},
      {{}, "missing workload"},
      {{"monitor"}, "missing workload"},
      {{"serve", "--expect", "1"}, "serve needs --socket"},
  };
  for (const auto& c : cases) {
    CliOptions opts;
    std::string err;
    EXPECT_FALSE(parse_cli(c.args, &opts, &err)) << c.diagnostic;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos)
        << "want '" << c.diagnostic << "', got '" << err << "'";
  }
}

// ---------------------------------------------------------------------------
// Entries
// ---------------------------------------------------------------------------

Captured detect(const std::vector<std::string>& args) {
  const CliOptions opts = parse_ok(args);
  return capture([&](std::FILE* out, std::FILE* err) {
    return run_detect(opts, out, err);
  });
}

TEST(RunDetect, DeterministicTextAndJson) {
  const std::vector<std::vector<std::string>> runs = {
      {"--workload", "histogram"},
      {"--workload", "numa_pingpong", "--topology", "2x4"}};
  for (const auto& args : runs) {
    const Captured text = detect(args);
    EXPECT_EQ(text.rc, 0);
    EXPECT_NE(text.out.find("FALSE SHARING"), std::string::npos) << text.out;
    EXPECT_EQ(detect(args).out, text.out);

    auto json_args = args;
    json_args.push_back("--json");
    const Captured json = detect(json_args);
    EXPECT_EQ(json.rc, 0);
    EXPECT_TRUE(JsonCheck::one_document(json.out)) << json.out;
    EXPECT_EQ(detect(json_args).out, json.out);
  }
  EXPECT_NE(detect(runs[1]).out.find("=== topology 2x4 (compact"),
            std::string::npos);
  const Captured topo = detect({"--workload", "numa_pingpong", "--topology",
                                "2x4", "--json"});
  EXPECT_NE(topo.out.find("\"topology\":{\"sockets\":2"), std::string::npos);
}

TEST(RunDetect, FailOnFindingsAndUnknownWorkload) {
  EXPECT_EQ(detect({"--workload", "histogram", "--fail-on-findings"}).rc, 2);
  const Captured bad = detect({"--workload", "no_such_workload"});
  EXPECT_EQ(bad.rc, 1);
  EXPECT_NE(bad.err.find("unknown workload 'no_such_workload'"),
            std::string::npos);
}

TEST(RunList, NamesEveryWorkload) {
  const Captured list = capture([](std::FILE* out, std::FILE*) {
    return run_list(out);
  });
  EXPECT_EQ(list.rc, 0);
  for (const auto& w : wl::all_workloads()) {
    EXPECT_NE(list.out.find(w->traits().name), std::string::npos);
  }
}

TEST(RunMonitor, PrintsSnapshotsThenFinalReport) {
  const CliOptions opts =
      parse_ok({"monitor", "histogram", "--interval-ms", "5"});
  const Captured run = capture([&](std::FILE* out, std::FILE* err) {
    return run_monitor(opts, out, err);
  });
  EXPECT_EQ(run.rc, 0) << run.err;
  EXPECT_NE(run.out.find("=== final snapshot ==="), std::string::npos);
  EXPECT_NE(run.out.find("=== final report ==="), std::string::npos);
}

TEST(RunRepair, ProvesCounterPool) {
  const CliOptions opts = parse_ok({"repair", "counter_pool"});
  const Captured run = capture([&](std::FILE* out, std::FILE* err) {
    return run_repair(opts, out, err);
  });
  EXPECT_EQ(run.rc, 0);
  EXPECT_NE(run.out.find("verdict: REPAIRED"), std::string::npos) << run.out;

  const CliOptions list = parse_ok({"repair"});
  const Captured targets = capture([&](std::FILE* out, std::FILE* err) {
    return run_repair(list, out, err);
  });
  EXPECT_NE(targets.out.find("counter_pool"), std::string::npos);
}

TEST(RunFleet, ForkedClientsReachTheRollup) {
  const CliOptions opts = parse_ok({"fleet", "histogram", "--clients", "2"});
  const Captured run = capture([&](std::FILE* out, std::FILE* err) {
    return run_fleet(opts, out, err);
  });
  EXPECT_EQ(run.rc, 0) << run.err;
  EXPECT_NE(run.out.find("=== fleet rollup: 2 client(s) ==="),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("histogram-pthread.c:213"), std::string::npos);
}

class RunServe : public ::testing::Test {
 protected:
  void SetUp() override {
    // A client the collector closes must see a failed send, not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    char dir[] = "/tmp/pred_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    dir_ = dir;
    socket_ = dir_ + "/c.sock";
  }
  void TearDown() override {
    ::unlink(socket_.c_str());  // left behind only if serve failed
    ::rmdir(dir_.c_str());
  }

  /// Connects once `serve` is listening (-1 if it never does).
  int connect_when_up() const {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      const int fd = connect_unix(socket_);
      if (fd >= 0) return fd;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  Captured serve(const std::string& expect) const {
    const CliOptions opts =
        parse_ok({"serve", "--socket", socket_, "--expect", expect});
    return capture([&](std::FILE* out, std::FILE* err) {
      return run_serve(opts, out, err);
    });
  }

  std::string dir_;
  std::string socket_;
};

TEST_F(RunServe, PublishBracketReachesRollup) {
  std::thread client([&] {
    SessionOptions so;
    so.heap_size = 8 * 1024 * 1024;
    Session session(so);
    session.monitor().start();
    Publisher pub(session, connect_when_up());
    EXPECT_TRUE(pub.publish());
    EXPECT_TRUE(pub.finish());
    session.monitor().stop();
  });
  const Captured run = serve("1");
  client.join();
  EXPECT_EQ(run.rc, 0);
  EXPECT_NE(run.out.find("=== fleet rollup: 1 client(s) ==="),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.err.find("1 hello(s), 1 goodbye(s)"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("0 connection(s) refused"), std::string::npos);
}

TEST_F(RunServe, ClosesConnectionsOverTheCap) {
  std::thread client([&] {
    std::vector<int> fds;
    for (std::size_t i = 0; i <= kMaxServeConnections; ++i) {
      fds.push_back(connect_when_up());
    }
    // The collector is full, so the last connection reads EOF at once.
    // The receive timeout turns a missing cap into a failure, not a hang.
    const timeval limit{10, 0};
    ::setsockopt(fds.back(), SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
    char byte;
    EXPECT_EQ(::read(fds.back(), &byte, 1), 0);
    ::close(fds.back());
    fds.pop_back();
    // Every admitted client still gets its session through.
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const ClientId id{1000 + i, 1};
      FdSink sink(fds[i]);
      EXPECT_TRUE(sink.send(SnapshotCodec::encode_hello(id)));
      EXPECT_TRUE(sink.send(SnapshotCodec::encode(MonitorSnapshot{}, id)));
      EXPECT_TRUE(sink.send(SnapshotCodec::encode_goodbye(id)));
    }
  });
  const Captured run = serve(std::to_string(kMaxServeConnections));
  client.join();
  EXPECT_EQ(run.rc, 0);
  EXPECT_NE(run.out.find("=== fleet rollup: " +
                         std::to_string(kMaxServeConnections) +
                         " client(s) ==="),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.err.find("1 connection(s) refused"), std::string::npos)
      << run.err;
}

}  // namespace
}  // namespace pred::cli
