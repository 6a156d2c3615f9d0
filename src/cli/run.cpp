// Every predator-cli entry except `analyze`: the detection run, the live
// monitor, the fleet-aggregation commands (src/collect/) and the closed
// repair loop (src/repair/).
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "advice/fix_advisor.hpp"
#include "cli/cli.hpp"
#include "collect/collector.hpp"
#include "repair/plan_codec.hpp"
#include "repair/planner.hpp"
#include "repair/targets.hpp"
#include "repair/verifier.hpp"
#include "report_io/json_writer.hpp"
#include "report_io/report_diff.hpp"
#include "report_io/report_json.hpp"
#include "report_io/snapshot_json.hpp"
#include "trace/trace_io.hpp"

namespace pred::cli {
namespace {

// --topology: replay the same captured traces through the two-level NUMA
// simulator plus a 1-socket baseline with identical core count and costs,
// then print the big-machine verdict — remote/local cycle ratio, the
// interconnect traffic breakdown, and the hottest lines attributed back to
// their allocation sites. With `json_out` set, the verdict is serialized as
// one JSON object (the value of the report document's "topology" key — the
// whole --json output must stay a single parseable document, which is why
// parse_cli rejects --json with --diff-fix) instead of printed.
void run_topology_sim(const CliOptions& opt, Session& session,
                      const std::vector<ThreadTrace>& traces,
                      std::string* json_out, std::FILE* out) {
  const NumaConfig& cfg = opt.topology;
  NumaConfig base = cfg;
  base.sockets = 1;
  base.cores_per_socket = cfg.total_cores();
  base.llc_line_size = cfg.line_size;
  CacheSim local(base);
  CacheSim numa(cfg);
  simulate_interleaved(local, traces, opt.replay_quantum);
  simulate_interleaved(numa, traces, opt.replay_quantum);
  const SimStats& s = numa.stats();
  const double ratio =
      local.max_core_cycles() == 0
          ? 1.0
          : static_cast<double>(numa.max_core_cycles()) /
                static_cast<double>(local.max_core_cycles());

  auto site_of = [&](Address a) -> std::string {
    const auto obj = session.runtime().objects().find(a);
    if (!obj) return "?";
    if (obj->is_global && !obj->name.empty()) return obj->name;
    if (obj->callsite != kNoCallsite) {
      const auto& frames =
          session.runtime().callsites().get(obj->callsite).frames;
      if (!frames.empty()) return frames.back();
    }
    return "?";
  };
  const auto hot = numa.hottest_lines(8);
  const char* placement =
      cfg.placement == NumaPlacement::kScatter ? "scatter" : "compact";

  if (json_out != nullptr) {
    JsonWriter w;
    w.begin_object();
    w.field("sockets", static_cast<std::uint64_t>(cfg.sockets));
    w.field("cores_per_socket",
            static_cast<std::uint64_t>(cfg.cores_per_socket));
    w.field("placement", placement);
    w.field("remote_factor", cfg.remote_factor);
    w.field("llc_line_size", static_cast<std::uint64_t>(cfg.llc_line_size));
    w.field("max_core_cycles", numa.max_core_cycles());
    w.field("local_max_core_cycles", local.max_core_cycles());
    w.field("remote_ratio", ratio);
    w.field("remote_coherence_misses", s.remote_coherence_misses);
    w.field("remote_invalidations", s.remote_invalidations_sent);
    w.field("directory_transitions", s.directory_transitions);
    w.field("llc_sibling_invalidations", s.llc_sibling_invalidations);
    w.key("hot_lines").begin_array();
    for (const auto& h : hot) {
      w.begin_object();
      w.field("addr", static_cast<std::uint64_t>(h.line_start));
      w.field("invalidations", h.invalidations);
      w.field("remote_invalidations", h.remote_invalidations);
      w.field("site", site_of(h.line_start));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    *json_out = w.str();
    return;
  }

  std::fprintf(out, "\n=== topology %ux%u (%s, remote x%.1f, llc %zuB) ===\n",
               cfg.sockets, cfg.cores_per_socket, placement,
               cfg.remote_factor, cfg.llc_line_size);
  std::fprintf(out,
               "modeled cycles: %" PRIu64 " (1-socket baseline %" PRIu64
               ", remote/local ratio %.2fx)\n",
               numa.max_core_cycles(), local.max_core_cycles(), ratio);
  std::fprintf(out,
               "remote traffic: coherence %" PRIu64 ", shared fetches %" PRIu64
               ", cold %" PRIu64 ", invalidations %" PRIu64 "\n",
               s.remote_coherence_misses, s.remote_shared_fetches,
               s.remote_cold_misses, s.remote_invalidations_sent);
  std::fprintf(out,
               "directory: transitions %" PRIu64 ", socket invalidations %"
               PRIu64 ", llc sibling kills %" PRIu64 "\n",
               s.directory_transitions, s.directory_invalidations,
               s.llc_sibling_invalidations);
  if (!hot.empty()) {
    std::fprintf(out, "hot lines (top %zu):\n", hot.size());
    for (const auto& h : hot) {
      std::fprintf(out, "  0x%" PRIxPTR " inv=%" PRIu64 " remote=%" PRIu64
                   "  %s\n", h.line_start, h.invalidations,
                   h.remote_invalidations, site_of(h.line_start).c_str());
    }
  }
}

const char* entries_word(std::size_t n) { return n == 1 ? "y" : "ies"; }

const wl::Workload* find_workload(const CliOptions& opt, std::FILE* err) {
  const wl::Workload* w = wl::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(err, "unknown workload '%s' (try --list)\n",
                 opt.workload.c_str());
  }
  return w;
}

// Connects to the `serve` collector at `path` and sends the hello. Null,
// with a diagnostic, when the endpoint is unreachable.
std::unique_ptr<Publisher> connect_publisher(const std::string& path,
                                             Session& session,
                                             std::FILE* err) {
  const int fd = connect_unix(path);
  if (fd < 0) {
    std::fprintf(err, "cannot connect to collector at %s\n", path.c_str());
    return nullptr;
  }
  auto pub = std::make_unique<Publisher>(session, fd);
  if (!pub->ok()) {
    std::fprintf(err, "collector at %s hung up\n", path.c_str());
    return nullptr;
  }
  return pub;
}

// One transport connection into the collector: the fd plus the incremental
// parser reassembling frames across read() boundaries.
struct ClientConn {
  explicit ClientConn(int conn_fd) : fd(conn_fd) {}
  int fd;
  FrameStreamParser parser;
  bool open = true;
};

// One POLLIN's worth of bytes: read once, feed the parser, ingest every
// complete frame. EOF or a poisoned stream closes the connection.
void drain_conn(Collector& collector, ClientConn& conn, std::FILE* err) {
  char buf[4096];
  ssize_t n;
  do {
    n = ::read(conn.fd, buf, sizeof buf);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    wire::Frame frame;
    while (conn.parser.next(&frame)) collector.ingest_frame(frame);
    if (!conn.parser.poisoned()) return;
    std::fprintf(err, "dropping client: corrupt frame stream\n");
  }
  conn.open = false;
  ::close(conn.fd);
}

// The collector's single-threaded poll loop, shared by `serve` and
// `fleet` (the Collector is what's thread-safe; the loop needs no
// threads). Drains every readable connection into `collector`. With a
// listen fd it also accepts new connections, closing at once (and
// counting) any beyond kMaxServeConnections, and calls `on_idle` whenever
// `idle_ms` passes with nothing to do (-1: never). Returns once no
// connection is open and either nothing more can connect or `expect`
// (nonzero) goodbyes arrived; the result is the refused-connection count.
std::uint64_t pump(Collector& collector, std::vector<ClientConn> conns,
                   int listen_fd, std::uint64_t expect, int idle_ms,
                   const std::function<void()>& on_idle, std::FILE* err) {
  std::uint64_t refused = 0;
  while (!conns.empty() ||
         (listen_fd >= 0 &&
          (expect == 0 || collector.stats().goodbyes < expect))) {
    std::vector<pollfd> pfds;
    if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
    for (const ClientConn& c : conns) pfds.push_back({c.fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), pfds.size(), idle_ms);
    if (ready < 0 && errno != EINTR) break;
    if (ready == 0) on_idle();
    if (ready <= 0) continue;

    const std::size_t first = listen_fd >= 0 ? 1 : 0;
    for (std::size_t pi = first; pi < pfds.size(); ++pi) {
      if ((pfds[pi].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain_conn(collector, conns[pi - first], err);
      }
    }
    std::erase_if(conns, [](const ClientConn& c) { return !c.open; });
    if (first == 1 && (pfds[0].revents & POLLIN) != 0) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd >= 0 && conns.size() >= kMaxServeConnections) {
        ::close(cfd);
        ++refused;
      } else if (cfd >= 0) {
        conns.emplace_back(cfd);
      }
    }
  }
  return refused;
}

void print_rollup(const Collector& collector, bool json, std::FILE* out) {
  if (json) {
    const repair::RepairPlan plan = collector.merged_plan();
    std::fprintf(out, "%s\n",
                 rollup_json(collector.rollup(),
                             plan.empty() ? nullptr : &plan)
                     .c_str());
  } else {
    std::fputs(collector.rollup_text().c_str(), out);
  }
  std::fflush(out);
}

// One forked fleet client: replay the workload deterministically,
// publishing a cumulative snapshot after every repeat. Exits the process
// (never returns).
[[noreturn]] void run_fleet_client(const CliOptions& opt,
                                   const wl::Workload* w, int fd) {
  Session session(opt.session);
  session.monitor().start();
  Publisher pub(session, fd);
  for (std::uint64_t r = 0; r < opt.repeat && pub.ok(); ++r) {
    w->run_replay(session, opt.params, opt.replay_quantum);
    pub.publish();
  }
  const bool ok = pub.finish();
  session.monitor().stop();
  std::_Exit(ok ? 0 : 1);
}

}  // namespace

Publisher::Publisher(Session& session, int fd) : session_(session), sink_(fd) {
  send(session.hello_frame());
}

bool Publisher::publish() { return send(session_.publish()); }

bool Publisher::finish(const repair::RepairPlan* plan) {
  // The session uid is stamped only on the emitted copy: local reports
  // stay byte-identical across runs (deterministic-replay invariant), while
  // the collector still gets per-session provenance.
  if (plan != nullptr && !plan->empty()) {
    repair::RepairPlan tagged = *plan;
    tagged.origin_uid = session_.uid();
    send(repair::encode_plan_frame(tagged));
  }
  return send(session_.goodbye_frame());
}

bool Publisher::send(const std::string& frame) {
  return ok_ = ok_ && sink_.send(frame);
}

int run_list(std::FILE* out) {
  std::fprintf(out, "%-20s %-8s %s\n", "name", "suite", "known sites");
  for (const auto& w : wl::all_workloads()) {
    std::string sites;
    for (const auto& s : w->traits().sites) {
      if (!sites.empty()) sites += ", ";
      sites += s.where;
      if (s.needs_prediction) sites += " [latent]";
    }
    std::fprintf(out, "%-20s %-8s %s\n", w->traits().name.c_str(),
                 w->traits().suite.c_str(),
                 sites.empty() ? "(clean)" : sites.c_str());
  }
  return 0;
}

int run_detect(const CliOptions& opt, std::FILE* out, std::FILE* err) {
  const wl::Workload* w = find_workload(opt, err);
  if (w == nullptr) return 1;
  Session session(opt.session);

  // --plan: the saved plan must be live in the allocator before the
  // workload allocates anything, or heap sites would miss their padding.
  if (!opt.plan_file.empty()) {
    repair::RepairPlan loaded;
    if (!repair::load_plan_file(opt.plan_file, &loaded)) {
      std::fprintf(err, "cannot load repair plan from %s\n",
                   opt.plan_file.c_str());
      return 1;
    }
    std::fprintf(err, "plan: %zu entr%s installed from %s\n",
                 loaded.entries.size(), entries_word(loaded.entries.size()),
                 opt.plan_file.c_str());
    session.allocator().install_repair_plan(
        std::make_shared<const repair::RepairPlan>(std::move(loaded)));
  }

  // --emit-to: publish this run's snapshots to a `serve` collector. The
  // monitor must observe the replay, so start it before events flow.
  std::unique_ptr<Publisher> emit;
  if (!opt.emit_to.empty()) {
    emit = connect_publisher(opt.emit_to, session, err);
    if (!emit) return 1;
    session.monitor().start();
  }

  const auto traces = w->capture(session, opt.params);
  if (!opt.save_trace.empty()) {
    if (!save_traces_file(opt.save_trace, traces)) {
      std::fprintf(err, "cannot write trace to %s\n", opt.save_trace.c_str());
      return 1;
    }
    std::fprintf(err, "trace: %zu events -> %s\n", total_events(traces),
                 opt.save_trace.c_str());
  }
  wl::replay_into_session(session, traces, opt.replay_quantum);

  const Report report = session.report();
  std::vector<FixSuggestion> suggestions;
  repair::RepairPlan plan;
  if (opt.advise_fixes || emit) {
    suggestions = advise(report);
    plan = repair::compile_plan(report, suggestions,
                                session.runtime().callsites());
  }

  if (emit) {
    // The compiled plan rides along so a `serve --emit-plan` collector can
    // merge repair advice across the fleet.
    emit->publish();
    emit->finish(&plan);
    session.monitor().stop();
  }

  if (opt.json) {
    std::string doc =
        report_to_json(report, session.runtime().callsites(),
                       opt.advise_fixes ? &suggestions : nullptr,
                       opt.advise_fixes && !plan.empty() ? &plan : nullptr);
    if (opt.topology_set) {
      // Splice the topology verdict into the report document so --json
      // still emits exactly one parseable JSON object.
      std::string topo;
      run_topology_sim(opt, session, traces, &topo, out);
      doc.insert(doc.rfind('}'), ",\"topology\":" + topo);
    }
    std::fprintf(out, "%s\n", doc.c_str());
  } else {
    std::fputs(format_report(report, session.runtime().callsites()).c_str(),
               out);
    if (opt.advise_fixes) {
      std::fprintf(out, "\n%s", format_suggestions(suggestions).c_str());
    }
    if (opt.topology_set) run_topology_sim(opt, session, traces, nullptr, out);
  }

  if (opt.diff_fix) {
    Session fixed_session(opt.session);
    wl::Params fixed_params = opt.params;
    fixed_params.fix_mask = ~0u;
    w->run_replay(fixed_session, fixed_params, opt.replay_quantum);
    const Report fixed_report = fixed_session.report();
    const ReportDiff diff =
        diff_reports(report, session.runtime().callsites(), fixed_report,
                     fixed_session.runtime().callsites());
    std::fprintf(out, "\n=== buggy -> fixed diff ===\n%s",
                 format_diff(diff).c_str());
  }

  if (opt.fail_on_findings && wl::false_sharing_findings(report) > 0) {
    return 2;
  }
  return 0;
}

// A live run: real threads with the session monitor attached. The calling
// thread prints a rolling snapshot every interval while mutators run (no
// pauses), then the final report. With --emit-to, every printed snapshot
// is also published to the collector.
int run_monitor(const CliOptions& opt, std::FILE* out, std::FILE* err) {
  const wl::Workload* w = find_workload(opt, err);
  if (w == nullptr) return 1;
  Session session(opt.session);
  session.monitor().start();
  std::unique_ptr<Publisher> emit;
  if (!opt.emit_to.empty()) {
    emit = connect_publisher(opt.emit_to, session, err);
    if (!emit) return 1;
  }

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (std::uint64_t r = 0; r < opt.repeat; ++r) {
      w->run_live(session, opt.params);
    }
    done.store(true, std::memory_order_release);
  });
  const auto interval =
      std::chrono::milliseconds(opt.interval_ms != 0 ? opt.interval_ms : 200);
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    std::fprintf(out, "%s\n", session.monitor().snapshot_text().c_str());
    std::fflush(out);
    if (emit) emit->publish();
  }
  worker.join();

  if (emit) {
    emit->publish();
    emit->finish();
  }
  session.monitor().stop();

  std::fprintf(out, "=== final snapshot ===\n%s\n",
               session.monitor().snapshot_text().c_str());
  std::fprintf(out, "=== final report ===\n%s",
               format_report(session.report(), session.runtime().callsites())
                   .c_str());
  if (opt.fail_on_findings &&
      wl::false_sharing_findings(session.report()) > 0) {
    return 2;
  }
  return 0;
}

// Collector daemon on a unix socket. With --expect N it exits once N
// clients said goodbye and every connection drained; otherwise it runs
// until killed.
int run_serve(const CliOptions& opt, std::FILE* out, std::FILE* err) {
  const int lfd = listen_unix(opt.socket_path);
  if (lfd < 0) {
    std::fprintf(err, "cannot listen on %s\n", opt.socket_path.c_str());
    return 1;
  }
  Collector collector({static_cast<std::size_t>(opt.top_k)});
  std::fprintf(err, "collector: listening on %s\n", opt.socket_path.c_str());
  const std::uint64_t refused = pump(
      collector, {}, lfd, opt.expect,
      opt.interval_ms != 0 ? static_cast<int>(opt.interval_ms) : -1,
      [&] { print_rollup(collector, opt.json, out); }, err);
  ::close(lfd);
  ::unlink(opt.socket_path.c_str());

  const Collector::Stats st = collector.stats();
  std::fprintf(err,
               "collector: %" PRIu64 " frame(s) (%" PRIu64 " snapshot(s), %"
               PRIu64 " hello(s), %" PRIu64 " goodbye(s), %" PRIu64
               " plan(s)), %" PRIu64 " rejected, %" PRIu64
               " connection(s) refused over the cap of %zu\n",
               st.frames_ingested, st.snapshots_ingested, st.hellos,
               st.goodbyes, st.plans_ingested, st.frames_rejected, refused,
               kMaxServeConnections);
  if (!opt.emit_plan.empty()) {
    const repair::RepairPlan merged = collector.merged_plan();
    if (!repair::save_plan_file(opt.emit_plan, merged)) {
      std::fprintf(err, "collector: cannot write plan to %s\n",
                   opt.emit_plan.c_str());
      return 1;
    }
    std::fprintf(err, "collector: merged plan (%zu entr%s) -> %s\n",
                 merged.entries.size(), entries_word(merged.entries.size()),
                 opt.emit_plan.c_str());
  }
  print_rollup(collector, opt.json, out);
  return 0;
}

// The end-to-end fleet demo: forks --clients workload processes, each
// streaming snapshots over its own socketpair, drains them all into an
// in-process collector, and prints the fleet rollup. Children replay
// captured traces, so the demo is deterministic even on one core.
int run_fleet(const CliOptions& opt, std::FILE* out, std::FILE* err) {
  const wl::Workload* w = find_workload(opt, err);
  if (w == nullptr) return 1;
  std::vector<ClientConn> conns;
  std::vector<pid_t> pids;
  // A failed spawn still drains and reaps the clients already started.
  int failed = 0;
  for (std::uint64_t c = 0; c < opt.clients; ++c) {
    int fds[2];
    if (!make_socketpair(fds)) {
      std::fprintf(err, "socketpair failed for client %" PRIu64 "\n", c);
      ++failed;
      break;
    }
    std::fflush(out);
    std::fflush(err);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(err, "fork failed for client %" PRIu64 "\n", c);
      ::close(fds[0]);
      ::close(fds[1]);
      ++failed;
      break;
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (const ClientConn& prev : conns) ::close(prev.fd);
      run_fleet_client(opt, w, fds[1]);  // _Exits
    }
    ::close(fds[1]);
    conns.emplace_back(fds[0]);
    pids.push_back(pid);
  }

  Collector collector({static_cast<std::size_t>(opt.top_k)});
  pump(collector, std::move(conns), -1, 0, -1, {}, err);
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed;
  }
  if (failed > 0) {
    std::fprintf(err, "%d fleet client(s) failed\n", failed);
  }

  const Collector::Stats st = collector.stats();
  std::fprintf(err,
               "fleet: %" PRIu64 " client(s), %" PRIu64
               " snapshot(s) ingested, %" PRIu64 " rejected\n",
               opt.clients, st.snapshots_ingested, st.frames_rejected);
  print_rollup(collector, opt.json, out);
  return failed > 0 ? 1 : 0;
}

int run_repair(const CliOptions& opt, std::FILE* out, std::FILE* err) {
  if (opt.workload.empty() || opt.list) {
    std::fprintf(out, "%-16s %s\n", "target", "defect");
    for (const repair::RepairTarget* t : repair::all_repair_targets()) {
      std::fprintf(out, "%-16s %s\n", std::string(t->name()).c_str(),
                   std::string(t->description()).c_str());
    }
    return 0;
  }
  const repair::RepairTarget* target =
      repair::find_repair_target(opt.workload);
  if (target == nullptr) {
    std::fprintf(err,
                 "unknown repair target '%s' (run `repair` with no name to "
                 "list them)\n",
                 opt.workload.c_str());
    return 1;
  }

  repair::VerifierOptions vopt;
  vopt.threads = opt.params.threads;
  vopt.scale = opt.params.scale;
  vopt.quantum = opt.replay_quantum;
  if (opt.repair_static) {
    repair::StaticModuleSpec probe;
    if (!target->static_spec(&probe, vopt.threads, vopt.scale)) {
      std::fprintf(err,
                   "target '%s' has no static module spec; --static needs "
                   "an IR-describable target\n",
                   opt.workload.c_str());
      return 1;
    }
  }
  const repair::RepairOutcome outcome =
      opt.repair_static ? repair::run_static_repair_loop(*target, vopt)
                        : repair::run_repair_loop(*target, vopt);

  if (!opt.plan_out.empty()) {
    if (!repair::save_plan_file(opt.plan_out, outcome.plan)) {
      std::fprintf(err, "cannot write plan to %s\n", opt.plan_out.c_str());
      return 1;
    }
    std::fprintf(err, "plan: %zu entr%s -> %s\n", outcome.plan.entries.size(),
                 entries_word(outcome.plan.entries.size()),
                 opt.plan_out.c_str());
  }

  const bool proven = outcome.repaired(vopt.drop_threshold);
  if (opt.json) {
    JsonWriter w;
    w.begin_object();
    w.field("target", std::string(target->name()));
    w.field("static", opt.repair_static);
    w.field("repaired", proven);
    w.field("baseline_invalidations", outcome.baseline_invalidations);
    w.field("repaired_invalidations", outcome.repaired_invalidations);
    w.field("drop_pct", outcome.drop_pct());
    w.field("drop_threshold", vopt.drop_threshold);
    w.field("surviving_site_findings",
            static_cast<std::uint64_t>(outcome.repaired_site_findings));
    w.field("baseline_checksum", outcome.baseline_checksum);
    w.field("repaired_checksum", outcome.repaired_checksum);
    w.field("checksums_match", outcome.checksums_match());
    w.field("detect_ms", outcome.detect_ms);
    w.field("plan_ms", outcome.plan_ms);
    w.field("apply_ms", outcome.apply_ms);
    w.field("verify_ms", outcome.verify_ms);
    w.key("repair_plan").begin_object();
    write_plan_fields(w, outcome.plan);
    w.end_object();
    w.end_object();
    std::fprintf(out, "%s\n", w.str().c_str());
  } else {
    std::fprintf(out, "%s\n%s", repair::format_plan(outcome.plan).c_str(),
                 repair::format_outcome(outcome, vopt.drop_threshold).c_str());
  }
  return proven ? 0 : 2;
}

}  // namespace pred::cli
