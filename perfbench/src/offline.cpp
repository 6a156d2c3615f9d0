// `offline`: the tools that consume detection output, over the Table 1
// kernels.
//
//   topology  a saved trace file -> load_traces_file -> simulate_concurrent
//             on a flat 4-core CacheSim and on a 2x2 NumaCacheSim (the
//             `--topology` path);
//   client    capture + replay into a Session with the monitor attached,
//             then publish() bracketed by hello/goodbye (the `--emit-to`
//             path);
//   serve     a fleet of clients' published bytes, one connection per
//             client -> a FrameStreamParser fed in 4 KiB reads -> one
//             default Collector on one thread -> rollup() (the `serve`
//             path).
//
// The only workload that exercises sim/, trace/, monitor/ and collect/.
#include "pipelines.hpp"

#include <filesystem>
#include <stdexcept>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "kernels.hpp"
#include "sim/numa_cache_sim.hpp"
#include "trace/snapshot_codec.hpp"
#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"

namespace perfbench {
namespace {

// Accesses per kernel; the simulators run at a few 10^7 accesses/s.
constexpr std::uint64_t kTargetAccesses = 400'000;
// The serve op stands for a fleet of kFleetRepeats times the pass's
// clients, as `serve` sees one --emit-to process per client: repeat 0 is
// the clients' own bytes, and repeat r > 0 re-encodes each client's final
// snapshot under a uid of its own (the session uid plus r << 48, distinct
// because session uids differ below bit 32). So the collector grows by one
// client, and its lines and sites, per connection. Fleets of 1792 and
// more clients made the op's time vary by 8-10% between processes; 448
// clients hold it within about 2%.
constexpr std::size_t kFleetRepeats = 64;
constexpr std::size_t kReadChunk = 4096;  // `serve` reads 4 KiB at a time

class OfflinePipeline final : public Pipeline {
 public:
  const char* name() const override { return "offline"; }

  void setup(const Options& options) override {
    kernels_.clear();
    for (const pred::wl::Workload* w : table1_kernels()) {
      Kernel k;
      k.w = w;
      k.params.threads = kThreads;
      k.params.seed = options.seed;
      k.params.scale = comparable_scale(*w, options.seed, kTargetAccesses);
      pred::Session scratch(kernel_session_options(true));
      const auto traces = w->capture(scratch, k.params);
      k.path = options.workdir + "/" + w->traits().name + ".trace";
      if (!pred::save_traces_file(k.path, traces)) {
        throw std::runtime_error("cannot write " + k.path);
      }
      k.events = pred::total_events(traces);
      k.hash = trace_hash(traces);
      k.bytes = std::filesystem::file_size(k.path);
      kernels_.push_back(k);
    }
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> out;
    for (const char* kind : {"topology", "client"}) {
      for (const Kernel& k : kernels_) {
        out.push_back(std::string(kind) + ":" + k.w->traits().name +
                      "@scale" + std::to_string(k.params.scale));
      }
    }
    out.push_back("serve:" + std::to_string(kernels_.size()) + "clients*" +
                  std::to_string(kFleetRepeats));
    return out;
  }

  void run_op(std::size_t i, Tracer& tr, std::uint32_t op,
              OpRecord& rec) override {
    const std::size_t n = kernels_.size();
    if (i < n) {
      topology(kernels_[i], tr, op, rec);
    } else if (i < 2 * n) {
      client(i - n, tr, op, rec);
    } else {
      serve(tr, op, rec);
    }
  }

  void end_to_end(const Samples& s, MetricMap& out) const override {
    const std::size_t n = kernels_.size();
    double events = 0;
    double topo = 0;
    double monitored = 0;
    for (std::size_t k = 0; k < n; ++k) {
      events += static_cast<double>(kernels_[k].events);
      topo += median_segment(s, k, "topology");
      monitored += median_segment(s, n + k, "monitored");
    }
    out["topology_maccess_per_s"] = events / topo / 1e6;
    out["monitored_maccess_per_s"] = events / monitored / 1e6;
    out["ingest_frames_per_s"] = median_segment(s, 2 * n, "frames") /
                                 median_segment(s, 2 * n, "ingest");
  }

 private:
  struct Kernel {
    const pred::wl::Workload* w = nullptr;
    pred::wl::Params params;
    std::string path;
    std::uint64_t events = 0;
    std::uint64_t hash = 0;
    std::uint64_t bytes = 0;
  };

  void topology(const Kernel& k, Tracer& tr, std::uint32_t op, OpRecord& rec) {
    std::vector<pred::ThreadTrace> traces;
    Timed load(tr, "trace.load_ms", op);
    const bool loaded = pred::load_traces_file(k.path, &traces);
    double seconds = load.stop();
    if (!loaded || trace_hash(traces) != k.hash) {
      rec.fail("trace file does not round-trip", true);
      return;
    }

    Timed flat_t(tr, "sim.flat_s", op);
    pred::SimConfig flat_cfg;
    flat_cfg.num_cores = kThreads;
    pred::CacheSim flat(flat_cfg);
    const pred::ConcurrentResult flat_r =
        pred::simulate_concurrent(flat, traces);
    seconds += flat_t.stop();

    Timed numa_t(tr, "sim.numa_s", op);
    pred::NumaConfig numa_cfg;
    numa_cfg.sockets = 2;
    numa_cfg.cores_per_socket = 2;
    pred::NumaCacheSim numa(numa_cfg);
    const pred::ConcurrentResult numa_r =
        pred::simulate_concurrent(numa, traces);
    seconds += numa_t.stop();
    rec.t["topology"] = seconds;

    const pred::NumaStats& ns = numa.stats();
    rec.layer["trace.bytes"] += static_cast<double>(k.bytes);
    rec.layer["sim.coherence_misses"] +=
        static_cast<double>(flat_r.stats.coherence_misses);
    rec.layer["sim.remote_coherence_misses"] +=
        static_cast<double>(ns.remote_coherence_misses);
    rec.layer["sim.directory_transitions"] +=
        static_cast<double>(ns.directory_transitions);
    rec.det["trace_bytes"] = k.bytes;
    rec.det["events"] = k.events;
    rec.det["flat_coherence_misses"] = flat_r.stats.coherence_misses;
    rec.det["flat_invalidations"] = flat_r.stats.invalidations_sent;
    rec.det["flat_cycles"] = flat_r.finish_cycles;
    rec.det["numa_coherence_misses"] = ns.coherence_misses;
    rec.det["numa_remote_coherence_misses"] = ns.remote_coherence_misses;
    rec.det["numa_directory_transitions"] = ns.directory_transitions;
    rec.det["numa_cycles"] = numa_r.finish_cycles;
  }

  void client(std::size_t k, Tracer& tr, std::uint32_t op, OpRecord& rec) {
    if (k == 0) {
      connections_.clear();
      published_.clear();
    }
    const Kernel& kernel = kernels_[k];
    pred::Session session(kernel_session_options(prediction));
    session.monitor().start();

    std::vector<pred::ThreadTrace> traces;
    {
      Traced capture(tr, "workloads.capture_s", op);
      traces = kernel.w->capture(session, kernel.params);
    }

    Timed replay(tr, "monitor.replay_s", op);
    pred::wl::replay_into_session(session, traces);
    double seconds = replay.stop();

    Timed publish(tr, "monitor.publish_ms", op);
    const std::string frame = session.publish();
    seconds += publish.stop();
    rec.t["monitored"] = seconds;
    session.monitor().stop();
    connections_.push_back(session.hello_frame() + frame +
                           session.goodbye_frame());

    pred::wire::Frame parsed;
    std::size_t consumed = 0;
    pred::DecodedSnapshot decoded;
    if (pred::wire::parse_frame(frame, &parsed, &consumed) !=
            pred::wire::FrameError::kOk ||
        !pred::SnapshotCodec::decode(parsed.payload, &decoded)) {
      rec.fail("published snapshot does not decode", true);
      return;
    }
    published_.push_back(decoded);
    const pred::MonitorSnapshot& snap = decoded.snapshot;
    rec.layer["monitor.events"] += static_cast<double>(snap.events_seen);
    rec.layer["monitor.dropped"] += static_cast<double>(snap.events_dropped);
    add_runtime_layer(rec, read_counters(session, pred::Report{}),
                      pred::total_events(traces));
    rec.det["accesses"] = pred::total_events(traces);
  }

  void serve(Tracer& tr, std::uint32_t op, OpRecord& rec) {
    if (published_.size() != kernels_.size()) {
      rec.fail("serve ran without a full pass of clients", true);
      return;
    }
    std::vector<std::string> fleet = connections_;
    fleet.reserve(published_.size() * kFleetRepeats);
    for (std::uint64_t r = 1; r < kFleetRepeats; ++r) {
      for (const pred::DecodedSnapshot& d : published_) {
        const pred::ClientId id{d.client.uid + (r << 48), d.client.pid};
        fleet.push_back(pred::SnapshotCodec::encode_hello(id) +
                        pred::SnapshotCodec::encode(d.snapshot, id) +
                        pred::SnapshotCodec::encode_goodbye(id));
      }
    }

    std::uint64_t frames = 0;
    pred::Collector collector;
    Timed ingest_all(tr, "collect.serve", op);
    for (const std::string& conn : fleet) {
      pred::FrameStreamParser parser;
      for (std::size_t at = 0; at < conn.size(); at += kReadChunk) {
        pred::wire::Frame frame;
        bool got = false;
        {
          Traced parse(tr, "collect.parse_ms", op);
          parser.feed(std::string_view(conn).substr(at, kReadChunk));
          got = parser.next(&frame);
        }
        while (got) {
          {
            Traced ingest(tr, "collect.ingest_ms", op);
            collector.ingest_frame(frame);
          }
          ++frames;
          Traced parse(tr, "collect.parse_ms", op);
          got = parser.next(&frame);
        }
      }
      if (parser.poisoned() || parser.pending_bytes() != 0) {
        rec.fail("frame stream did not parse cleanly", true);
      }
    }
    pred::FleetRollup rollup;
    {
      Traced rollup_t(tr, "collect.rollup_ms", op);
      rollup = collector.rollup();
    }
    rec.t["ingest"] = ingest_all.stop();
    rec.t["frames"] = static_cast<double>(frames);

    const pred::Collector::Stats st = collector.stats();
    if (st.frames_rejected != 0) {
      rec.fail(std::to_string(st.frames_rejected) + " frame(s) rejected", true);
    }
    // Every repeat adds the pass's snapshots once more.
    pred::MonitorSnapshot sum;
    for (const pred::DecodedSnapshot& d : published_) {
      const pred::MonitorSnapshot& s = d.snapshot;
      sum.events_seen += s.events_seen;
      sum.events_dropped += s.events_dropped;
      sum.escalations += s.escalations;
      sum.invalidations += s.invalidations;
      sum.samples += s.samples;
      sum.predictions += s.predictions;
      sum.virtual_lines += s.virtual_lines;
    }
    if (rollup.clients != published_.size() * kFleetRepeats ||
        rollup.events_seen != sum.events_seen * kFleetRepeats ||
        rollup.events_dropped != sum.events_dropped * kFleetRepeats ||
        rollup.escalations != sum.escalations * kFleetRepeats ||
        rollup.invalidations != sum.invalidations * kFleetRepeats ||
        rollup.samples != sum.samples * kFleetRepeats ||
        rollup.predictions != sum.predictions * kFleetRepeats ||
        rollup.virtual_lines != sum.virtual_lines * kFleetRepeats) {
      rec.fail("rollup differs from the sum of the fleet's snapshots", true);
    }
    rec.layer["collect.frames"] += static_cast<double>(frames);
    rec.layer["collect.rejected"] += static_cast<double>(st.frames_rejected);
    rec.det["frames"] = frames;
    rec.det["rejected"] = st.frames_rejected;
  }

  std::vector<Kernel> kernels_;
  // The current pass's clients: each one's connection bytes (hello,
  // snapshot, goodbye) and its decoded final snapshot.
  std::vector<std::string> connections_;
  std::vector<pred::DecodedSnapshot> published_;
};

}  // namespace

std::unique_ptr<Pipeline> make_offline() {
  return std::make_unique<OfflinePipeline>();
}

}  // namespace perfbench
