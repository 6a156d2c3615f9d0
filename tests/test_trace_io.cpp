// Tests for trace persistence: round-trip fidelity, corruption rejection,
// and the record-once / analyze-many workflow (saved traces replayed under
// different detector configurations give the same verdicts as live capture).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

ThreadTrace make_trace(std::size_t n, Address base) {
  ThreadTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({base + 8 * i, static_cast<std::uint32_t>(i % 100),
                 i % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
                 static_cast<std::uint8_t>(i % 2 ? 8 : 1)});
  }
  return t;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  std::vector<ThreadTrace> traces;
  traces.push_back(make_trace(1000, 0x1000));
  traces.push_back(make_trace(17, 0x2000));
  traces.push_back({});  // empty thread is legal

  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));

  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    ASSERT_EQ(loaded[t].size(), traces[t].size()) << "thread " << t;
    for (std::size_t i = 0; i < traces[t].size(); ++i) {
      EXPECT_EQ(loaded[t][i].addr, traces[t][i].addr);
      EXPECT_EQ(loaded[t][i].think_cycles, traces[t][i].think_cycles);
      EXPECT_EQ(loaded[t][i].type, traces[t][i].type);
      EXPECT_EQ(loaded[t][i].size, traces[t][i].size);
    }
  }
  EXPECT_EQ(total_events(loaded), 1017u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buf;
  buf.write("NOPE", 4);
  std::vector<ThreadTrace> loaded{make_trace(3, 0)};
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());  // cleared on failure
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::vector<ThreadTrace> traces{make_trace(100, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(cut, &loaded));
}

// The pre-frame v1 format ("PRTR" preamble) is no longer read: such a
// file fails at the first frame's magic check.
TEST(TraceIo, RejectsLegacyV1Preamble) {
  std::stringstream buf;
  const std::uint32_t header[] = {0x50525452u /* "PRTR" */, 1, 1};
  const std::uint64_t count = 0;
  buf.write(reinterpret_cast<const char*>(header), sizeof header);
  buf.write(reinterpret_cast<const char*>(&count), sizeof count);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(buf, &loaded));
}

/// A CRC-valid trace header claiming `threads` threads, followed by
/// `frames` (already encoded thread frames).
std::string trace_with_header(std::uint64_t threads,
                              const std::string& frames) {
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, threads);  // thread count
  hw.u64(2, 0);        // total events
  return wire::encode_frame(wire::FrameType::kTraceHeader, header) + frames;
}

/// A CRC-valid thread frame with the given event-count field and event blob.
std::string raw_thread_frame(std::uint64_t index, std::uint64_t count,
                             const std::string& events) {
  std::string body;
  wire::FieldWriter bw(&body);
  bw.u64(1, index);
  bw.u64(2, count);
  bw.bytes(3, events);
  return wire::encode_frame(wire::FrameType::kThreadTrace, body);
}

std::string thread_frame(std::uint64_t index, const ThreadTrace& trace) {
  return raw_thread_frame(index, trace.size(), pack_events(trace));
}

// A forged thread count is checked against the bytes that follow before
// anything is allocated for it (2^40 empty traces would need ~32 TiB).
TEST(TraceIo, RejectsThreadCountTheStreamCannotHold) {
  const std::string frames =
      thread_frame(0, make_trace(4, 0x1000)) + thread_frame(1, {});
  std::stringstream huge(trace_with_header(std::uint64_t{1} << 40, frames));
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(huge, &loaded));
  EXPECT_TRUE(loaded.empty());
  // One more thread than frames present also fails (truncation), while
  // the honest count loads.
  std::stringstream short_by_one(trace_with_header(3, frames));
  EXPECT_FALSE(load_traces(short_by_one, &loaded));
  std::stringstream exact(trace_with_header(2, frames));
  ASSERT_TRUE(load_traces(exact, &loaded));
  EXPECT_EQ(total_events(loaded), 4u);
}

// Every thread index must appear exactly once: a repeated index (which
// would leave another thread silently empty) is rejected.
TEST(TraceIo, RejectsRepeatedThreadIndex) {
  const std::string frames =
      thread_frame(0, make_trace(4, 0x1000)) + thread_frame(0, {});
  std::stringstream buf(trace_with_header(2, frames));
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// An event blob must be whole 16-byte records: a trailing partial record is
// rejected rather than dropped, even with a count that matches the whole
// records.
TEST(TraceIo, RejectsEventBlobNotAMultipleOf16) {
  const ThreadTrace trace = make_trace(3, 0x1000);
  for (const std::size_t extra : {1, 8, 15}) {
    const std::string blob = pack_events(trace) + std::string(extra, '\0');
    std::stringstream buf(
        trace_with_header(1, raw_thread_frame(0, trace.size(), blob)));
    std::vector<ThreadTrace> loaded;
    EXPECT_FALSE(load_traces(buf, &loaded)) << "extra bytes " << extra;
    EXPECT_TRUE(loaded.empty());
  }
}

// The event-count field must agree with the blob, in either direction.
TEST(TraceIo, RejectsEventCountThatDisagreesWithBlob) {
  const ThreadTrace trace = make_trace(5, 0x1000);
  for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{4},
                                    std::uint64_t{6}, ~std::uint64_t{0}}) {
    std::stringstream buf(trace_with_header(
        1, raw_thread_frame(0, count, pack_events(trace))));
    std::vector<ThreadTrace> loaded;
    EXPECT_FALSE(load_traces(buf, &loaded)) << "count " << count;
  }
  std::stringstream honest(trace_with_header(1, thread_frame(0, trace)));
  std::vector<ThreadTrace> loaded;
  EXPECT_TRUE(load_traces(honest, &loaded));
}

// The type byte is normalized: 0 is a read, anything else a write.
TEST(TraceIo, NonzeroTypeBytesLoadAsWrites) {
  constexpr std::size_t kTypeOffset = 12;  // after addr u64 and think u32
  const ThreadTrace trace(4, TraceEvent{0x1000, 7, AccessType::kRead, 8});
  std::string blob = pack_events(trace);
  const unsigned char types[] = {0, 1, 2, 255};
  for (std::size_t i = 0; i < 4; ++i) {
    blob[16 * i + kTypeOffset] = static_cast<char>(types[i]);
  }
  std::stringstream buf(trace_with_header(1, raw_thread_frame(0, 4, blob)));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded[0].size(), 4u);
  EXPECT_EQ(loaded[0][0].type, AccessType::kRead);
  EXPECT_EQ(loaded[0][1].type, AccessType::kWrite);
  EXPECT_EQ(loaded[0][2].type, AccessType::kWrite);
  EXPECT_EQ(loaded[0][3].type, AccessType::kWrite);
}

// Several MB of events with every field spanning its full range load back
// field for field, and saving them again reproduces the bytes exactly.
TEST(TraceIo, MultiMegabyteTraceRoundTripsBitExactly) {
  std::vector<ThreadTrace> traces(4);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (ThreadTrace& t : traces) {
    t.resize(100'000);
    for (TraceEvent& ev : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      ev.addr = static_cast<Address>(x);
      ev.think_cycles = static_cast<std::uint32_t>(x >> 32);
      ev.type = (x >> 8) & 1 ? AccessType::kWrite : AccessType::kRead;
      ev.size = static_cast<std::uint8_t>(x >> 16);
    }
  }
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  const std::string bytes = buf.str();
  ASSERT_GT(bytes.size(), std::size_t{6} << 20);

  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    ASSERT_EQ(loaded[t].size(), traces[t].size());
    for (std::size_t i = 0; i < traces[t].size(); ++i) {
      const TraceEvent& a = traces[t][i];
      const TraceEvent& b = loaded[t][i];
      ASSERT_TRUE(a.addr == b.addr && a.think_cycles == b.think_cycles &&
                  a.type == b.type && a.size == b.size)
          << "thread " << t << " event " << i;
    }
  }
  std::stringstream again;
  ASSERT_TRUE(save_traces(again, loaded));
  EXPECT_TRUE(again.str() == bytes);
}

// The current writer emits the v2 frame stream; saved traces must start at
// a verifiable frame boundary, not the legacy preamble.
TEST(TraceIo, SavesVersion2FrameStream) {
  std::vector<ThreadTrace> traces{make_trace(5, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  const std::string bytes = buf.str();

  wire::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), wire::FrameError::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kTraceHeader);
  ASSERT_EQ(wire::parse_frame(std::string_view(bytes).substr(consumed),
                              &frame, &consumed),
            wire::FrameError::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kThreadTrace);
}

// Frame-level version skew (a future framing revision) is rejected up
// front, not misparsed.
TEST(TraceIo, RejectsFrameVersionSkew) {
  std::vector<ThreadTrace> traces{make_trace(6, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::string bytes = buf.str();
  bytes[4] = static_cast<char>(wire::kWireVersion + 1);
  std::stringstream skewed(bytes);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(skewed, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Payload corruption inside a frame flips the CRC check, and the loader
// reports failure instead of returning garbage events.
TEST(TraceIo, RejectsCorruptFramePayload) {
  std::vector<ThreadTrace> traces{make_trace(50, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::string bytes = buf.str();
  bytes[bytes.size() - 7] ^= 0x08;  // inside the last thread's events
  std::stringstream corrupt(bytes);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(corrupt, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Unknown payload fields from a newer writer are skipped: a trace stream
// annotated with extra fields still round-trips the events.
TEST(TraceIo, SkipsUnknownFieldsFromNewerWriters) {
  const ThreadTrace trace = make_trace(12, 0x2000);

  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, 1);                       // thread count
  hw.u64(2, trace.size());            // total events
  hw.str(700, "future annotation");   // unknown

  std::string body;
  wire::FieldWriter bw(&body);
  bw.u64(999, 0xffffffffull);         // unknown, leading
  bw.u64(1, 0);                       // thread index
  bw.u64(2, trace.size());            // event count
  bw.bytes(3, pack_events(trace));    // events
  bw.str(998, "more future data");    // unknown, trailing

  std::stringstream buf;
  const std::string hframe =
      wire::encode_frame(wire::FrameType::kTraceHeader, header);
  const std::string bframe =
      wire::encode_frame(wire::FrameType::kThreadTrace, body);
  buf.write(hframe.data(), static_cast<std::streamsize>(hframe.size()));
  buf.write(bframe.data(), static_cast<std::streamsize>(bframe.size()));

  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].size(), trace.size());
  EXPECT_EQ(loaded[0][5].addr, trace[5].addr);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/predator_trace_test.bin";
  std::vector<ThreadTrace> traces{make_trace(64, 0x4000)};
  ASSERT_TRUE(save_traces_file(path, traces));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces_file(path, &loaded));
  EXPECT_EQ(total_events(loaded), 64u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFailsCleanly) {
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces_file("/nonexistent/dir/trace.bin", &loaded));
}

// Record once, analyze twice: the saved trace replayed into a fresh session
// reproduces the live capture's verdict, and the *same* trace analyzed with
// prediction disabled reproduces PREDATOR-NP — without re-running the
// program.
TEST(TraceIo, RecordOnceAnalyzeMany) {
  SessionOptions opts;
  opts.heap_size = 32 * 1024 * 1024;

  const wl::Workload* w = wl::find_workload("linear_regression");
  ASSERT_NE(w, nullptr);
  wl::Params p;
  p.threads = 8;
  p.offset = 0;

  // Record. Note: the recording session must stay alive while the traces
  // are analyzed, because traces reference its heap addresses.
  Session recorder(opts);
  const auto traces = w->capture(recorder, p);
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));

  // Analysis 1: full PREDATOR over the loaded trace.
  wl::replay_into_session(recorder, loaded);
  bool only_predicted = false;
  EXPECT_TRUE(wl::report_mentions_site(
      recorder.report(), recorder.runtime().callsites(),
      w->traits().sites[0].where, &only_predicted));
  EXPECT_TRUE(only_predicted);
}

}  // namespace
}  // namespace pred
