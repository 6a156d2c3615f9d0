#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>

#include "trace/wire_format.hpp"

namespace pred {

namespace {

struct WireEvent {
  std::uint64_t addr;
  std::uint32_t think;
  std::uint8_t type;
  std::uint8_t size;
  std::uint16_t pad;
};
static_assert(sizeof(WireEvent) == 16);

// Field ids inside kTraceHeader / kThreadTrace payloads.
enum : std::uint16_t {
  kFieldThreadCount = 1,
  kFieldTotalEvents = 2,
  kFieldThreadIndex = 1,
  kFieldEventCount = 2,
  kFieldEvents = 3,
};

/// Smallest encoded kThreadTrace frame: the frame header plus the three
/// fields load_traces requires (two u64s and an empty event blob). Bounds
/// how many threads the bytes left in a stream can possibly describe.
constexpr std::uint64_t kMinThreadFrameBytes =
    wire::kFrameHeaderSize + 3 * 8 + 2 * 8;

}  // namespace

std::string pack_events(const ThreadTrace& trace) {
  std::string out;
  out.reserve(trace.size() * sizeof(WireEvent));
  for (const TraceEvent& ev : trace) {
    WireEvent wire{static_cast<std::uint64_t>(ev.addr), ev.think_cycles,
                   static_cast<std::uint8_t>(ev.type), ev.size, 0};
    out.append(reinterpret_cast<const char*>(&wire), sizeof wire);
  }
  return out;
}

bool unpack_events(std::string_view bytes, ThreadTrace* out) {
  if (bytes.size() % sizeof(WireEvent) != 0) return false;
  // Sized once and decoded in place: no per-event growth check.
  out->resize(bytes.size() / sizeof(WireEvent));
  const char* p = bytes.data();
  for (TraceEvent& ev : *out) {
    WireEvent wire;
    std::memcpy(&wire, p, sizeof wire);
    p += sizeof wire;
    ev.addr = static_cast<Address>(wire.addr);
    ev.think_cycles = wire.think;
    ev.type = wire.type == 0 ? AccessType::kRead : AccessType::kWrite;
    ev.size = wire.size;
  }
  return true;
}

bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces) {
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(kFieldThreadCount, traces.size());
  hw.u64(kFieldTotalEvents, total_events(traces));
  const std::string hframe =
      wire::encode_frame(wire::FrameType::kTraceHeader, header);
  out.write(hframe.data(), static_cast<std::streamsize>(hframe.size()));
  if (!out.good()) return false;

  for (std::size_t t = 0; t < traces.size(); ++t) {
    std::string payload;
    wire::FieldWriter fw(&payload);
    fw.u64(kFieldThreadIndex, t);
    fw.u64(kFieldEventCount, traces[t].size());
    fw.bytes(kFieldEvents, pack_events(traces[t]));
    const std::string frame =
        wire::encode_frame(wire::FrameType::kThreadTrace, payload);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!out.good()) return false;
  }
  return out.good();
}

bool save_traces_file(const std::string& path,
                      const std::vector<ThreadTrace>& traces) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out.is_open() && save_traces(out, traces);
}

bool load_traces(std::istream& in, std::vector<ThreadTrace>* traces) {
  traces->clear();

  wire::Frame frame;
  if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
      frame.type != wire::FrameType::kTraceHeader) {
    return false;
  }
  const auto threads_field =
      wire::FieldReader::find(frame.payload, kFieldThreadCount);
  if (!threads_field) return false;
  const std::uint64_t threads = threads_field->as_u64();
  // The header's count is untrusted: it may not exceed the thread frames
  // the rest of the stream can hold, so a forged count cannot drive the
  // allocation below.
  const std::optional<std::uint64_t> left = wire::bytes_left(in);
  if (!left || threads > *left / kMinThreadFrameBytes) return false;

  std::vector<ThreadTrace> loaded(threads);
  std::vector<bool> seen(threads, false);
  for (std::uint64_t i = 0; i < threads; ++i) {
    if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
        frame.type != wire::FrameType::kThreadTrace) {
      return false;
    }
    const auto index = wire::FieldReader::find(frame.payload, kFieldThreadIndex);
    const auto count = wire::FieldReader::find(frame.payload, kFieldEventCount);
    const auto events = wire::FieldReader::find(frame.payload, kFieldEvents);
    if (!index || !count || !events || index->as_u64() >= threads ||
        seen[index->as_u64()]) {
      return false;  // missing field, index out of range, or a repeat
    }
    seen[index->as_u64()] = true;
    ThreadTrace& slot = loaded[index->as_u64()];
    if (!unpack_events(events->bytes, &slot)) return false;
    if (slot.size() != count->as_u64()) return false;
  }
  *traces = std::move(loaded);
  return true;
}

bool load_traces_file(const std::string& path,
                      std::vector<ThreadTrace>* traces) {
  std::ifstream in(path, std::ios::binary);
  return in.is_open() && load_traces(in, traces);
}

std::size_t total_events(const std::vector<ThreadTrace>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

}  // namespace pred
