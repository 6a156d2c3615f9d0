// Trace persistence: serialize per-thread access traces to a compact binary
// file and load them back. This enables the record-once / analyze-many
// workflow: capture an execution a single time, then re-run detection under
// different thresholds, sampling rates, line sizes, or predictor settings
// without re-executing the program — the offline analogue of the paper's
// runtime pipeline (and the representation its prediction machinery really
// consumes).
//
// Format v2 (current): a stream of wire_format frames (shared with the
// snapshot/collector wire — magic "PRFR", version, type, length, CRC32 per
// frame; see trace/wire_format.hpp):
//
//   kTraceHeader frame   fields { 1: thread count, 2: total events }
//   kThreadTrace frame   fields { 1: thread index, 2: event count,
//                                 3: packed events } — one per thread
//
// Packed events are 16-byte records: { addr u64, think u32, type u8,
// size u8, pad u16 }, little-endian. Unknown payload fields are skipped, so
// newer writers can annotate traces without breaking this reader. The
// pre-frame v1 format ("PRTR" preamble) is no longer read.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/executor.hpp"

namespace pred {

/// Writes traces to a stream/file in the v2 frame format. Returns false on
/// I/O failure.
bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces);
bool save_traces_file(const std::string& path,
                      const std::vector<ThreadTrace>& traces);

/// Reads traces back from a seekable stream. Returns false on I/O failure,
/// bad magic, version skew, frame corruption, truncation, a thread count
/// the remaining bytes cannot hold, or a thread index that is missing or
/// repeated; `traces` is cleared first and left empty on failure.
bool load_traces(std::istream& in, std::vector<ThreadTrace>* traces);
bool load_traces_file(const std::string& path,
                      std::vector<ThreadTrace>* traces);

/// Total event count across threads (reporting convenience).
std::size_t total_events(const std::vector<ThreadTrace>& traces);

/// Packs/unpacks one thread's events as the 16-byte wire records (exposed
/// for the codec tests).
std::string pack_events(const ThreadTrace& trace);
bool unpack_events(std::string_view bytes, ThreadTrace* out);

}  // namespace pred
