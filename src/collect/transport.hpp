// Transports carrying snapshot frames from fleet clients to a collector.
//
// The wire frame (trace/wire_format.hpp) is self-delimiting and
// self-checking, so a transport is nothing more than an ordered byte
// stream; everything here is plumbing around that fact:
//
//   SnapshotSink        — where a client writes encoded frames.
//   LoopbackSink        — in-process: frames go straight into a Collector,
//                         synchronously. Deterministic, no fds — the
//                         transport the tests and benches use.
//   FdSink              — frames written to a file descriptor (pipe,
//                         socketpair, unix-domain socket).
//   FrameStreamParser   — incremental reassembly on the collector side:
//                         feed() arbitrary byte chunks, next() yields
//                         complete verified frames. A corrupt prefix
//                         poisons the stream (there is no resync point in
//                         a byte stream whose framing you can no longer
//                         trust), and so does a header claiming more than
//                         kMaxFrameLength bytes, before its payload is
//                         buffered.
//
// Plus the small POSIX helpers the CLI daemon/fleet demo need: socketpair
// creation, unix-socket listen/connect, and write-fully.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "trace/wire_format.hpp"

namespace pred {

class Collector;

/// Destination for encoded wire frames (a client-side abstraction:
/// Session::publish() produces the bytes, a sink moves them).
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  /// Delivers one complete frame. False on transport failure.
  virtual bool send(std::string_view frame_bytes) = 0;
};

/// In-process transport: send() ingests into the collector synchronously.
class LoopbackSink : public SnapshotSink {
 public:
  explicit LoopbackSink(Collector& collector) : collector_(&collector) {}
  bool send(std::string_view frame_bytes) override;

 private:
  Collector* collector_;
};

/// Writes frames to a file descriptor. Handles short writes and EINTR;
/// EPIPE (collector went away) surfaces as false.
class FdSink : public SnapshotSink {
 public:
  /// Takes ownership of `fd` when `owned` (closed on destruction).
  explicit FdSink(int fd, bool owned = true) : fd_(fd), owned_(owned) {}
  ~FdSink() override;
  FdSink(const FdSink&) = delete;
  FdSink& operator=(const FdSink&) = delete;

  bool send(std::string_view frame_bytes) override;
  int fd() const { return fd_; }

 private:
  int fd_;
  bool owned_;
};

/// Reassembles frames from an arbitrary chunking of the byte stream.
class FrameStreamParser {
 public:
  /// Largest payload a frame may claim. Snapshot, hello, goodbye and plan
  /// frames are far smaller; the cap bounds what one peer can make the
  /// collector buffer.
  static constexpr std::uint32_t kMaxFrameLength = 64u << 20;

  /// Appends raw transport bytes. Each frame header is checked as soon as
  /// its 16 bytes are in, before any of its payload is buffered: a bad
  /// magic, a version skew or a claim over kMaxFrameLength (kTooLarge)
  /// poisons the stream at once, and the rest of the chunk is discarded
  /// along with any frames still buffered ahead of the header.
  void feed(std::string_view bytes);

  /// Extracts the next complete frame. Returns false when more bytes are
  /// needed — or when the stream is poisoned; check error() to tell the
  /// two apart. Verified-bad input (wrong magic, CRC mismatch, version
  /// skew, oversized claim) permanently poisons the parser.
  bool next(wire::Frame* out);

  /// kOk / kTruncated mean "healthy, waiting for bytes"; anything else is
  /// a poisoned stream.
  wire::FrameError error() const { return error_; }
  bool poisoned() const {
    return error_ != wire::FrameError::kOk &&
           error_ != wire::FrameError::kTruncated;
  }

  /// Bytes buffered but not yet consumed (nonzero at EOF means the peer
  /// died mid-frame).
  std::size_t pending_bytes() const { return buf_.size() - consumed_; }

 private:
  std::string buf_;
  std::size_t consumed_ = 0;
  /// Offset in buf_ of the next frame header feed() has not checked yet;
  /// every byte before it belongs to a frame whose header passed.
  std::size_t next_header_ = 0;
  wire::FrameError error_ = wire::FrameError::kOk;
};

// ---------------------------------------------------------------------------
// POSIX plumbing for the CLI daemon / fleet demo
// ---------------------------------------------------------------------------

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool write_all_fd(int fd, std::string_view bytes);

/// AF_UNIX stream socketpair; returns false on failure. fds[0]/fds[1] are
/// symmetric ends (parent keeps one, a forked client the other).
bool make_socketpair(int fds[2]);

/// Binds and listens on an AF_UNIX stream socket at `path` (unlinking any
/// stale socket first). Returns the listening fd, or -1.
int listen_unix(const std::string& path, int backlog = 64);

/// Connects to the AF_UNIX socket at `path`. Returns the fd, or -1.
int connect_unix(const std::string& path);

}  // namespace pred
