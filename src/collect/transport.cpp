#include "collect/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "collect/collector.hpp"

namespace pred {

bool LoopbackSink::send(std::string_view frame_bytes) {
  return collector_->ingest_frame(frame_bytes);
}

FdSink::~FdSink() {
  if (owned_ && fd_ >= 0) ::close(fd_);
}

bool FdSink::send(std::string_view frame_bytes) {
  return write_all_fd(fd_, frame_bytes);
}

void FrameStreamParser::feed(std::string_view bytes) {
  if (poisoned()) return;  // discard; the stream is unrecoverable anyway
  // Compact once the consumed prefix dominates the buffer, so long-lived
  // streams don't grow without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    next_header_ -= consumed_;
    consumed_ = 0;
  }
  // Buffer up to the end of the next unchecked header, check it, then up
  // to the end of its payload, and so on.
  while (!bytes.empty()) {
    const std::size_t header_end = next_header_ + wire::kFrameHeaderSize;
    const std::size_t until =
        buf_.size() < next_header_ ? next_header_ : header_end;
    const std::size_t take = std::min(bytes.size(), until - buf_.size());
    buf_.append(bytes.data(), take);
    bytes.remove_prefix(take);
    if (buf_.size() != header_end) continue;
    wire::FrameHeader header;
    error_ = wire::parse_header(buf_.data() + next_header_, &header);
    if (error_ == wire::FrameError::kOk &&
        header.length > kMaxFrameLength) {
      error_ = wire::FrameError::kTooLarge;
    }
    if (poisoned()) return;
    next_header_ = header_end + header.length;
  }
}

bool FrameStreamParser::next(wire::Frame* out) {
  if (poisoned()) return false;
  std::size_t consumed = 0;
  const std::string_view rest =
      std::string_view(buf_).substr(consumed_);
  error_ = wire::parse_frame(rest, out, &consumed);
  if (error_ == wire::FrameError::kOk) {
    consumed_ += consumed;
    return true;
  }
  return false;  // kTruncated: wait for feed(); anything else: poisoned
}

bool write_all_fd(int fd, std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool make_socketpair(int fds[2]) {
  return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Reclaim only STALE sockets: a path left by a crashed daemon is removed
  // so bind() succeeds, but a live listener (something accepts our probe
  // connect) or a non-socket file at the path is left alone and the listen
  // fails — unconditionally unlinking would silently unseat a running
  // collector or delete a user's file.
  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) return -1;
    const int probe = connect_unix(path);
    if (probe >= 0) {
      ::close(probe);  // someone is serving here
      return -1;
    }
    ::unlink(path.c_str());
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace pred
