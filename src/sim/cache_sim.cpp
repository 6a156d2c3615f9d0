#include "sim/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pred {

CacheSim::CacheSim(const NumaConfig& config) : config_(config) {
  PRED_CHECK(config.sockets >= 1 && config.sockets <= kMaxSockets);
  PRED_CHECK(config.cores_per_socket >= 1 &&
             config.cores_per_socket <= kMaxCores / config.sockets);
  PRED_CHECK(std::has_single_bit(config.line_size));
  PRED_CHECK(config.llc_line_size >= config.line_size &&
             config.llc_line_size % config.line_size == 0 &&
             config.llc_line_size <= kMaxLlcLineSize);
  PRED_CHECK(std::isfinite(config.remote_factor) &&
             config.remote_factor >= 1.0 &&
             config.remote_factor <= kMaxRemoteFactor);

  auto scaled = [&](std::uint64_t cost) {
    return static_cast<std::uint64_t>(static_cast<double>(cost) *
                                      config.remote_factor);
  };
  remote_ = config;
  remote_.shared_fetch_cost = scaled(config.shared_fetch_cost);
  remote_.cold_miss_cost = scaled(config.cold_miss_cost);
  remote_.coherence_miss_cost = scaled(config.coherence_miss_cost);
  remote_.invalidation_cost = scaled(config.invalidation_cost);

  line_shift_ = std::countr_zero(config.line_size);
  inline_dir_ = config.llc_line_size == config.line_size;
  const std::uint32_t cores = config.total_cores();
  words_ = (cores + 63) / 64;
  socket_of_.resize(cores);
  socket_cores_.assign(std::size_t{config.sockets} * words_, 0);
  for (std::uint32_t c = 0; c < cores; ++c) {
    const std::uint32_t s = config.socket_of(c);
    socket_of_[c] = static_cast<std::uint8_t>(s);
    socket_cores_[s * words_ + c / 64] |= 1ull << (c % 64);
  }
  core_cycles_.assign(cores, 0);
}

CacheSim::LineState& CacheSim::line_state(std::size_t line, bool* fresh) {
  LineState& st = lines_.insert(line, fresh);
  if (*fresh && words_ > 1) {
    st.more = static_cast<std::uint32_t>(more_sharers_.size());
    more_sharers_.resize(more_sharers_.size() + words_ - 1, 0);
  }
  return st;
}

std::uint64_t CacheSim::cold_miss(std::size_t llc, std::uint32_t socket) {
  // Memory fetch from the home node, which lines interleave across sockets.
  const bool remote = llc % config_.sockets != socket;
  ++stats_.cold_misses;
  stats_.remote_cold_misses += remote;
  return remote ? remote_.cold_miss_cost : config_.cold_miss_cost;
}

std::uint64_t CacheSim::shared_fetch(bool remote) {
  ++stats_.shared_fetches;
  stats_.remote_shared_fetches += remote;
  return remote ? remote_.shared_fetch_cost : config_.shared_fetch_cost;
}

std::uint64_t CacheSim::coherence_miss(bool remote) {
  ++stats_.coherence_misses;
  stats_.remote_coherence_misses += remote;
  return remote ? remote_.coherence_miss_cost : config_.coherence_miss_cost;
}

void CacheSim::dir_update(DirState& dir, std::uint32_t socket_copies,
                          std::int32_t owner_socket) {
  if (dir.socket_copies != socket_copies ||
      dir.owner_socket != owner_socket) {
    ++stats_.directory_transitions;
  }
  dir.socket_copies = static_cast<std::uint16_t>(socket_copies);
  dir.owner_socket = static_cast<std::int16_t>(owner_socket);
}

std::uint64_t CacheSim::kill_llc_siblings(std::size_t written_line,
                                          std::size_t llc_index,
                                          std::uint32_t socket) {
  const std::size_t ratio = config_.llc_line_size / config_.line_size;
  const std::uint64_t* mine = &socket_cores_[socket * words_];
  std::uint64_t killed = 0;
  const std::size_t first = llc_index * ratio;
  for (std::size_t line = first; line < first + ratio; ++line) {
    if (line == written_line) continue;
    LineState* const found = lines_.find(line);
    if (found == nullptr) continue;
    LineState& sib = *found;
    // Remote sockets drop the whole LLC line, so their cores lose every
    // private line inside it; the writer's own socket keeps its copies.
    std::uint64_t n = 0;
    for_each_word(sib, [&](std::uint64_t& word, std::uint32_t w) {
      n += static_cast<std::uint64_t>(std::popcount(word & ~mine[w]));
      word &= mine[w];
    });
    if (sib.owner >= 0 && socket_of_[sib.owner] != socket) {
      sib.owner = -1;  // forced writeback + invalidate
      ++n;
    }
    sib.invalidations += n;
    sib.remote_invalidations += n;
    killed += n;
  }
  stats_.invalidations_sent += killed;
  stats_.remote_invalidations_sent += killed;
  stats_.llc_sibling_invalidations += killed;
  return killed * remote_.invalidation_cost;
}

std::uint64_t CacheSim::on_access(std::uint32_t core, Address addr,
                                  AccessType type) {
  PRED_CHECK(core < num_cores());
  const std::size_t line = addr >> line_shift_;
  const std::size_t llc = inline_dir_ ? line : addr / config_.llc_line_size;
  bool fresh;
  LineState& st = line_state(line, &fresh);
  DirState& dir = inline_dir_ ? st.dir : dirs_[llc];
  const std::uint32_t socket = socket_of_[core];
  const std::uint32_t my_socket_bit = 1u << socket;

  ++stats_.accesses;
  std::uint64_t cost = 0;

  if (type == AccessType::kRead) {
    if (st.owner == static_cast<std::int32_t>(core) || holds_clean(st, core)) {
      ++stats_.hits;
      cost = config_.hit_cost;
    } else if (st.owner >= 0) {
      // Dirty in another core's cache: ownership downgrade + transfer,
      // crossing the interconnect when the owner sits on another socket.
      const std::uint32_t owner_socket = socket_of_[st.owner];
      cost = coherence_miss(owner_socket != socket);
      add_sharer(st, static_cast<std::uint32_t>(st.owner));
      add_sharer(st, core);
      st.owner = -1;
      dir_update(dir,
                 dir.socket_copies | (1u << owner_socket) | my_socket_bit, -1);
    } else if (fresh) {
      cost = cold_miss(llc, socket);
      add_sharer(st, core);
      dir_update(dir, dir.socket_copies | my_socket_bit, dir.owner_socket);
    } else {
      // Clean copy somewhere: the local LLC if this socket holds the line,
      // otherwise a remote socket's LLC (or the home node).
      cost = shared_fetch((dir.socket_copies & my_socket_bit) == 0);
      add_sharer(st, core);
      dir_update(dir, dir.socket_copies | my_socket_bit, dir.owner_socket);
    }
  } else {  // write
    if (st.owner == static_cast<std::int32_t>(core)) {
      ++stats_.hits;
      cost = config_.hit_cost;
    } else {
      // The victim set: every other core's copy, and the share of it that
      // sits on other sockets.
      const bool remote_dirty = st.owner >= 0;
      const bool had_own_copy = holds_clean(st, core);
      const std::uint64_t* mine = &socket_cores_[socket * words_];
      std::uint64_t killed = 0;
      std::uint64_t remote_killed = 0;
      for_each_word(st, [&](std::uint64_t& word, std::uint32_t w) {
        killed += static_cast<std::uint64_t>(std::popcount(word));
        remote_killed +=
            static_cast<std::uint64_t>(std::popcount(word & ~mine[w]));
        word = 0;
      });
      killed -= had_own_copy;
      if (remote_dirty) {
        ++killed;
        remote_killed += socket_of_[st.owner] != socket;
      }
      stats_.invalidations_sent += killed;
      stats_.remote_invalidations_sent += remote_killed;
      st.invalidations += killed;
      st.remote_invalidations += remote_killed;

      if (remote_dirty) {
        cost = coherence_miss(socket_of_[st.owner] != socket);
      } else if (fresh) {
        cost = cold_miss(llc, socket);
      } else if (killed > 0) {
        // Upgrade: line present somewhere clean; pay invalidation traffic,
        // through the interconnect when any other socket held a copy.
        cost = shared_fetch((dir.socket_copies & ~my_socket_bit) != 0);
      } else if (had_own_copy) {
        ++stats_.hits;  // exclusive upgrade of our own clean copy
        cost = config_.hit_cost;
      } else {
        cost = cold_miss(llc, socket);
      }
      cost += (killed - remote_killed) * config_.invalidation_cost +
              remote_killed * remote_.invalidation_cost;

      // Remote sockets drop the LLC line the directory tracks; at coarse
      // LLC grain that also kills their copies of sibling private lines.
      stats_.directory_invalidations +=
          static_cast<std::uint64_t>(
              std::popcount(dir.socket_copies & ~my_socket_bit));
      if (!inline_dir_) cost += kill_llc_siblings(line, llc, socket);

      st.owner = static_cast<std::int32_t>(core);
      dir_update(dir, my_socket_bit, static_cast<std::int32_t>(socket));
    }
  }

  core_cycles_[core] += cost;
  stats_.total_cycles += cost;
  return cost;
}

std::uint64_t CacheSim::sum_lines(Address start, std::size_t size,
                                  std::uint64_t LineState::*field) const {
  if (size == 0) return 0;
  const std::size_t first = start >> line_shift_;
  const std::size_t last = (start + size - 1) >> line_shift_;
  std::uint64_t total = 0;
  for (std::size_t line = first; line <= last; ++line) {
    if (const LineState* st = lines_.find(line)) total += st->*field;
  }
  return total;
}

std::uint64_t CacheSim::line_invalidations(Address addr) const {
  return sum_lines(addr, 1, &LineState::invalidations);
}

std::uint64_t CacheSim::invalidations_in(Address start,
                                         std::size_t size) const {
  return sum_lines(start, size, &LineState::invalidations);
}

std::uint64_t CacheSim::line_remote_invalidations(Address addr) const {
  return sum_lines(addr, 1, &LineState::remote_invalidations);
}

std::uint64_t CacheSim::remote_invalidations_in(Address start,
                                                std::size_t size) const {
  return sum_lines(start, size, &LineState::remote_invalidations);
}

std::vector<CacheSim::HotLine> CacheSim::hottest_lines(
    std::size_t top_k) const {
  std::vector<HotLine> all;
  all.reserve(lines_.size());
  lines_.for_each([&](std::size_t line, const LineState& st) {
    if (st.invalidations == 0) return;
    all.push_back({static_cast<Address>(line << line_shift_),
                   st.invalidations, st.remote_invalidations});
  });
  std::sort(all.begin(), all.end(), [](const HotLine& a, const HotLine& b) {
    if (a.invalidations != b.invalidations) {
      return a.invalidations > b.invalidations;
    }
    return a.line_start < b.line_start;
  });
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

std::optional<CacheSim::LineProbe> CacheSim::probe_line(Address addr) const {
  const LineState* const found = lines_.find(addr >> line_shift_);
  if (found == nullptr) return std::nullopt;
  const LineState& st = *found;
  LineProbe probe;
  for (std::uint32_t c = 0; c < num_cores(); ++c) {
    if (holds_clean(st, c)) probe.sharer_cores.push_back(c);
  }
  probe.owner_core = st.owner;
  probe.touched = st.touched;
  probe.invalidations = st.invalidations;
  if (inline_dir_) {
    probe.socket_copies = st.dir.socket_copies;
    probe.owner_socket = st.dir.owner_socket;
  } else if (const auto dit = dirs_.find(addr / config_.llc_line_size);
             dit != dirs_.end()) {
    probe.socket_copies = dit->second.socket_copies;
    probe.owner_socket = dit->second.owner_socket;
  }
  return probe;
}

}  // namespace pred
