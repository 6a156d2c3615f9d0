#include "bench.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t Tracer::open(const char* name, std::uint32_t op) {
  auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  Span s;
  s.name = it->second;
  s.parent = current_;
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::map<std::string, double> Tracer::self_seconds(std::size_t from) const {
  std::vector<std::int64_t> self(spans_.size() - from);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    self[i - from] += spans_[i].end_ns - spans_[i].start_ns;
    const std::int32_t p = spans_[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= from) {
      self[static_cast<std::size_t>(p) - from] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < self.size(); ++i) {
    out[names_[spans_[i + from].name]] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"op\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, names_[s.name].c_str(), s.parent, s.op,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pmr::memory_resource* log_arena() {
  static std::pmr::monotonic_buffer_resource arena(std::size_t{1} << 20);
  return &arena;
}

void accumulate(LogMap& m, std::string_view key, double v) {
  auto it = m.find(key);
  if (it == m.end()) it = m.emplace(key, 0.0).first;
  it->second += v;
}

void OpLog::add(const OpRecord& rec) {
  for (const auto& [k, v] : rec.t) {
    auto it = t.find(std::string_view(k));
    if (it == t.end()) {
      it = t.emplace(k, std::pmr::vector<double>()).first;
      it->second.reserve(kMaxSamples);
    }
    if (it->second.size() < kMaxSamples) it->second.push_back(v);
  }
  if (runs == 0) {
    for (const auto& [k, v] : rec.det) det.emplace(k, v);
  } else if (failure.empty() &&
             !std::equal(det.begin(), det.end(), rec.det.begin(),
                         rec.det.end(), [](const auto& a, const auto& b) {
                           return std::string_view(a.first) == b.first &&
                                  a.second == b.second;
                         })) {
    failure = "deterministic counters differ between runs";
    integrity_failure = true;
  }
  if (!rec.failure.empty() && failure.empty()) {
    failure = rec.failure;
    integrity_failure = rec.integrity_failure;
  }
  ++runs;
}

double median_segment(const Samples& s, std::size_t i,
                      const std::string& key) {
  const auto it = s[i].t.find(std::string_view(key));
  if (it == s[i].t.end()) return 0.0;
  return median(std::vector<double>(it->second.begin(), it->second.end()));
}

SessionCounters read_counters(pred::Session& session,
                              const pred::Report& report) {
  SessionCounters c;
  session.runtime().for_each_region([&](const pred::ShadowSpace& region) {
    c.tracked_lines += region.tracker_count();
    region.for_each_tracker([&](std::size_t, pred::CacheTracker* t) {
      c.tracked_accesses += t->total_accesses();
      c.sampled_accesses += t->sampled_accesses();
      c.invalidations += t->invalidations();
      c.suppressed_accesses += t->suppressed_accesses();
    });
  });
  c.metadata_bytes = session.metadata_bytes();
  c.candidates = session.predictor().candidates_nominated();
  c.virtual_lines = session.runtime().virtual_lines().size();
  for (const pred::ObjectFinding& f : report.findings) {
    if (f.is_false_sharing()) ++c.findings;
  }
  return c;
}

void add_runtime_layer(OpRecord& rec, const SessionCounters& c,
                       std::uint64_t accesses) {
  rec.layer["runtime.accesses"] += static_cast<double>(accesses);
  rec.layer["runtime.tracked_lines"] += static_cast<double>(c.tracked_lines);
  rec.layer["runtime.tracked_accesses"] +=
      static_cast<double>(c.tracked_accesses);
  rec.layer["runtime.sampled_accesses"] +=
      static_cast<double>(c.sampled_accesses);
  rec.layer["runtime.invalidations"] += static_cast<double>(c.invalidations);
  rec.layer["runtime.suppressed_accesses"] +=
      static_cast<double>(c.suppressed_accesses);
  rec.layer["runtime.metadata_mb"] +=
      static_cast<double>(c.metadata_bytes) / (1024.0 * 1024.0);
  rec.layer["predict.candidates"] += static_cast<double>(c.candidates);
  rec.layer["predict.virtual_lines"] += static_cast<double>(c.virtual_lines);
}

}  // namespace perfbench
