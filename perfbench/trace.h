// Timing helpers for the end-to-end benchmark: percentiles over recorded
// samples, and an in-memory span recorder whose spans are written out
// once, after the measured phases, with per-span self time.
#ifndef XCQL_PERFBENCH_TRACE_H_
#define XCQL_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since a process-wide origin: every recorded instant uses
/// this one scale, so spans from different threads compare directly.
inline double NowUs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for an
/// empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One timed interval at a layer boundary. `req` is the request id (the
/// fragment's seq, or the restart cycle number); `parent` is the id of the
/// enclosing span, -1 for a root.
struct Span {
  const char* name;
  int64_t id;
  int64_t parent;
  int64_t req;
  double start_us;
  double end_us;
};

/// Collects spans in memory; nothing is written until WriteJsonl.
class Tracer {
 public:
  int64_t Add(const char* name, int64_t parent, int64_t req, double start_us,
              double end_us) {
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, id, parent, req, start_us, end_us});
    return id;
  }

  /// Self time of every span: its duration minus the part of it that its
  /// children cover (children are clipped to the parent and merged, so
  /// overlapping children are not subtracted twice). Keyed by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const {
    const std::vector<double> self = SelfTimesById();
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) {
      out[s.name].push_back(self[static_cast<size_t>(s.id)]);
    }
    return out;
  }

  /// One JSON object per line: name, id, parent, req, start_us, end_us,
  /// self_us. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self = SelfTimesById();
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"req\":%lld,"
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                   s.name, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.req), s.start_us, s.end_us,
                   self[static_cast<size_t>(s.id)]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<double> SelfTimesById() const {
    std::vector<double> self(spans_.size());
    for (const Span& s : spans_) {
      self[static_cast<size_t>(s.id)] = s.end_us - s.start_us;
    }
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      const double lo = std::max(s.start_us, p.start_us);
      const double hi = std::min(s.end_us, p.end_us);
      if (hi > lo) kids[static_cast<size_t>(s.parent)].push_back({lo, hi});
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, cur_lo = 0, cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[i] = std::max(0.0, self[i] - covered);
    }
    return self;
  }

  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // XCQL_PERFBENCH_TRACE_H_
