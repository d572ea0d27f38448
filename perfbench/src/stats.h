// Sample statistics, open-loop scheduling and digests shared by the
// benchmark workloads. Everything here is pure logic so the self-test
// (perfbench --self-test) can check it on synthetic inputs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
inline size_t PercentileRank(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::min(std::max<size_t>(rank, 1), n);
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
inline size_t SamplesBeyond(size_t n, double p) {
  return n - PercentileRank(n, p);
}

/// The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that has
/// at least ten samples beyond it; 0 when even the median has fewer.
inline double HighestPercentileWithTenBeyond(size_t n) {
  static const double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
  double best = 0.0;
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

/// Nearest-rank percentile; reorders `v`. NaN on an empty vector.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return std::nan("");
  size_t k = PercentileRank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(v, 50.0);
}

/// The `p`-th percentile of each of `segments` consecutive slices of a
/// run, median over the slices: a burst of interference from outside the
/// program moves one slice, not the reported figure. `streams` holds each
/// thread's samples in time order; slice k joins slice k of every stream.
/// `*per_slice` receives the smallest slice's sample count.
template <typename T>
double SliceMedianPercentile(const std::vector<std::vector<T>>& streams, int segments,
                             double p, size_t* per_slice) {
  std::vector<double> values;
  *per_slice = SIZE_MAX;
  for (int k = 0; k < segments; ++k) {
    std::vector<T> slice;
    for (const std::vector<T>& s : streams) {
      const size_t begin = s.size() * static_cast<size_t>(k) / static_cast<size_t>(segments);
      const size_t end = s.size() * static_cast<size_t>(k + 1) / static_cast<size_t>(segments);
      slice.insert(slice.end(), s.begin() + static_cast<std::ptrdiff_t>(begin),
                   s.begin() + static_cast<std::ptrdiff_t>(end));
    }
    *per_slice = std::min(*per_slice, slice.size());
    values.push_back(Percentile(slice, p));
  }
  return Median(values);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const T& x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

/// One request of an open-loop generator: when it was due, when the
/// generator actually sent it, and when the call returned.
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// Latency counts from the due time, so a stall also charges the wait
  /// it imposes on every request queued behind it.
  int64_t latency_ns() const { return done_ns - due_ns; }
  /// How late the generator itself sent the request.
  int64_t lateness_ns() const { return std::max<int64_t>(sent_ns - due_ns, 0); }
};

/// The `p`-th percentile of latency_ns() over the samples due in each of
/// `windows` consecutive windows [first + k * width, first + (k + 1) * width),
/// then the `q`-th percentile of those per-window figures; samples due
/// outside every window are ignored. With one window per period of a
/// periodic stall, each window's tail is that stall, and interference from
/// outside the program can only lengthen it, so a low `q` over many windows
/// is the stall of a period the host left alone. `*per_window` receives the
/// smallest window's sample count.
inline double WindowPercentile(const std::vector<std::vector<OpenLoopSample>>& streams,
                               int64_t first_ns, int64_t width_ns, int windows, double p,
                               double q, size_t* per_window) {
  std::vector<std::vector<int64_t>> by_window(static_cast<size_t>(std::max(windows, 0)));
  for (const std::vector<OpenLoopSample>& s : streams) {
    for (const OpenLoopSample& x : s) {
      if (x.due_ns < first_ns) continue;
      const int64_t k = (x.due_ns - first_ns) / width_ns;
      if (k < windows) by_window[static_cast<size_t>(k)].push_back(x.latency_ns());
    }
  }
  std::vector<double> values;
  *per_window = by_window.empty() ? 0 : SIZE_MAX;
  for (std::vector<int64_t>& w : by_window) {
    *per_window = std::min(*per_window, w.size());
    values.push_back(Percentile(w, p));
  }
  return Percentile(values, q);
}

/// Fixed-rate schedule: request i is due at start + i * period + offset.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t period_ns = 1;
  int64_t offset_ns = 0;
  int64_t DueAt(uint64_t i) const {
    return start_ns + offset_ns + static_cast<int64_t>(i) * period_ns;
  }
};

/// Waits until `due_ns`: sleeps while far away, then spins, so the send
/// is punctual without burning a core between widely spaced requests.
inline void WaitUntil(int64_t due_ns) {
  for (;;) {
    int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    }
  }
}

/// Sends requests on `schedule` until the next one would be due at or
/// after `end_ns`, calling `op(i)` for each and recording its sample.
/// A late generator does not skip requests: it sends the backlog
/// immediately, each timed from its own due time.
template <typename Op>
uint64_t RunOpenLoop(const OpenLoopSchedule& schedule, int64_t end_ns, Op&& op,
                     std::vector<OpenLoopSample>* samples) {
  uint64_t i = 0;
  for (;; ++i) {
    OpenLoopSample s;
    s.due_ns = schedule.DueAt(i);
    if (s.due_ns >= end_ns) break;
    WaitUntil(s.due_ns);
    s.sent_ns = NowNs();
    op(i);
    s.done_ns = NowNs();
    samples->push_back(s);
  }
  return i;
}

/// 64-bit FNV-1a, printed as 16 hex digits.
inline std::string Fnv1a64Hex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
