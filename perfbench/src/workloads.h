// The benchmark's three workloads. perfbench/README.md records why each
// exists and which layers it loads or bypasses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;       ///< Where checkpoints and trace files go.
  std::string digests_path;  ///< Pinned prequential digests per toolchain.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// --trace 0: the end-to-end metrics; --trace 1: the per-layer metrics.
  std::vector<Metric> metrics;
  /// Workload-specific figures printed beside the result (not gated).
  std::vector<Metric> details;
  /// Sample count behind each reported percentile, by metric name.
  std::vector<std::pair<std::string, uint64_t>> samples;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  /// Records the sample count behind percentile `p` of metric `name`, and
  /// fails unless `p` is at most the highest percentile of `n` samples
  /// with ten samples beyond it.
  void Samples(const std::string& name, uint64_t n, double p);
};

RunResult RunPrequentialRbmIm(const RunConfig& config);
RunResult RunServeKeyed(const RunConfig& config);
RunResult RunIngestCheckpoint(const RunConfig& config);

/// "<compiler>-<version>/<build type>": the key the pinned prequential
/// digests are stored under (libm results differ across toolchains).
std::string ToolchainKey();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
