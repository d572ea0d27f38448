// Benchmark binary: runs one workload and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the run's metadata. Normally started through
// perfbench/run.py, which builds this binary first:
//
//   perfbench --workload <prequential-rbmim|serve-keyed|ingest-checkpoint>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>
//             --digests <file> [--git-commit <id>]
//   perfbench --self-test
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error or an unexpected exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

/// Seed held out from tuning the benchmark: confirm a later claim on it.
constexpr uint64_t kHeldOutSeed = 9001;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintResult(const RunConfig& config, const std::string& commit, const RunResult& r) {
  std::string samples = "{";
  for (size_t i = 0; i < r.samples.size(); ++i) {
    if (i > 0) samples += ", ";
    samples += JsonString(r.samples[i].first) + ": " + std::to_string(r.samples[i].second);
  }
  samples += "}";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(r.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, \"git_commit\": %s, "
      "\"held_out_seed\": %llu, \"samples\": %s, \"details\": %s, \"errors\": %s}}\n",
      JsonString(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(commit).c_str(), static_cast<unsigned long long>(kHeldOutSeed),
      samples.c_str(), MetricsObject(r.details).c_str(), errors.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), MetricsObject(r.metrics).c_str());
  std::fflush(stdout);
}

/// Checks of the benchmark's own logic on synthetic inputs.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  using perfbench::HighestPercentileWithTenBeyond;
  using perfbench::SamplesBeyond;
  // "The highest percentile with ten samples beyond it."
  expect(HighestPercentileWithTenBeyond(19) == 0.0, "19 samples: no percentile");
  expect(HighestPercentileWithTenBeyond(20) == 50.0, "20 samples: p50");
  expect(HighestPercentileWithTenBeyond(99) == 50.0, "99 samples: p50");
  expect(HighestPercentileWithTenBeyond(100) == 90.0, "100 samples: p90");
  expect(HighestPercentileWithTenBeyond(133) == 90.0, "133 samples: p90");
  expect(HighestPercentileWithTenBeyond(999) == 90.0, "999 samples: p90");
  expect(HighestPercentileWithTenBeyond(1000) == 99.0, "1000 samples: p99");
  expect(HighestPercentileWithTenBeyond(160000) == 99.99, "160000 samples: p99.99");
  expect(SamplesBeyond(133, 90.0) == 13, "133 samples: 13 beyond p90");
  {
    std::vector<int> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    expect(perfbench::Percentile(v, 90.0) == 90.0, "nearest-rank p90 of 1..100");
    expect(perfbench::Percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  }
  {
    // A burst of slow samples confined to one slice of one thread moves
    // that slice's p99 only, not the median over slices.
    std::vector<std::vector<int>> streams(2);
    for (int i = 0; i < 1000; ++i) {
      streams[0].push_back(i % 100);
      streams[1].push_back(i % 100);
    }
    for (int i = 0; i < 100; ++i) streams[0][static_cast<size_t>(i)] = 100000;
    size_t per_slice = 0;
    const double p99 = perfbench::SliceMedianPercentile(streams, 10, 99.0, &per_slice);
    expect(per_slice == 200, "slices join every thread's slice");
    expect(p99 == 98.0, "slice median ignores a one-slice burst");
  }
  {
    // Per-period windows: a 10 ms period, two producers at 1 ms, and a
    // stall at the start of each period of 3 + k ms (k = period index).
    // Window k's p99 is its own stall: 4..12 ms over periods 1..9, whose
    // median is 8 ms and 25th percentile 6 ms. Samples before the first
    // window or past the last one (100 ms stalls) are ignored.
    std::vector<std::vector<perfbench::OpenLoopSample>> streams(2);
    for (int64_t t = 0; t < 120; ++t) {
      const int64_t k = t / 10, in_period = t % 10;
      const int64_t stall = k == 0 || k >= 10 ? 100 : 3 + k;
      perfbench::OpenLoopSample s;
      s.due_ns = t * 1000000;
      s.sent_ns = s.due_ns;
      s.done_ns = s.due_ns + (in_period < stall ? (stall - in_period) * 1000000 : 1000);
      streams[static_cast<size_t>(t % 2)].push_back(s);
      streams[static_cast<size_t>(1 - t % 2)].push_back(s);
    }
    size_t per_window = 0;
    const double median =
        perfbench::WindowPercentile(streams, 10000000, 10000000, 9, 99.0, 50.0, &per_window);
    expect(per_window == 20, "windows join every stream's samples due in them");
    expect(median == 8000000.0, "median over windows of each window's stall");
    const double low =
        perfbench::WindowPercentile(streams, 10000000, 10000000, 9, 99.0, 25.0, &per_window);
    expect(low == 6000000.0, "25th percentile over windows of each window's stall");
  }
  {
    // Open-loop lateness: a 1 ms period, and request 2 stalls for 5.5 ms.
    // Requests 3..7 fall due during the stall, so the generator sends them
    // late and each one's latency counts from its own due time.
    perfbench::OpenLoopSchedule schedule;
    schedule.start_ns = perfbench::NowNs() + 1000000;
    schedule.period_ns = 1000000;
    std::vector<perfbench::OpenLoopSample> samples;
    const uint64_t n = perfbench::RunOpenLoop(
        schedule, schedule.DueAt(10),
        [](uint64_t i) {
          if (i == 2) std::this_thread::sleep_for(std::chrono::microseconds(5500));
        },
        &samples);
    expect(n == 10 && samples.size() == 10, "open loop sends every scheduled request");
    if (samples.size() == 10) {
      expect(samples[2].latency_ns() >= 5500000, "the stalled request's latency");
      for (uint64_t i = 3; i <= 7; ++i) {
        expect(samples[i].lateness_ns() >= static_cast<int64_t>((7 - i) * 1000000) + 400000,
               "requests due during the stall are sent late");
        expect(samples[i].latency_ns() >= samples[i].lateness_ns(),
               "latency counts from the due time");
      }
      expect(samples[9].lateness_ns() < 900000, "the generator catches up");
      expect(samples[0].due_ns == schedule.start_ns &&
                 samples[9].due_ns == schedule.DueAt(9),
             "due times follow the schedule");
    }
  }
  expect(perfbench::Fnv1a64Hex("") == "cbf29ce484222325", "FNV-1a of the empty string");
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir> --digests <file> [--git-commit <id>]\n"
               "       perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return SelfTest();
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
      have_out = true;
    } else if (flag == "--digests") {
      config.digests_path = value;
    } else if (flag == "--git-commit") {
      commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_out) Usage("--workload and --out are required");
  if (config.seconds < 1) Usage("--seconds must be at least 1");

  try {
    std::filesystem::create_directories(config.out_dir);
    perfbench::RegisterTracedComponents();
    RunResult result;
    if (config.workload == "prequential-rbmim") {
      result = perfbench::RunPrequentialRbmIm(config);
    } else if (config.workload == "serve-keyed") {
      result = perfbench::RunServeKeyed(config);
    } else if (config.workload == "ingest-checkpoint") {
      result = perfbench::RunIngestCheckpoint(config);
    } else {
      Usage("unknown workload " + config.workload);
    }
    for (const std::string& e : result.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    PrintResult(config, commit, result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
