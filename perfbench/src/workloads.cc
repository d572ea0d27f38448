#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/component_registry.h"
#include "api/sharded_monitor.h"
#include "core/rbm.h"
#include "core/rbm_im.h"
#include "eval/engine.h"
#include "eval/metrics.h"
#include "generators/registry.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "stats.h"
#include "stream/normalizer.h"
#include "trace.h"
#include "utils/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ccd::Instance;
using ccd::StreamSchema;
using ccd::api::ShardedMonitor;
using ccd::api::ShardedMonitorBuilder;

// ------------------------------------------------------------- constants

/// Set-up is repeated and its median reported, so set-up cost is measured
/// as steadily as the workload itself.
constexpr int kSetupRepeats = 5;
/// Spans kept verbatim per thread for the trace file.
constexpr size_t kKeptSpans = 20000;

/// prequential-rbmim: instances per second of --seconds. The stream is
/// built this long, so a run takes about --seconds at the speed measured
/// when the benchmark was defined, and its drifts fall inside the run.
constexpr double kPrequentialRate = 15000.0;
/// The pinned-digest reference run: a fixed seed and length, so its digest
/// is one number per toolchain whatever --seed the run measures.
constexpr uint64_t kReferenceSeed = 1;
constexpr uint64_t kReferenceLength = 20000;

/// serve-keyed: closed-loop producers (one per core of the 4-core machine
/// the benchmark was defined on), each labelling its own predictions
/// kLabelLag predictions later.
constexpr int kServeProducers = 4;
constexpr int kServeShards = 4;
constexpr size_t kLabelLag = 32;
constexpr size_t kServePool = 16384;
constexpr uint64_t kServeWarmCycles = 2000;
/// Call times are kept for every kServeSampleEvery-th cycle of a producer,
/// so the benchmark's own buffers stay small beside the program's memory
/// in peak_rss_mb instead of growing with throughput.
constexpr uint64_t kServeSampleEvery = 8;

/// Keys: Zipf(kZipfExponent) over kEntities entities.
constexpr int kEntities = 4096;
constexpr double kZipfExponent = 1.1;

/// ingest-checkpoint: open-loop producers at a fixed total rate, below the
/// rate at which the ingress backlog grows, and a checkpoint thread calling
/// Persist every kCheckpointPeriodMs.
constexpr int kIngestProducers = 3;
constexpr int kIngestShards = 4;
constexpr double kIngestRate = 10000.0;
constexpr int kCheckpointPeriodMs = 150;
constexpr size_t kIngestPool = 16384;
constexpr uint64_t kIngestWarm = 4000;
constexpr int kOpenRepeats = 5;
/// Percentile over checkpoint periods of each period's push latency
/// percentile (see AddCheckpointPeriodLatency): at 20 s, 13 of the 132
/// periods lie below it.
constexpr double kQuietPeriodPercentile = 10.0;

/// Latency percentiles are taken per slice of the run and the median over
/// slices reported (see SliceMedianPercentile).
constexpr int kSlices = 10;

volatile double g_sink = 0.0;

// -------------------------------------------------------------- helpers

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t per_slice = 0;
};

/// Slice-median p50 and p99 of per-thread, time-ordered samples in ns.
template <typename T>
Latency SliceLatency(const std::vector<std::vector<T>>& streams_ns) {
  Latency out;
  out.p50_us = SliceMedianPercentile(streams_ns, kSlices, 50.0, &out.per_slice) / 1e3;
  out.p99_us = SliceMedianPercentile(streams_ns, kSlices, 99.0, &out.per_slice) / 1e3;
  return out;
}

/// feed_p99_us, with its per-slice sample count, and the feed_p50_us
/// detail: on serve-keyed the median feed mixes contended and free calls in
/// proportions that vary from run to run by more than any bound could absorb.
template <typename T>
void AddFeedLatency(const std::vector<std::vector<T>>& streams_ns, RunResult* r) {
  const Latency l = SliceLatency(streams_ns);
  r->Add("feed_p99_us", l.p99_us, "us");
  r->Samples("feed_p99_us", l.per_slice, 99.0);
  r->Detail("feed_p50_us", l.p50_us, "us");
}

/// Runs `build` kSetupRepeats times and returns the median wall time.
template <typename Build>
double MedianSetupSeconds(Build&& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    build();
    times.push_back(Seconds(NowNs() - t0));
  }
  return Median(times);
}

/// The first `length` instances of Table I stream `name`, built so that the
/// stream's own length (and so its drift positions) is `length`.
std::vector<Instance> Materialize(const std::string& name, uint64_t seed,
                                  uint64_t length, StreamSchema* schema) {
  const ccd::StreamSpec* spec = ccd::FindStreamSpec(name);
  if (spec == nullptr) throw std::logic_error("unknown stream " + name);
  ccd::BuildOptions options;
  options.seed = seed;
  // Half an instance of slack keeps the rounding in BuildStream from
  // shortening the stream by one.
  options.scale = (static_cast<double>(length) + 0.5) / static_cast<double>(spec->full_length);
  ccd::BuiltStream built = ccd::BuildStream(*spec, options);
  *schema = built.stream->schema();
  std::vector<Instance> out;
  out.reserve(built.length);
  for (uint64_t i = 0; i < built.length; ++i) out.push_back(built.stream->Next());
  return out;
}

std::vector<uint64_t> ZipfKeys(uint64_t seed, size_t n) {
  std::vector<double> cdf(kEntities);
  double total = 0.0;
  for (int k = 0; k < kEntities; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[static_cast<size_t>(k)] = total;
  }
  ccd::Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) {
    const double u = rng.NextDouble() * total;
    key = static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return keys;
}

/// Per-producer input pools: a slice of one materialized stream plus keys.
struct ProducerInputs {
  std::vector<Instance> pool;
  std::vector<uint64_t> keys;
};

std::vector<ProducerInputs> MakeProducerInputs(const std::string& stream, uint64_t seed,
                                               int producers, size_t pool,
                                               StreamSchema* schema) {
  std::vector<Instance> all =
      Materialize(stream, seed, static_cast<uint64_t>(producers) * pool, schema);
  std::vector<ProducerInputs> out(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    ProducerInputs& in = out[static_cast<size_t>(p)];
    auto first = all.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(p) * pool);
    in.pool.assign(std::make_move_iterator(first),
                   std::make_move_iterator(first + static_cast<std::ptrdiff_t>(pool)));
    in.keys = ZipfKeys(seed * 1000003u + static_cast<uint64_t>(p), pool);
  }
  return out;
}

/// Holds a ShardedMonitor (neither copyable nor movable) on the heap.
struct MonitorHolder {
  ShardedMonitor monitor;
  explicit MonitorHolder(const ShardedMonitorBuilder& builder) : monitor(builder.Build()) {}
  explicit MonitorHolder(const std::string& dir) : monitor(ShardedMonitor::Open(dir)) {}
};

std::string Traced(const std::string& name, bool traced) {
  return traced ? "traced-" + name : name;
}

double ShardSkew(const ShardedMonitor& monitor) {
  std::vector<double> counts;
  for (int s = 0; s < monitor.shards(); ++s) {
    counts.push_back(static_cast<double>(monitor.ShardResult(s).instances));
  }
  const double mean = Mean(counts);
  return mean == 0.0 ? 0.0 : *std::max_element(counts.begin(), counts.end()) / mean;
}

// ------------------------------------------------------ per-layer figures

/// Every per-layer metric; a layer a workload does not exercise stays 0.
struct LayerFigures {
  double classifiers_predict_ns = 0, classifiers_train_ns = 0, classifiers_calls = 0;
  double detectors_observe_ns = 0, detectors_boundary_us = 0, detectors_calls = 0;
  double core_rbm_train_batch_us = 0, core_rbm_recon_error_ns = 0;
  double eval_engine_self_ns = 0, eval_metrics_add_ns = 0, eval_pmauc_tick_us = 0;
  double api_predict_self_ns = 0, api_label_self_ns = 0;
  double runtime_contention_wait_ns = 0, runtime_shard_skew = 0;
  double runtime_ingress_accepted = 0, runtime_ingress_rejected = 0;
  double runtime_checkpoint_drained = 0, runtime_checkpoint_wait_ms = 0;
  double runtime_closed_loop_checkpoint_wait_ms = 0;
  double io_encode_us = 0, io_decode_us = 0, io_store_write_ms = 0, io_image_bytes = 0;
  double bench_gen_late_p99_us = 0, bench_trace_overhead = 0, bench_span_coverage = 0;

  void Emit(RunResult* r) const {
    r->Add("classifiers.predict_ns", classifiers_predict_ns, "ns");
    r->Add("classifiers.train_ns", classifiers_train_ns, "ns");
    r->Add("classifiers.calls", classifiers_calls, "count");
    r->Add("detectors.observe_ns", detectors_observe_ns, "ns");
    r->Add("detectors.boundary_us", detectors_boundary_us, "us");
    r->Add("detectors.calls", detectors_calls, "count");
    r->Add("core.rbm_train_batch_us", core_rbm_train_batch_us, "us");
    r->Add("core.rbm_recon_error_ns", core_rbm_recon_error_ns, "ns");
    r->Add("eval.engine_self_ns", eval_engine_self_ns, "ns");
    r->Add("eval.metrics_add_ns", eval_metrics_add_ns, "ns");
    r->Add("eval.pmauc_tick_us", eval_pmauc_tick_us, "us");
    r->Add("api.predict_self_ns", api_predict_self_ns, "ns");
    r->Add("api.label_self_ns", api_label_self_ns, "ns");
    r->Add("runtime.contention_wait_ns", runtime_contention_wait_ns, "ns");
    r->Add("runtime.shard_skew", runtime_shard_skew, "ratio");
    r->Add("runtime.ingress_accepted", runtime_ingress_accepted, "count");
    r->Add("runtime.ingress_rejected", runtime_ingress_rejected, "count");
    r->Add("runtime.checkpoint_drained", runtime_checkpoint_drained, "count");
    r->Add("runtime.checkpoint_wait_ms", runtime_checkpoint_wait_ms, "ms");
    r->Add("runtime.closed_loop_checkpoint_wait_ms", runtime_closed_loop_checkpoint_wait_ms,
           "ms");
    r->Add("io.encode_us", io_encode_us, "us");
    r->Add("io.decode_us", io_decode_us, "us");
    r->Add("io.store_write_ms", io_store_write_ms, "ms");
    r->Add("io.image_bytes", io_image_bytes, "bytes");
    r->Add("bench.gen_late_p99_us", bench_gen_late_p99_us, "us");
    r->Add("bench.trace_overhead", bench_trace_overhead, "ratio");
    r->Add("bench.span_coverage", bench_span_coverage, "ratio");
  }
};

void FillComponentLayers(const TraceSummary& s, LayerFigures* f) {
  f->classifiers_predict_ns = s[Span::kClassifierPredict].MeanNs();
  f->classifiers_train_ns = s[Span::kClassifierTrain].MeanNs();
  f->classifiers_calls = static_cast<double>(s[Span::kClassifierPredict].calls +
                                             s[Span::kClassifierTrain].calls +
                                             s[Span::kClassifierReset].calls);
  f->detectors_observe_ns = s[Span::kDetectorObserve].MeanNs();
  f->detectors_boundary_us = s[Span::kDetectorBoundary].MeanNs() / 1e3;
  f->detectors_calls = static_cast<double>(s[Span::kDetectorObserve].calls +
                                           s[Span::kDetectorBoundary].calls);
  f->bench_span_coverage = s.Coverage();
}

/// Replays recorded (truth, predicted, scores) through a standalone
/// WindowedMetrics with the paper's window, ticking every eval interval.
void ReplayEval(const EvalTape& tape, LayerFigures* f) {
  if (tape.size() == 0) return;
  const size_t k = static_cast<size_t>(tape.num_classes);
  const size_t block = 250;  // The paper's eval interval.
  ccd::WindowedMetrics metrics(tape.num_classes, 1000);
  std::vector<std::vector<double>> scores(block, std::vector<double>(k));
  int64_t add_ns = 0, tick_ns = 0;
  uint64_t ticks = 0;
  for (size_t i = 0; i < tape.size(); i += block) {
    const size_t n = std::min(block, tape.size() - i);
    for (size_t j = 0; j < n; ++j) {
      std::copy_n(tape.scores.begin() + static_cast<std::ptrdiff_t>((i + j) * k), k,
                  scores[j].begin());
    }
    const int64_t t0 = NowNs();
    for (size_t j = 0; j < n; ++j) {
      metrics.Add(tape.truth[i + j], tape.predicted[i + j], scores[j]);
    }
    const int64_t t1 = NowNs();
    add_ns += t1 - t0;
    if (metrics.size() >= 50) {
      const double v =
          metrics.PmAuc() + metrics.PmGMean() + metrics.Accuracy() + metrics.Kappa();
      tick_ns += NowNs() - t1;
      ++ticks;
      g_sink = g_sink + v;
    }
  }
  f->eval_metrics_add_ns = static_cast<double>(add_ns) / static_cast<double>(tape.size());
  if (ticks > 0) f->eval_pmauc_tick_us = static_cast<double>(tick_ns) / 1e3 / static_cast<double>(ticks);
}

/// Replays `data`, in arrival order and cut into RBM-IM mini-batches,
/// through a standalone Rbm built with RBM-IM's default parameters: per
/// batch the reconstruction errors (monitor step) then one TrainBatch.
void ReplayRbm(const std::vector<Instance>& data, const StreamSchema& schema, uint64_t seed,
               LayerFigures* f) {
  const ccd::RbmIm::Params im;
  ccd::Rbm::Params p;
  p.visible = schema.num_features;
  p.hidden = std::max(4, static_cast<int>(im.hidden_ratio * schema.num_features));
  p.classes = schema.num_classes;
  p.learning_rate = im.learning_rate;
  p.cd_steps = im.cd_steps;
  p.class_balanced = im.class_balanced;
  p.beta = im.beta;
  ccd::Rbm rbm(p, seed);
  ccd::MinMaxNormalizer normalizer(schema.num_features);
  const size_t m = static_cast<size_t>(im.batch_size);
  std::vector<Instance> batch(m);
  int64_t train_ns = 0, recon_ns = 0;
  uint64_t batches = 0, recons = 0;
  for (size_t i = 0; i + m <= data.size(); i += m) {
    for (size_t j = 0; j < m; ++j) {
      batch[j].features = normalizer.ObserveTransform(data[i + j].features);
      batch[j].label = data[i + j].label;
    }
    const int64_t t0 = NowNs();
    double r = 0.0;
    for (const Instance& x : batch) r += rbm.ReconstructionError(x.features, x.label);
    const int64_t t1 = NowNs();
    rbm.TrainBatch(batch);
    const int64_t t2 = NowNs();
    g_sink = g_sink + r;
    recon_ns += t1 - t0;
    train_ns += t2 - t1;
    recons += m;
    ++batches;
  }
  if (batches == 0) return;
  f->core_rbm_train_batch_us = static_cast<double>(train_ns) / 1e3 / static_cast<double>(batches);
  f->core_rbm_recon_error_ns = static_cast<double>(recon_ns) / static_cast<double>(recons);
}

void WriteTraceFile(const RunConfig& config) {
  WriteTrace(config.out_dir + "/trace-" + config.workload + "-seed" +
             std::to_string(config.seed) + ".jsonl");
}

// --------------------------------------------------- prequential-rbmim

ccd::PrequentialConfig PaperProtocol() {
  ccd::PrequentialConfig c;
  c.metric_window = 1000;
  c.eval_interval = 250;
  c.warmup = 500;
  c.timing = false;
  return c;
}

/// One cs-ptree + RBM-IM engine driven through MonitorEngine::Feed.
struct PrequentialSystem {
  std::unique_ptr<ccd::OnlineClassifier> classifier;
  std::unique_ptr<ccd::DriftDetector> detector;
  std::unique_ptr<ccd::MonitorEngine> engine;

  PrequentialSystem(const StreamSchema& schema, uint64_t seed, bool traced) {
    classifier = ccd::api::Classifiers().Create(Traced("cs-ptree", traced), schema, seed);
    detector = ccd::api::Detectors().Create(Traced("RBM-IM", traced), schema, seed);
    engine = std::make_unique<ccd::MonitorEngine>(schema, classifier.get(), detector.get(),
                                                  PaperProtocol());
  }

  /// Feeds every instance; returns the wall time and fills per-call times.
  int64_t Drive(const std::vector<Instance>& data, std::vector<int64_t>* feed_ns) {
    feed_ns->assign(data.size(), 0);
    ThreadTrace* trace = CurrentTrace();
    if (trace != nullptr) trace->MarkLoopStart();
    const int64_t start = NowNs();
    for (size_t i = 0; i < data.size(); ++i) {
      if (trace != nullptr) trace->set_request(i);
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(Span::kEngineFeed);
        engine->Feed(data[i]);
      }
      (*feed_ns)[i] = NowNs() - t0;
    }
    const int64_t wall = NowNs() - start;
    if (trace != nullptr) trace->MarkLoopEnd();
    return wall;
  }
};

std::string PrequentialDigestText(const ccd::PrequentialResult& r) {
  std::ostringstream text;
  char buf[64];
  text << "instances=" << r.instances << "\ndrifts=" << r.drift_events.size()
       << "\npositions=";
  for (const ccd::DriftAlarm& a : r.drift_events) text << a.position << ",";
  std::snprintf(buf, sizeof(buf), "%.17g", r.mean_pmauc);
  text << "\nmean_pmauc=" << buf;
  std::snprintf(buf, sizeof(buf), "%.17g", r.mean_pmgm);
  text << "\nmean_pmgm=" << buf << "\n";
  return text.str();
}

/// The digest pinned for `key` in `path` (lines of the form
/// `"key": "digest"`), or "" when the file or the key is missing.
std::string PinnedDigest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  const std::string needle = "\"" + key + "\"";
  while (std::getline(in, line)) {
    const size_t at = line.find(needle);
    if (at == std::string::npos) continue;
    const size_t open = line.find('"', line.find(':', at + needle.size()));
    const size_t close = line.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos) return "";
    return line.substr(open + 1, close - open - 1);
  }
  return "";
}

void CheckReferenceDigest(const RunConfig& config, RunResult* result) {
  StreamSchema schema;
  std::vector<Instance> data = Materialize("RBF20", kReferenceSeed, kReferenceLength, &schema);
  PrequentialSystem system(schema, kReferenceSeed, /*traced=*/false);
  for (const Instance& x : data) system.engine->Feed(x);
  const std::string text = PrequentialDigestText(system.engine->Result());
  const std::string digest = Fnv1a64Hex(text);
  const std::string pinned = PinnedDigest(config.digests_path, ToolchainKey());
  std::fprintf(stderr, "reference digest %s for toolchain %s:\n%s", digest.c_str(),
               ToolchainKey().c_str(), text.c_str());
  if (pinned.empty()) {
    result->Fail("no prequential digest pinned for toolchain " + ToolchainKey() + " in " +
                 config.digests_path + " (computed " + digest + ")");
  } else if (pinned != digest) {
    result->Fail("prequential digest " + digest + " differs from the pinned " + pinned +
                 ": drift positions or mean pmAUC/pmGM changed");
  }
}

}  // namespace

void RunResult::Samples(const std::string& name, uint64_t n, double p) {
  samples.emplace_back(name, n);
  if (HighestPercentileWithTenBeyond(n) < p) {
    Fail(name + ": " + std::to_string(n) + " samples leave fewer than ten beyond p" +
         std::to_string(static_cast<int>(p)));
  }
}

std::string ToolchainKey() {
  return std::string(PERFBENCH_COMPILER) + "/" + PERFBENCH_BUILD_TYPE;
}

RunResult RunPrequentialRbmIm(const RunConfig& config) {
  RunResult result;
  const uint64_t length = static_cast<uint64_t>(kPrequentialRate * config.seconds);
  StreamSchema schema;
  std::vector<Instance> data;
  std::unique_ptr<PrequentialSystem> system;
  const double setup_s = MedianSetupSeconds([&] {
    system.reset();
    data.clear();
    data.shrink_to_fit();
    data = Materialize("RBF20", config.seed, length, &schema);
    system = std::make_unique<PrequentialSystem>(schema, config.seed, false);
  });

  std::vector<int64_t> feed_ns;
  const int64_t wall_ns = system->Drive(data, &feed_ns);
  const ccd::PrequentialResult r = system->engine->Result();
  const double throughput = static_cast<double>(data.size()) / Seconds(wall_ns);
  result.attempted = data.size();
  if (r.instances != data.size()) {
    result.failed = data.size() - std::min<uint64_t>(r.instances, data.size());
    result.Fail("engine completed " + std::to_string(r.instances) + " of " +
                std::to_string(data.size()) + " instances");
  }
  if (!(r.mean_pmauc > 0.0 && r.mean_pmauc <= 1.0)) {
    result.Fail("mean pmAUC out of (0, 1]: " + std::to_string(r.mean_pmauc));
  }
  CheckReferenceDigest(config, &result);

  if (!config.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("throughput_ips", throughput, "1/s");
    AddFeedLatency(std::vector<std::vector<int64_t>>{feed_ns}, &result);
    result.Add("mean_pmauc", r.mean_pmauc, "score");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Detail("mean_pmgm", r.mean_pmgm, "score");
    result.Detail("drifts", static_cast<double>(r.drift_events.size()), "count");
    result.Detail("instances", static_cast<double>(data.size()), "count");
    return result;
  }

  // Traced run: the same inputs through traced components.
  LayerFigures f;
  PrequentialSystem traced(schema, config.seed, /*traced=*/true);
  StartTrace(kKeptSpans);
  std::vector<int64_t> traced_ns;
  const int64_t traced_wall = traced.Drive(data, &traced_ns);
  const TraceSummary s = StopTrace("prequential-rbmim");
  if (PrequentialDigestText(traced.engine->Result()) != PrequentialDigestText(r)) {
    result.Fail("traced components changed the prequential result");
  }
  FillComponentLayers(s, &f);
  f.eval_engine_self_ns = s[Span::kEngineFeed].MeanSelfNs();
  f.runtime_shard_skew = 1.0;  // One engine.
  f.bench_trace_overhead = static_cast<double>(traced_wall) / static_cast<double>(wall_ns);
  ReplayEval(LongestEvalTape(), &f);
  ReplayRbm(data, schema, config.seed, &f);
  f.Emit(&result);
  WriteTraceFile(config);
  return result;
}

// ------------------------------------------------------------ serve-keyed

namespace {

struct ServeThreadOut {
  std::vector<uint32_t> predict_ns;
  std::vector<uint32_t> label_ns;
  uint64_t cycles = 0;
  uint64_t failed = 0;
  int64_t end_ns = 0;
};

uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(std::min<int64_t>(ns, 0xffffffffLL));
}

/// One closed-loop producer: Predict(key, x), then Label the prediction
/// made kLabelLag predictions earlier. Stops after `max_cycles` or once a
/// Predict returns at or after `deadline_ns`, then labels what is left.
void ServeProducer(ShardedMonitor& monitor, const ProducerInputs& in, uint64_t first,
                   uint64_t max_cycles, int64_t deadline_ns, ServeThreadOut* out) {
  struct Pending {
    int shard;
    uint64_t id;
    int label;
    bool sampled;
  };
  std::vector<Pending> ring(kLabelLag);
  size_t head = 0, count = 0;
  ThreadTrace* trace = CurrentTrace();
  if (trace != nullptr) trace->MarkLoopStart();
  auto label_oldest = [&] {
    const Pending& p = ring[head];
    head = (head + 1) % kLabelLag;
    --count;
    const int64_t t0 = NowNs();
    bool ok;
    {
      ScopedSpan span(Span::kApiLabel);
      ok = monitor.Label(p.shard, p.id, p.label);
    }
    if (p.sampled) out->label_ns.push_back(ClampNs(NowNs() - t0));
    if (!ok) ++out->failed;
  };
  for (uint64_t c = 0; c < max_cycles; ++c) {
    const size_t k = static_cast<size_t>((first + c) % in.pool.size());
    const Instance& x = in.pool[k];
    if (trace != nullptr) trace->set_request(first + c);
    const int64_t t0 = NowNs();
    ShardedMonitor::Prediction p;
    {
      ScopedSpan span(Span::kApiPredict);
      p = monitor.Predict(in.keys[k], x.features);
    }
    const int64_t t1 = NowNs();
    const bool sampled = (first + c) % kServeSampleEvery == 0;
    if (sampled) out->predict_ns.push_back(ClampNs(t1 - t0));
    ++out->cycles;
    ring[(head + count) % kLabelLag] = Pending{p.shard, p.id, x.label, sampled};
    if (++count == kLabelLag) label_oldest();
    if (t1 >= deadline_ns) break;
  }
  while (count > 0) label_oldest();
  out->end_ns = NowNs();
  if (trace != nullptr) trace->MarkLoopEnd();
}

struct ServePhase {
  std::vector<ServeThreadOut> threads;
  int64_t wall_ns = 0;
  uint64_t cycles = 0;
  uint64_t failed = 0;
};

ServePhase RunServePhase(ShardedMonitor& monitor, const std::vector<ProducerInputs>& inputs,
                         int producers, double seconds, uint64_t first) {
  ServePhase phase;
  phase.threads.resize(static_cast<size_t>(producers));
  const size_t expect =
      static_cast<size_t>(seconds * 600000.0 / producers / kServeSampleEvery) + 1024;
  for (ServeThreadOut& t : phase.threads) {
    t.predict_ns.reserve(expect);
    t.label_ns.reserve(expect);
  }
  std::atomic<bool> go{false};
  int64_t start = 0, deadline = 0;
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {
      }
      ServeProducer(monitor, inputs[static_cast<size_t>(p)], first, UINT64_MAX, deadline,
                    &phase.threads[static_cast<size_t>(p)]);
    });
  }
  start = NowNs();
  deadline = start + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  int64_t end = start;
  for (const ServeThreadOut& t : phase.threads) {
    end = std::max(end, t.end_ns);
    phase.cycles += t.cycles;
    phase.failed += t.failed;
  }
  phase.wall_ns = end - start;
  return phase;
}

/// Mean api self time (predict + label) per cycle of a traced phase.
double ApiSelfPerCycle(const TraceSummary& s) {
  return s[Span::kApiPredict].MeanSelfNs() + s[Span::kApiLabel].MeanSelfNs();
}

}  // namespace

RunResult RunServeKeyed(const RunConfig& config) {
  RunResult result;
  StreamSchema schema;
  std::vector<ProducerInputs> inputs;
  std::unique_ptr<MonitorHolder> holder;
  uint64_t warm_cycles = 0;
  const double setup_s = MedianSetupSeconds([&] {
    holder.reset();
    inputs.clear();
    inputs = MakeProducerInputs("RBF5", config.seed, kServeProducers, kServePool, &schema);
    holder = std::make_unique<MonitorHolder>(ShardedMonitorBuilder()
                                                 .Schema(schema)
                                                 .Classifier(Traced("cs-ptree", config.trace))
                                                 .Detector(Traced("DDM", config.trace))
                                                 .Shards(kServeShards)
                                                 .Seed(config.seed));
    warm_cycles = 0;
    for (const ProducerInputs& in : inputs) {
      ServeThreadOut warm;
      ServeProducer(holder->monitor, in, 0, kServeWarmCycles, INT64_MAX, &warm);
      warm_cycles += warm.cycles;
    }
  });
  ShardedMonitor& monitor = holder->monitor;
  const uint64_t first = kServeWarmCycles;

  uint64_t total_cycles = warm_cycles;
  auto check = [&](const ServePhase& phase) {
    total_cycles += phase.cycles;
    result.attempted += phase.cycles;
    result.failed += phase.failed;
    if (phase.failed != 0) {
      result.Fail(std::to_string(phase.failed) + " Label calls returned false");
    }
  };

  LayerFigures f;
  if (!config.trace) {
    ServePhase phase = RunServePhase(monitor, inputs, kServeProducers, config.seconds, first);
    check(phase);
    std::vector<std::vector<uint32_t>> predict, label, feed;
    for (ServeThreadOut& t : phase.threads) {
      // Labels complete in prediction order, so element i of both vectors
      // belongs to the same instance.
      std::vector<uint32_t> both(t.predict_ns.size());
      for (size_t i = 0; i < both.size(); ++i) both[i] = t.predict_ns[i] + t.label_ns[i];
      feed.push_back(std::move(both));
      predict.push_back(std::move(t.predict_ns));
      label.push_back(std::move(t.label_ns));
    }
    result.Add("setup_s", setup_s, "s");
    result.Add("throughput_ips", static_cast<double>(phase.cycles) / Seconds(phase.wall_ns),
               "1/s");
    AddFeedLatency(feed, &result);
    result.Add("mean_pmauc", monitor.Result().mean_pmauc, "score");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    const Latency p = SliceLatency(predict);
    result.Detail("predict_p50_us", p.p50_us, "us");
    result.Detail("predict_p99_us", p.p99_us, "us");
    result.Samples("predict_p99_us", p.per_slice, 99.0);
    const Latency l = SliceLatency(label);
    result.Detail("label_p50_us", l.p50_us, "us");
    result.Detail("label_p99_us", l.p99_us, "us");
    result.Samples("label_p99_us", l.per_slice, 99.0);
  } else {
    // Three phases on one monitor: untraced (the overhead baseline),
    // traced at kServeProducers, traced at one producer (the uncontended
    // api self time that contention is measured against).
    const double half = config.seconds / 2.0;
    ServePhase plain = RunServePhase(monitor, inputs, kServeProducers, half, first);
    check(plain);
    StartTrace(kKeptSpans);
    ServePhase busy = RunServePhase(monitor, inputs, kServeProducers, half, first);
    const TraceSummary s4 = StopTrace("serve-keyed-4");
    check(busy);
    const EvalTape tape = LongestEvalTape();
    StartTrace(kKeptSpans);
    ServePhase single = RunServePhase(monitor, inputs, 1, half, first);
    const TraceSummary s1 = StopTrace("serve-keyed-1");
    check(single);
    FillComponentLayers(s4, &f);
    f.api_predict_self_ns = s4[Span::kApiPredict].MeanSelfNs();
    f.api_label_self_ns = s4[Span::kApiLabel].MeanSelfNs();
    f.runtime_contention_wait_ns = ApiSelfPerCycle(s4) - ApiSelfPerCycle(s1);
    f.runtime_shard_skew = ShardSkew(monitor);
    const double plain_ips = static_cast<double>(plain.cycles) / Seconds(plain.wall_ns);
    const double busy_ips = static_cast<double>(busy.cycles) / Seconds(busy.wall_ns);
    f.bench_trace_overhead = plain_ips / busy_ips;
    ReplayEval(tape, &f);
  }

  // Every prediction is labelled exactly once.
  const uint64_t evicted = monitor.evicted();
  const uint64_t unmatched = monitor.unmatched_labels();
  const uint64_t position = monitor.position();
  if (evicted != 0 || unmatched != 0 || monitor.pending() != 0 || position != total_cycles) {
    result.Fail("serve-keyed: evicted=" + std::to_string(evicted) + " unmatched=" +
                std::to_string(unmatched) + " pending=" + std::to_string(monitor.pending()) +
                " position=" + std::to_string(position) + " cycles=" +
                std::to_string(total_cycles));
    result.failed += evicted + unmatched;
  }
  if (config.trace) {
    f.Emit(&result);
    WriteTraceFile(config);
  }
  return result;
}

// ------------------------------------------------------ ingest-checkpoint

namespace {

struct CheckpointSample {
  int64_t latency_ns = 0;  ///< From due time to Persist return.
  uint64_t acked_before = 0;
  uint64_t started_after = 0;
  uint64_t drained = 0;  ///< position() after minus before.
};

struct IngestPhase {
  std::vector<std::vector<OpenLoopSample>> pushes;  // Per producer.
  std::vector<CheckpointSample> checkpoints;
  uint64_t accepted = 0, rejected = 0;
  uint64_t pushed = 0;
  int64_t start_ns = 0;  ///< Producer schedules start here; checkpoint k is due k periods later.
  int64_t wall_ns = 0;
};

/// Producers push immediate-label events through FeedAsync, falling back
/// to the locked Feed when the ingress queue refuses. Open loop: each
/// producer has a fixed-rate schedule. Closed loop: each pushes as fast as
/// it can. A checkpoint thread calls Persist(dir) every
/// kCheckpointPeriodMs; in the open loop it makes every scheduled call,
/// however late, so the sample count is fixed by the schedule.
IngestPhase RunIngestPhase(ShardedMonitor& monitor, const std::vector<ProducerInputs>& inputs,
                           const std::string& dir, double seconds, bool open_loop,
                           uint64_t first) {
  IngestPhase phase;
  const int producers = static_cast<int>(inputs.size());
  phase.pushes.resize(inputs.size());
  std::atomic<uint64_t> started{0}, acked{0}, accepted{0}, rejected{0};
  std::atomic<bool> go{false};
  int64_t start = 0, end = 0;
  const int64_t period_ns = static_cast<int64_t>(producers / kIngestRate * 1e9);
  std::vector<int64_t> done(inputs.size(), 0);

  auto push = [&](const ProducerInputs& in, uint64_t i) {
    const size_t k = static_cast<size_t>((first + i) % in.pool.size());
    ThreadTrace* trace = CurrentTrace();
    if (trace != nullptr) {
      trace->set_request(first + i);
      trace->MarkLoopStart();
    }
    started.fetch_add(1);
    bool ok;
    {
      ScopedSpan span(Span::kApiFeedAsync);
      ok = monitor.FeedAsync(in.keys[k], in.pool[k]);
    }
    if (ok) {
      accepted.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected.fetch_add(1, std::memory_order_relaxed);
      ScopedSpan span(Span::kApiFeed);
      monitor.Feed(in.keys[k], in.pool[k]);
    }
    acked.fetch_add(1);
    if (trace != nullptr) trace->MarkLoopEnd();
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const ProducerInputs& in = inputs[static_cast<size_t>(p)];
      std::vector<OpenLoopSample>& samples = phase.pushes[static_cast<size_t>(p)];
      while (!go.load(std::memory_order_acquire)) {
      }
      if (open_loop) {
        OpenLoopSchedule schedule;
        schedule.start_ns = start;
        schedule.period_ns = period_ns;
        schedule.offset_ns = period_ns * p / producers;
        samples.reserve(static_cast<size_t>(seconds * kIngestRate / producers) + 16);
        RunOpenLoop(schedule, end, [&](uint64_t i) { push(in, i); }, &samples);
      } else {
        for (uint64_t i = 0; NowNs() < end; ++i) {
          OpenLoopSample s;
          s.due_ns = s.sent_ns = NowNs();
          push(in, i);
          s.done_ns = NowNs();
          samples.push_back(s);
        }
      }
      done[static_cast<size_t>(p)] = NowNs();
    });
  }
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    const int64_t every = static_cast<int64_t>(kCheckpointPeriodMs) * 1000000;
    for (int64_t k = 1;; ++k) {
      const int64_t due = start + k * every;
      if (due > end || (!open_loop && NowNs() >= end)) break;
      WaitUntil(due);
      CheckpointSample c;
      c.acked_before = acked.load();
      const uint64_t before = monitor.position();
      ThreadTrace* trace = CurrentTrace();
      if (trace != nullptr) trace->MarkLoopStart();
      {
        ScopedSpan span(Span::kApiPersist);
        monitor.Persist(dir);
      }
      c.latency_ns = NowNs() - due;
      if (trace != nullptr) trace->MarkLoopEnd();
      c.started_after = started.load();
      c.drained = monitor.position() - before;
      phase.checkpoints.push_back(c);
    }
  });
  start = NowNs() + 1000000;
  end = start + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  phase.accepted = accepted.load();
  phase.rejected = rejected.load();
  phase.pushed = acked.load();
  phase.start_ns = start;
  phase.wall_ns = *std::max_element(done.begin(), done.end()) - start;
  return phase;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Standalone io figures: encode (SerializeShard) and decode
/// (DecodeStateImage) of each shard, and a SnapshotStore write with fsync.
void MeasureIo(const ShardedMonitor& monitor, const std::string& dir, LayerFigures* f) {
  std::vector<double> encode, decode, store, bytes;
  fs::create_directories(dir);
  ccd::io::SnapshotStore snapshots(dir);
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < monitor.shards(); ++s) {
      int64_t t0 = NowNs();
      const std::string image = monitor.SerializeShard(s);
      int64_t t1 = NowNs();
      const ccd::io::StateImage decoded = ccd::io::DecodeStateImage(image);
      int64_t t2 = NowNs();
      snapshots.Write("shard-" + std::to_string(s) + ".state", image);
      int64_t t3 = NowNs();
      g_sink = g_sink + static_cast<double>(decoded.state.snapshot.position);
      encode.push_back(static_cast<double>(t1 - t0) / 1e3);
      decode.push_back(static_cast<double>(t2 - t1) / 1e3);
      store.push_back(static_cast<double>(t3 - t2) / 1e6);
      bytes.push_back(static_cast<double>(image.size()));
    }
  }
  f->io_encode_us = Median(encode);
  f->io_decode_us = Median(decode);
  f->io_store_write_ms = Median(store);
  f->io_image_bytes = Mean(bytes);
}

/// Mean Persist time not spent draining (child spans), encoding or
/// writing: the wait for the exclusive table lock and everything else the
/// api layer does around the io calls.
double CheckpointWaitMs(const TraceSummary& s, const LayerFigures& io, int shards) {
  const SpanTotals& persist = s[Span::kApiPersist];
  if (persist.calls == 0) return 0.0;
  const double drain_ns = static_cast<double>(persist.total_ns - persist.self_ns) /
                          static_cast<double>(persist.calls);
  const double encode_ns = io.io_encode_us * 1e3 * shards;
  const double store_ns = io.io_store_write_ms * 1e6 * (shards + 1);  // + manifest.
  return (persist.MeanNs() - drain_ns - encode_ns - store_ns) / 1e6;
}

/// feed_p99_us and the feed_p50_us detail on ingest-checkpoint, taken per
/// checkpoint period. Window k holds the pushes due from checkpoint k's due
/// time to checkpoint k + 1's, so its p99 is the stall behind that one
/// Persist; only windows wholly inside the run count. The figure is the
/// kQuietPeriodPercentile-th percentile over windows: a change that
/// lengthens every Persist moves it in full, while the host's noise, which
/// only lengthens stalls, mostly does not (perfbench/README.md gives the
/// spreads that chose this over a median).
void AddCheckpointPeriodLatency(const IngestPhase& phase, double seconds, RunResult* r) {
  const int64_t every = static_cast<int64_t>(kCheckpointPeriodMs) * 1000000;
  const int windows = static_cast<int>(static_cast<int64_t>(seconds * 1e9) / every) - 1;
  size_t per_window = 0;
  const double p99 = WindowPercentile(phase.pushes, phase.start_ns + every, every, windows, 99.0,
                                      kQuietPeriodPercentile, &per_window);
  const double p50 = WindowPercentile(phase.pushes, phase.start_ns + every, every, windows, 50.0,
                                      kQuietPeriodPercentile, &per_window);
  r->Add("feed_p99_us", p99 / 1e3, "us");
  r->Samples("feed_p99_us", per_window, 99.0);
  // Ten periods lie below the reported one, as ten samples lie beyond a
  // reported percentile.
  r->Samples("feed_p99_us_periods", static_cast<uint64_t>(std::max(windows, 0)),
             100.0 - kQuietPeriodPercentile);
  r->Detail("feed_p50_us", p50 / 1e3, "us");
}

}  // namespace

RunResult RunIngestCheckpoint(const RunConfig& config) {
  RunResult result;
  const std::string dir = config.out_dir + "/checkpoint";
  StreamSchema schema;
  std::vector<ProducerInputs> inputs;
  std::unique_ptr<MonitorHolder> holder;
  const double setup_s = MedianSetupSeconds([&] {
    holder.reset();
    inputs.clear();
    fs::remove_all(dir);
    inputs = MakeProducerInputs("RBF10", config.seed, kIngestProducers, kIngestPool, &schema);
    holder = std::make_unique<MonitorHolder>(ShardedMonitorBuilder()
                                                 .Schema(schema)
                                                 .Classifier(Traced("naive-bayes", config.trace))
                                                 .Detector(Traced("RBM-IM", config.trace))
                                                 .Shards(kIngestShards)
                                                 .Seed(config.seed));
    for (uint64_t i = 0; i < kIngestWarm; ++i) {
      const ProducerInputs& in = inputs[i % inputs.size()];
      const size_t k = static_cast<size_t>(i / inputs.size());
      holder->monitor.Feed(in.keys[k], in.pool[k]);
    }
    holder->monitor.Persist(dir);
  });
  ShardedMonitor& monitor = holder->monitor;
  const uint64_t first = kIngestWarm / kIngestProducers + 1;

  // Pushes acknowledged so far, and before the phase that ran last (whose
  // checkpoints the directory now holds).
  uint64_t pushes = kIngestWarm;
  uint64_t before_last = 0;
  auto run = [&](double seconds, bool open_loop) {
    before_last = pushes;
    IngestPhase p = RunIngestPhase(monitor, inputs, dir, seconds, open_loop, first);
    pushes += p.pushed;
    result.attempted += p.pushed;
    return p;
  };

  LayerFigures f;
  IngestPhase phase;
  std::vector<CheckpointSample> last_checkpoints;
  if (!config.trace) {
    phase = run(config.seconds, true);
    last_checkpoints = phase.checkpoints;
  } else {
    // Untraced open loop (overhead baseline), traced open loop (spans),
    // then the traced closed-loop saturation diagnostic.
    const double half = config.seconds / 2.0;
    const IngestPhase plain = run(half, true);
    StartTrace(kKeptSpans);
    phase = run(half, true);
    const TraceSummary s = StopTrace("ingest-checkpoint-open");
    const EvalTape tape = LongestEvalTape();
    StartTrace(kKeptSpans);
    const IngestPhase closed = run(half, false);
    const TraceSummary sc = StopTrace("ingest-checkpoint-closed");
    last_checkpoints = closed.checkpoints;

    MeasureIo(monitor, config.out_dir + "/io", &f);
    FillComponentLayers(s, &f);
    f.runtime_ingress_accepted = static_cast<double>(phase.accepted);
    f.runtime_ingress_rejected = static_cast<double>(phase.rejected);
    std::vector<double> drained;
    for (const CheckpointSample& c : phase.checkpoints) {
      drained.push_back(static_cast<double>(c.drained));
    }
    f.runtime_checkpoint_drained = Mean(drained);
    f.runtime_checkpoint_wait_ms = CheckpointWaitMs(s, f, kIngestShards);
    f.runtime_closed_loop_checkpoint_wait_ms = CheckpointWaitMs(sc, f, kIngestShards);
    f.runtime_shard_skew = ShardSkew(monitor);
    std::vector<int64_t> late, plain_service, traced_service;
    for (const auto& samples : phase.pushes) {
      for (const OpenLoopSample& x : samples) {
        late.push_back(x.lateness_ns());
        traced_service.push_back(x.done_ns - x.sent_ns);
      }
    }
    for (const auto& samples : plain.pushes) {
      for (const OpenLoopSample& x : samples) plain_service.push_back(x.done_ns - x.sent_ns);
    }
    f.bench_gen_late_p99_us = Percentile(late, 99.0) / 1e3;
    f.bench_trace_overhead = Mean(traced_service) / Mean(plain_service);
    ReplayEval(tape, &f);
    ReplayRbm(inputs[0].pool, schema, config.seed, &f);
  }

  // The last scheduled Persist captured every push acknowledged before it
  // started and none started after it returned.
  if (last_checkpoints.empty()) {
    result.Fail("no checkpoint ran");
  } else {
    const CheckpointSample& last = last_checkpoints.back();
    const uint64_t lo = before_last + last.acked_before;
    const uint64_t hi = before_last + last.started_after;
    MonitorHolder reopened(dir);
    const uint64_t at = reopened.monitor.position();
    if (at < lo || at > hi) {
      result.Fail("reopened position " + std::to_string(at) + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }
  monitor.Flush();
  if (monitor.position() != pushes) {
    result.Fail("after Flush position " + std::to_string(monitor.position()) +
                " != pushes " + std::to_string(pushes));
    result.failed += pushes - std::min(pushes, monitor.position());
  }
  monitor.Persist(dir);
  std::vector<double> open_ms;
  for (int i = 0; i < kOpenRepeats; ++i) {
    const int64_t t0 = NowNs();
    MonitorHolder reopened(dir);
    open_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (reopened.monitor.position() != pushes) {
      result.Fail("reopened final position " + std::to_string(reopened.monitor.position()) +
                  " != pushes " + std::to_string(pushes));
    }
  }

  if (config.trace) {
    f.Emit(&result);
    WriteTraceFile(config);
    return result;
  }
  std::vector<double> checkpoint_ms;
  for (const CheckpointSample& c : phase.checkpoints) {
    checkpoint_ms.push_back(static_cast<double>(c.latency_ns) / 1e6);
  }
  result.Add("setup_s", setup_s, "s");
  result.Add("throughput_ips", static_cast<double>(phase.pushed) / Seconds(phase.wall_ns), "1/s");
  AddCheckpointPeriodLatency(phase, config.seconds, &result);
  result.Add("mean_pmauc", monitor.Result().mean_pmauc, "score");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Detail("checkpoint_p50_ms", Percentile(checkpoint_ms, 50.0), "ms");
  result.Detail("checkpoint_p90_ms", Percentile(checkpoint_ms, 90.0), "ms");
  result.Samples("checkpoint_p90_ms", checkpoint_ms.size(), 90.0);
  result.Detail("open_ms", Median(open_ms), "ms");
  result.Detail("state_bytes", static_cast<double>(DirectoryBytes(dir)), "bytes");
  result.Detail("ingress_rejected", static_cast<double>(phase.rejected), "count");
  return result;
}

}  // namespace perfbench
