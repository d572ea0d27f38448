// Span tracing for the benchmark's traced run (--trace 1).
//
// All timing is taken from outside the library: the workloads open a root
// span around each call into the api/eval surface, and registry decorators
// ("traced-<name>", see RegisterTracedComponents) open child spans around
// every classifier and detector call the library makes. A span carries its
// name, start, end, parent span and request id. Per-thread totals (calls,
// total and self time) are kept for every span; the first
// `keep_per_thread` spans of each thread are also kept verbatim and written
// out when the benchmark ends. With no trace running every hook is a
// single relaxed load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Span : uint8_t {
  kEngineFeed,         // MonitorEngine::Feed (root, prequential-rbmim).
  kApiPredict,         // ShardedMonitor::Predict (root, serve-keyed).
  kApiLabel,           // ShardedMonitor::Label (root, serve-keyed).
  kApiFeedAsync,       // ShardedMonitor::FeedAsync (root, ingest).
  kApiFeed,            // ShardedMonitor::Feed fallback (root, ingest).
  kApiPersist,         // ShardedMonitor::Persist (root, ingest).
  kClassifierPredict,  // OnlineClassifier::PredictScores[Into].
  kClassifierTrain,    // OnlineClassifier::Train.
  kClassifierReset,    // OnlineClassifier::Reset (drift coupling).
  kDetectorObserve,    // DriftDetector::Observe, ordinary call.
  kDetectorBoundary,   // RBM-IM Observe that completes a mini-batch.
  kCount,
};
constexpr size_t kSpanKinds = static_cast<size_t>(Span::kCount);
const char* SpanName(Span span);
inline bool IsRoot(Span span) { return span <= Span::kApiPersist; }

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Span name = Span::kEngineFeed;
};

struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus the time covered by child spans.
  void Add(const SpanTotals& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
  }
  double MeanNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(calls);
  }
  double MeanSelfNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(self_ns) / static_cast<double>(calls);
  }
};

/// One thread's spans within one trace. Only its own thread touches it
/// until the trace is collected after that thread has been joined.
class ThreadTrace {
 public:
  ThreadTrace(uint64_t thread_index, size_t keep_limit);
  void Begin(Span span);
  void End();
  void set_request(uint64_t request) { request_ = request; }
  /// The workload brackets each thread's measured loop with these, so
  /// coverage (root-span time / loop wall time) can be reported.
  void MarkLoopStart();
  void MarkLoopEnd();

  std::array<SpanTotals, kSpanKinds> totals{};
  std::vector<SpanRecord> kept;
  int64_t loop_ns = 0;

 private:
  struct Open {
    Span name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Open> stack_;
  uint64_t thread_index_;
  uint64_t next_id_ = 1;
  uint64_t request_ = 0;
  size_t keep_limit_;
  int64_t loop_start_ns_ = 0;
};

/// Per-span totals merged over every thread of a trace.
struct TraceSummary {
  std::array<SpanTotals, kSpanKinds> totals{};
  int64_t root_ns = 0;  ///< Sum of root-span durations.
  int64_t loop_ns = 0;  ///< Sum of the marked loop wall times.
  const SpanTotals& operator[](Span s) const {
    return totals[static_cast<size_t>(s)];
  }
  /// Share of the measured loops' wall time that root spans cover.
  double Coverage() const {
    return loop_ns == 0 ? 0.0 : static_cast<double>(root_ns) / static_cast<double>(loop_ns);
  }
};

/// Starts a trace: from now on CurrentTrace() hands each thread a fresh
/// ThreadTrace. Traces do not nest.
void StartTrace(size_t keep_per_thread);
/// Ends the trace (call after every traced thread has been joined),
/// merges its threads, appends their kept spans to the spans written by
/// WriteTrace(), and returns the merged totals.
TraceSummary StopTrace(const std::string& phase);
/// The calling thread's ThreadTrace while a trace runs, or nullptr.
ThreadTrace* CurrentTrace();
/// Writes every kept span of every stopped trace as JSON lines.
void WriteTrace(const std::string& path);

class ScopedSpan {
 public:
  explicit ScopedSpan(Span span) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) trace_->Begin(span);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

/// (truth, predicted, scores) of measured detector observations, as the
/// traced detectors saw them, for replay through a standalone
/// WindowedMetrics.
struct EvalTape {
  int num_classes = 0;
  std::vector<int> truth;
  std::vector<int> predicted;
  std::vector<double> scores;  ///< num_classes per entry.
  size_t size() const { return truth.size(); }
};

/// Registers "traced-<name>" for every classifier and detector in the api
/// registries: a forwarding decorator that opens the child spans above,
/// so ShardedMonitor and Open build traced components by name.
void RegisterTracedComponents();
/// The longest tape any traced detector has recorded; tapes record only
/// while a trace runs and are capped per detector.
EvalTape LongestEvalTape();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
