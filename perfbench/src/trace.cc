#include "trace.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "api/component_registry.h"
#include "core/rbm_im.h"
#include "stats.h"

namespace perfbench {
namespace {

std::mutex g_mu;
std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_epoch{0};
size_t g_keep = 0;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // Guarded by g_mu.
std::vector<std::pair<std::string, SpanRecord>> g_written;
std::vector<std::shared_ptr<EvalTape>> g_tapes;

struct ThreadSlot {
  uint64_t epoch = 0;
  ThreadTrace* trace = nullptr;
};
thread_local ThreadSlot tl_slot;

constexpr size_t kTapeCap = 120000;

class TracedClassifier final : public ccd::OnlineClassifier {
 public:
  explicit TracedClassifier(std::unique_ptr<ccd::OnlineClassifier> inner)
      : inner_(std::move(inner)) {}
  const ccd::StreamSchema& schema() const override { return inner_->schema(); }
  void Train(const ccd::Instance& instance) override {
    ScopedSpan span(Span::kClassifierTrain);
    inner_->Train(instance);
  }
  std::vector<double> PredictScores(const ccd::Instance& instance) const override {
    ScopedSpan span(Span::kClassifierPredict);
    return inner_->PredictScores(instance);
  }
  void PredictScoresInto(const ccd::Instance& instance,
                         std::vector<double>& out) const override {
    ScopedSpan span(Span::kClassifierPredict);
    inner_->PredictScoresInto(instance, out);
  }
  int Predict(const ccd::Instance& instance) const override {
    ScopedSpan span(Span::kClassifierPredict);
    return inner_->Predict(instance);
  }
  void Reset() override {
    ScopedSpan span(Span::kClassifierReset);
    inner_->Reset();
  }
  std::unique_ptr<ccd::OnlineClassifier> Clone() const override {
    return std::make_unique<TracedClassifier>(inner_->Clone());
  }
  std::unique_ptr<ccd::OnlineClassifier> CloneState() const override {
    return std::make_unique<TracedClassifier>(inner_->CloneState());
  }
  void SaveState(ccd::io::Writer& writer) const override { inner_->SaveState(writer); }
  void LoadState(ccd::io::Reader& reader) override { inner_->LoadState(reader); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ccd::OnlineClassifier> inner_;
};

class TracedDetector final : public ccd::DriftDetector {
 public:
  /// `boundary_every` > 0 marks every such Observe as a mini-batch
  /// boundary; `tape` (may be null) records measured observations.
  TracedDetector(std::unique_ptr<ccd::DriftDetector> inner, int boundary_every,
                 std::shared_ptr<EvalTape> tape)
      : inner_(std::move(inner)),
        boundary_every_(boundary_every),
        tape_(std::move(tape)) {}
  void Observe(const ccd::Instance& instance, int predicted,
               const std::vector<double>& scores) override {
    ++calls_;
    const bool boundary =
        boundary_every_ > 0 && calls_ % static_cast<uint64_t>(boundary_every_) == 0;
    if (tape_ != nullptr && !scores.empty() && tape_->size() < kTapeCap &&
        CurrentTrace() != nullptr) {
      tape_->truth.push_back(instance.label);
      tape_->predicted.push_back(predicted);
      tape_->scores.insert(tape_->scores.end(), scores.begin(), scores.end());
      tape_->scores.resize(tape_->truth.size() *
                           static_cast<size_t>(tape_->num_classes));
    }
    ScopedSpan span(boundary ? Span::kDetectorBoundary : Span::kDetectorObserve);
    inner_->Observe(instance, predicted, scores);
  }
  ccd::DetectorState state() const override { return inner_->state(); }
  void Reset() override {
    calls_ = 0;
    inner_->Reset();
  }
  std::unique_ptr<ccd::DriftDetector> CloneState() const override {
    auto copy = std::make_unique<TracedDetector>(inner_->CloneState(),
                                                 boundary_every_, nullptr);
    copy->calls_ = calls_;
    return copy;
  }
  void SaveState(ccd::io::Writer& writer) const override { inner_->SaveState(writer); }
  void LoadState(ccd::io::Reader& reader) override { inner_->LoadState(reader); }
  std::string name() const override { return inner_->name(); }
  std::vector<int> drifted_classes() const override {
    return inner_->drifted_classes();
  }

 private:
  std::unique_ptr<ccd::DriftDetector> inner_;
  int boundary_every_;
  std::shared_ptr<EvalTape> tape_;
  uint64_t calls_ = 0;
};

}  // namespace

const char* SpanName(Span span) {
  static const char* const kNames[kSpanKinds] = {
      "eval.engine_feed",    "api.predict",         "api.label",
      "api.feed_async",      "api.feed",            "api.persist",
      "classifiers.predict", "classifiers.train",   "classifiers.reset",
      "detectors.observe",   "detectors.boundary",
  };
  return kNames[static_cast<size_t>(span)];
}

ThreadTrace::ThreadTrace(uint64_t thread_index, size_t keep_limit)
    : thread_index_(thread_index), keep_limit_(keep_limit) {
  stack_.reserve(16);
  kept.reserve(keep_limit);
}

void ThreadTrace::Begin(Span span) {
  Open open;
  open.name = span;
  open.id = (thread_index_ << 40) | next_id_++;
  open.parent = stack_.empty() ? 0 : stack_.back().id;
  open.child_ns = 0;
  stack_.push_back(open);
  // Read the clock last so the bookkeeping above is not charged to the span.
  stack_.back().start_ns = NowNs();
}

void ThreadTrace::End() {
  const int64_t end_ns = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end_ns - open.start_ns;
  SpanTotals& t = totals[static_cast<size_t>(open.name)];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (kept.size() < keep_limit_) {
    SpanRecord r;
    r.id = open.id;
    r.parent = open.parent;
    r.request = request_;
    r.start_ns = open.start_ns;
    r.end_ns = end_ns;
    r.name = open.name;
    kept.push_back(r);
  }
}

void ThreadTrace::MarkLoopStart() { loop_start_ns_ = NowNs(); }
void ThreadTrace::MarkLoopEnd() { loop_ns += NowNs() - loop_start_ns_; }

void StartTrace(size_t keep_per_thread) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_on.load()) throw std::logic_error("a trace is already running");
  g_threads.clear();
  g_keep = keep_per_thread;
  g_epoch.fetch_add(1);
  g_on.store(true, std::memory_order_release);
}

TraceSummary StopTrace(const std::string& phase) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_on.store(false, std::memory_order_release);
  TraceSummary out;
  for (const auto& t : g_threads) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      out.totals[k].Add(t->totals[k]);
      if (IsRoot(static_cast<Span>(k))) out.root_ns += t->totals[k].total_ns;
    }
    out.loop_ns += t->loop_ns;
    for (const SpanRecord& r : t->kept) g_written.emplace_back(phase, r);
  }
  g_threads.clear();
  return out;
}

ThreadTrace* CurrentTrace() {
  if (!g_on.load(std::memory_order_acquire)) return nullptr;
  const uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  if (tl_slot.epoch != epoch) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadTrace>(g_threads.size() + 1, g_keep));
    tl_slot.epoch = epoch;
    tl_slot.trace = g_threads.back().get();
  }
  return tl_slot.trace;
}

void WriteTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const auto& entry : g_written) {
    const SpanRecord& r = entry.second;
    out << "{\"phase\":\"" << entry.first << "\",\"name\":\"" << SpanName(r.name)
        << "\",\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << ",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}\n";
  }
}

void RegisterTracedComponents() {
  for (const std::string& name : ccd::api::Classifiers().Names()) {
    ccd::api::detail::ClassifiersRaw().Register(
        ccd::api::ComponentInfo{"traced-" + name, "traced " + name,
                                ccd::api::Classifiers().Find(name)->caps},
        [name](const ccd::StreamSchema& schema, uint64_t seed,
               const ccd::api::ParamMap& params) {
          return std::make_unique<TracedClassifier>(
              ccd::api::Classifiers().Create(name, schema, seed, params));
        });
  }
  // Every batch_size-th RBM-IM Observe runs ProcessBatch (monitor, decide,
  // train); the benchmark builds RBM-IM with its default parameters.
  const int rbm_im_batch = ccd::RbmIm::Params().batch_size;
  for (const std::string& name : ccd::api::Detectors().Names()) {
    ccd::api::detail::DetectorsRaw().Register(
        ccd::api::ComponentInfo{"traced-" + name, "traced " + name,
                                ccd::api::Detectors().Find(name)->caps},
        [name, rbm_im_batch](const ccd::StreamSchema& schema, uint64_t seed,
                             const ccd::api::ParamMap& params) {
          auto tape = std::make_shared<EvalTape>();
          tape->num_classes = schema.num_classes;
          {
            std::lock_guard<std::mutex> lock(g_mu);
            g_tapes.push_back(tape);
          }
          return std::make_unique<TracedDetector>(
              ccd::api::Detectors().Create(name, schema, seed, params),
              name == "RBM-IM" ? rbm_im_batch : 0, std::move(tape));
        });
  }
}

EvalTape LongestEvalTape() {
  std::lock_guard<std::mutex> lock(g_mu);
  const EvalTape* best = nullptr;
  for (const auto& t : g_tapes) {
    if (best == nullptr || t->size() > best->size()) best = t.get();
  }
  return best == nullptr ? EvalTape() : *best;
}


}  // namespace perfbench
