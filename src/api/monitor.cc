#include "api/monitor.h"

#include <stdexcept>
#include <utility>

namespace ccd {
namespace api {

// ---------------------------------------------------------------- Monitor

Monitor::Monitor(const StreamSchema& schema,
                 std::unique_ptr<OnlineClassifier> classifier,
                 std::unique_ptr<DriftDetector> detector,
                 const PrequentialConfig& config, EngineHooks hooks,
                 size_t pending_capacity)
    : classifier_(std::move(classifier)), detector_(std::move(detector)) {
  engine_ = std::make_unique<MonitorEngine>(schema, classifier_.get(),
                                            detector_.get(), config,
                                            std::move(hooks), pending_capacity);
}

Monitor::Prediction Monitor::Predict(const std::vector<double>& features,
                                     double weight) {
  MonitorEngine::Ticket t = engine_->Predict(features, weight);
  Prediction p;
  p.id = t.id;
  p.label = t.predicted;
  p.scores = std::move(t.scores);
  return p;
}

bool Monitor::Label(uint64_t id, int true_label) {
  return engine_->Label(id, true_label) == LabelOutcome::kApplied;
}

void Monitor::Feed(const Instance& instance) { engine_->Feed(instance); }

void Monitor::FeedBatch(const std::vector<Instance>& batch) {
  engine_->FeedBatch(batch);
}

void Monitor::PredictBatch(const std::vector<Instance>& batch,
                           std::vector<Prediction>* out) {
  // Whole batch first, as MonitorEngine::PredictBatch does.
  for (const Instance& instance : batch) {
    RequireFeatureCount(engine_->schema(), instance.features,
                        "Monitor::PredictBatch");
  }
  out->resize(batch.size());
  MonitorEngine::Ticket t;  // Reused: scores capacity survives iterations.
  for (size_t i = 0; i < batch.size(); ++i) {
    engine_->Predict(batch[i].features, batch[i].weight, &t);
    Prediction& p = (*out)[i];
    p.id = t.id;
    p.label = t.predicted;
    p.scores = t.scores;
  }
}

void Monitor::LabelBatch(const std::vector<LabelRequest>& batch,
                         std::vector<LabelOutcome>* outcomes) {
  engine_->LabelBatch(batch, outcomes);
}

void Monitor::Pause() { engine_->Pause(); }
void Monitor::Resume() { engine_->Resume(); }
bool Monitor::paused() const { return engine_->paused(); }

EngineSnapshot Monitor::Snapshot() const { return engine_->Snapshot(); }
PrequentialResult Monitor::Result() const { return engine_->Result(); }

uint64_t Monitor::position() const { return engine_->position(); }
size_t Monitor::pending() const { return engine_->pending(); }
uint64_t Monitor::evicted() const { return engine_->evicted(); }
uint64_t Monitor::unmatched_labels() const {
  return engine_->unmatched_labels();
}
DetectorState Monitor::last_detector_state() const {
  return engine_->last_detector_state();
}
const StreamSchema& Monitor::schema() const { return engine_->schema(); }

// --------------------------------------------------------- MonitorBuilder

MonitorBuilder& MonitorBuilder::Schema(const StreamSchema& schema) {
  schema_ = schema;
  has_schema_ = true;
  return *this;
}

MonitorBuilder& MonitorBuilder::Schema(int num_features, int num_classes) {
  return Schema(StreamSchema(num_features, num_classes, "monitor"));
}

MonitorBuilder& MonitorBuilder::Classifier(const std::string& name,
                                           ParamMap params) {
  classifier_name_ = name;
  classifier_params_ = std::move(params);
  return *this;
}

MonitorBuilder& MonitorBuilder::Detector(const std::string& name,
                                         ParamMap params) {
  detector_name_ = name;
  detector_params_ = std::move(params);
  return *this;
}

MonitorBuilder& MonitorBuilder::NoDetector() {
  detector_name_.clear();
  detector_params_ = ParamMap();
  return *this;
}

MonitorBuilder& MonitorBuilder::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

MonitorBuilder& MonitorBuilder::Protocol(const PrequentialConfig& config) {
  config_ = config;
  has_config_ = true;
  return *this;
}

MonitorBuilder& MonitorBuilder::PendingCapacity(size_t capacity) {
  pending_capacity_ = capacity < 1 ? 1 : capacity;
  return *this;
}

MonitorBuilder& MonitorBuilder::OnDrift(
    std::function<void(const DriftAlarm&, const MetricsSnapshot&)> callback) {
  hooks_.on_drift = std::move(callback);
  return *this;
}

MonitorBuilder& MonitorBuilder::OnWarning(
    std::function<void(uint64_t, const MetricsSnapshot&)> callback) {
  hooks_.on_warning = std::move(callback);
  return *this;
}

MonitorBuilder& MonitorBuilder::OnMetrics(
    std::function<void(const MetricsSnapshot&)> callback) {
  hooks_.on_metrics = std::move(callback);
  return *this;
}

Monitor MonitorBuilder::Build() const {
  if (!has_schema_) {
    throw ApiError(
        "MonitorBuilder: no schema configured; call Schema(features, "
        "classes) before Build() — a push monitor has no stream to infer "
        "it from");
  }
  if (!schema_.Valid()) {
    throw ApiError("MonitorBuilder: invalid schema (need num_features > 0 "
                   "and num_classes >= 2)");
  }

  PrequentialConfig config;
  if (has_config_) {
    config = config_;
    try {
      ValidatePrequentialConfig(config);
    } catch (const std::invalid_argument& e) {
      throw ApiError(e.what());
    }
  } else {
    // The paper's protocol; timing off — a serving monitor wants alerts,
    // not per-call stopwatches.
    config.metric_window = 1000;
    config.eval_interval = 250;
    config.warmup = 500;
    config.timing = false;
  }

  std::unique_ptr<OnlineClassifier> classifier =
      Classifiers().Create(classifier_name_, schema_, seed_,
                           classifier_params_);
  std::unique_ptr<DriftDetector> detector;
  if (!detector_name_.empty()) {
    detector = Detectors().Create(detector_name_, schema_, seed_,
                                  detector_params_);
  }
  return Monitor(schema_, std::move(classifier), std::move(detector), config,
                 hooks_, pending_capacity_);
}

}  // namespace api
}  // namespace ccd
