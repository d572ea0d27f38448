// EngineState (eval/engine.h) — the complete-state handoff payload of
// api::ShardedMonitor::DrainShard and of the io state images. Proves the
// load-bearing claim: Snapshot() + component CloneState() → Restore() and
// continue is *bit-identical* to the uninterrupted run, for every
// registered detector and classifier. Also covers the EngineSnapshot
// round-trip contract (pending buffer, eviction/unmatched counters,
// warning-zone latch) and the failure modes (components without
// CloneState, inconsistent snapshots).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/api.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "stream/stream.h"
#include "testing_util.h"

namespace ccd {
namespace {

// EngineState is a handoff token with exactly one owner: copying would
// alias live component clones across shards and allow a state to be
// silently restored twice, so the copy operations are deleted.
static_assert(!std::is_copy_constructible<EngineState>::value,
              "EngineState must not be copyable");
static_assert(!std::is_copy_assignable<EngineState>::value,
              "EngineState must not be copy-assignable");
static_assert(std::is_move_constructible<EngineState>::value,
              "EngineState must stay movable");
static_assert(std::is_move_assignable<EngineState>::value,
              "EngineState must stay move-assignable");

using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::FrozenClassifier;
using test_util::MakeRbfDriftStream;
using test_util::ShortConfig;
using test_util::WarningRegionDetector;

// ------------------------------------------ registry-wide property tests

/// Runs `data` through an engine; `interrupt_at` > 0 stops there, captures
/// the full EngineState, and finishes the run on a *restored* engine built
/// from the state's component clones. Returns (result, final snapshot).
std::pair<PrequentialResult, EngineSnapshot> RunMaybeInterrupted(
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
  EngineState state = CaptureEngineState(engine, *classifier, detector.get());
  MonitorEngine restored = RestoreEngineState(schema, cfg, state);
  for (size_t i = interrupt_at; i < data.size(); ++i) {
    restored.Feed(data[i]);
  }
  return {restored.Result(), restored.Snapshot()};
}

// Snapshot() → CloneState() → Restore() → continue is bit-identical to an
// uninterrupted run for EVERY registered detector — new registrations are
// covered the moment they self-register. The interruption point (777) is
// mid-minibatch for RBM-IM and mid-warning-region for DDM-family
// detectors on noisy data.
TEST(SnapshotRestorePropertyTest, EveryRegisteredDetectorRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 17);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> detectors = api::Detectors().List();
  ASSERT_FALSE(detectors.empty());
  for (const api::ComponentInfo& info : detectors) {
    SCOPED_TRACE(info.name);
    auto uninterrupted =
        RunMaybeInterrupted(data, schema, "naive-bayes", info.name, cfg, 0);
    auto interrupted =
        RunMaybeInterrupted(data, schema, "naive-bayes", info.name, cfg, 777);
    ExpectBitIdentical(uninterrupted.first, interrupted.first);
    ExpectSnapshotEq(uninterrupted.second, interrupted.second);
  }
}

// ... and for EVERY registered classifier (no detector: isolates the
// classifier's own CloneState).
TEST(SnapshotRestorePropertyTest, EveryRegisteredClassifierRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 19);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> classifiers = api::Classifiers().List();
  ASSERT_FALSE(classifiers.empty());
  for (const api::ComponentInfo& info : classifiers) {
    SCOPED_TRACE(info.name);
    auto uninterrupted =
        RunMaybeInterrupted(data, schema, info.name, "", cfg, 0);
    auto interrupted =
        RunMaybeInterrupted(data, schema, info.name, "", cfg, 777);
    ExpectBitIdentical(uninterrupted.first, interrupted.first);
    ExpectSnapshotEq(uninterrupted.second, interrupted.second);
  }
}

// --------------------------------------- snapshot round-trip (regression)

// Regression for the Snapshot() gaps: evicted/unmatched counters, the
// pending buffer contents and the warning-zone latch used to be absent or
// read-only, so a restored engine could neither serve its predecessor's
// in-flight predictions nor suppress a re-fired warning. A restored
// engine's own Snapshot() must now reproduce the source snapshot exactly.
TEST(EngineSnapshotTest, RestoredEngineSnapshotRoundTripsExactly) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  WarningRegionDetector det;
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;

  MonitorEngine engine(schema, &clf, &det, cfg, EngineHooks{},
                       /*pending_capacity=*/4);
  // 620 completed instances: the detector has seen 620 observations and is
  // inside its second warning region [600, 650) — the latch is armed.
  for (int i = 0; i < 620; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  ASSERT_EQ(engine.last_detector_state(), DetectorState::kWarning);
  // Park predictions past capacity (3 evictions) and throw in unmatched
  // labels, so every counter is non-trivial.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 7; ++i) {
    ids.push_back(engine.Predict({static_cast<double>(i), 0.0, 0.0}).id);
  }
  EXPECT_EQ(engine.Label(999999, 1), LabelOutcome::kUnknown);
  EXPECT_EQ(engine.Label(ids[0], 1), LabelOutcome::kUnknown);  // Evicted.
  EXPECT_EQ(engine.evicted(), 3u);
  EXPECT_EQ(engine.unmatched_labels(), 2u);

  EngineSnapshot s1 = engine.Snapshot();
  EXPECT_EQ(s1.last_detector_state, DetectorState::kWarning);
  EXPECT_EQ(s1.pending_predictions.size(), 4u);

  auto clf2 = clf.CloneState();
  auto det2 = det.CloneState();
  int warnings_after_restore = 0;
  EngineHooks hooks;
  hooks.on_warning = [&](uint64_t, const MetricsSnapshot&) {
    ++warnings_after_restore;
  };
  MonitorEngine restored(schema, clf2.get(), det2.get(), cfg,
                         std::move(hooks), /*pending_capacity=*/4);
  restored.Restore(s1);
  ExpectSnapshotEq(s1, restored.Snapshot());

  // The predecessor's in-flight predictions are servable.
  EXPECT_EQ(restored.Label(ids[4], 2), LabelOutcome::kApplied);
  EXPECT_EQ(restored.position(), 621u);
  // The warning latch survived: instances 622..660 sit in the same warning
  // region the original already entered, so on_warning must NOT re-fire.
  for (int i = 621; i < 660; ++i) {
    restored.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  EXPECT_EQ(warnings_after_restore, 0);
}

TEST(EngineSnapshotTest, RestoreRejectsInconsistentSnapshots) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  PrequentialConfig cfg = ShortConfig();
  MonitorEngine engine(schema, &clf, nullptr, cfg);
  for (int i = 0; i < 500; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  const EngineSnapshot good = engine.Snapshot();
  ASSERT_FALSE(good.window.empty());

  // Window wider than the configured metric window.
  EngineSnapshot bad = good;
  bad.window.resize(static_cast<size_t>(cfg.metric_window) + 1,
                    bad.window.front());
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // Class-count vector not matching the schema.
  bad = good;
  bad.class_counts.push_back(0);
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // Pending ids out of order / colliding.
  bad = good;
  bad.pending_predictions.resize(2);
  bad.pending_predictions[0].id = 7;
  bad.pending_predictions[1].id = 7;
  bad.next_id = 10;
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // More pending predictions than the target engine's capacity: accepting
  // them would permanently break the bounded-buffer contract (Predict()
  // evicts one entry per overflow, so an oversized restore never drains).
  bad = good;
  bad.pending_predictions.resize(3);
  for (size_t i = 0; i < 3; ++i) bad.pending_predictions[i].id = i + 1;
  bad.next_id = 10;
  MonitorEngine tiny(schema, &clf, nullptr, cfg, EngineHooks{},
                     /*pending_capacity=*/2);
  EXPECT_THROW(tiny.Restore(bad), std::invalid_argument);
  // The good snapshot still restores after the failed attempts.
  EXPECT_NO_THROW(engine.Restore(good));
  ExpectSnapshotEq(good, engine.Snapshot());
}

// ------------------------------------------------ failure-mode contracts

/// Detector without CloneState(): legal for plain monitoring, must be
/// rejected loudly the moment its state is asked to move to another engine.
class NoHandoffDetector : public DriftDetector {
 public:
  void Observe(const Instance&, int, const std::vector<double>&) override {}
  DetectorState state() const override { return DetectorState::kStable; }
  void Reset() override {}
  std::string name() const override { return "no-handoff"; }
};

TEST(EngineStateTest, ComponentWithoutCloneStateFailsLoudly) {
  auto stream = MakeRbfDriftStream(1u << 30, 5);
  auto classifier = api::MakeClassifier("naive-bayes", stream->schema(), 42);
  NoHandoffDetector detector;
  PrequentialConfig cfg = ShortConfig();
  cfg.max_instances = 1200;
  MonitorEngine engine(stream->schema(), classifier.get(), &detector, cfg);
  for (int i = 0; i < 400; ++i) engine.Feed(stream->Next());
  try {
    CaptureEngineState(engine, *classifier, &detector);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("no-handoff"), std::string::npos);
  }
  // A run that never hands its state off is fine with the same detector.
  auto stream2 = MakeRbfDriftStream(1u << 30, 5);
  EXPECT_NO_THROW(
      RunPrequential(stream2.get(), classifier.get(), &detector, cfg));
}

}  // namespace
}  // namespace ccd
