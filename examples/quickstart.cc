// Quickstart: the smallest end-to-end use of the library through the
// public ccd::api layer.
//
// 1. Lists the registered components (the registry is the front door:
//    everything constructible by name, with capability flags).
// 2. Composes an experiment with the fluent builder — a 5-class
//    imbalanced RBF benchmark, the paper's base classifier, and the
//    RBM-IM drift detector with two knobs overridden from strings —
//    and runs the prequential protocol.
// 3. Prints where drift was detected and the final skew-aware metrics.

#include <cstdio>

#include "api/api.h"

int main() {
  // --- 1. What is available?
  std::printf("registered detectors:\n");
  for (const ccd::api::ComponentInfo& info : ccd::api::Detectors().List()) {
    std::printf("  %-12s %s%s%s\n", info.name.c_str(),
                info.description.c_str(),
                info.has(ccd::api::kTrainable) ? " [trainable]" : "",
                info.has(ccd::api::kExplainsLocalDrift)
                    ? " [explains local drift]"
                    : "");
  }
  std::printf("registered classifiers:\n");
  for (const ccd::api::ComponentInfo& info : ccd::api::Classifiers().List()) {
    std::printf("  %-12s %s\n", info.name.c_str(), info.description.c_str());
  }

  // --- 2. Compose and run: every component resolved by name, every knob
  //        settable as a key=value string (no recompiling for a sweep).
  ccd::PrequentialResult result = ccd::api::Experiment()
                                      .Stream("RBF5")
                                      .Scale(0.03)  // 30k instances.
                                      .Seed(7)
                                      .Classifier("cs-ptree")
                                      .Detector("RBM-IM", {"batch_size=50",
                                                           "jump_sigmas=4.0"})
                                      .Run();

  // --- 3. Outcome.
  std::printf("\nran %llu instances; %llu drift alarms at:",
              static_cast<unsigned long long>(result.instances),
              static_cast<unsigned long long>(result.drifts));
  for (const ccd::DriftAlarm& alarm : result.drift_events) {
    std::printf(" %llu", static_cast<unsigned long long>(alarm.position));
  }
  std::printf("\n(three drifts are injected, evenly spaced)\n");
  std::printf("final pmAUC=%.3f pmG-mean=%.3f accuracy=%.3f kappa=%.3f\n",
              result.mean_pmauc, result.mean_pmgm, result.mean_accuracy,
              result.mean_kappa);
  return 0;
}
