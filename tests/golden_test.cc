// Golden pin of the paper-protocol outputs: every registered detector on
// four Table I streams (cs-ptree base learner, the paper's protocol), run
// through api::Suite and compared against the committed tests/golden/
// files. A refactor that changes any mean metric, drift alarm or pmAUC
// sample by one bit fails here.
//
// Comparison and re-pinning follow the golden-file rules in
// tests/testing_util.h: exact on the recording toolchain (GCC 12.2.0),
// 1e-9 relative elsewhere; CCD_GOLDEN_UPDATE=1 ./golden_test rewrites the
// files, only for an intended behaviour change recorded in CHANGES.md.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::G;

constexpr double kScale = 0.01;

const std::vector<std::string>& GoldenStreams() {
  static const std::vector<std::string> streams = {"RBF5", "RBF20",
                                                   "Hyperplane10",
                                                   "RandomTree5"};
  return streams;
}

std::string Render(const api::SuiteCellResult& c) {
  const PrequentialResult& r = c.result;
  std::ostringstream out;
  out << "detector " << c.cell.detector_label << "\n"
      << "instances " << r.instances << "\n"
      << "mean_pmauc " << G(r.mean_pmauc) << "\n"
      << "mean_pmgm " << G(r.mean_pmgm) << "\n"
      << "mean_accuracy " << G(r.mean_accuracy) << "\n"
      << "mean_kappa " << G(r.mean_kappa) << "\n"
      << "drifts " << r.drifts << "\n";
  for (const DriftAlarm& a : r.drift_events) {
    out << "drift " << a.position << " classes";
    for (int k : a.drifted_classes) out << " " << k;
    out << "\n";
  }
  for (const auto& [position, pmauc] : r.pmauc_series) {
    out << "pmauc " << position << " " << G(pmauc) << "\n";
  }
  return out.str();
}

std::string GoldenPath(const std::string& stream) {
  return std::string(CCD_GOLDEN_DIR) + "/" + stream + ".txt";
}

class GoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTest, PaperProtocolOutputsMatchPin) {
  const std::string& stream = GetParam();
  api::SuiteResult res = api::Suite()
                             .Stream(stream)
                             .Detectors(api::Detectors().Names())
                             .Classifier("cs-ptree")
                             .Scale(kScale)
                             .Threads(0)
                             .Run();
  std::string actual;
  for (const api::SuiteCellResult& c : res.cells) actual += Render(c);

  test_util::ExpectMatchesGolden(GoldenPath(stream), actual);
}

INSTANTIATE_TEST_SUITE_P(TableIStreams, GoldenTest,
                         ::testing::ValuesIn(GoldenStreams()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace ccd
