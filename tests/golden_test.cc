// Golden pin of the paper-protocol outputs: every registered detector on
// four Table I streams (cs-ptree base learner, the paper's protocol), run
// through api::Suite and compared against the committed tests/golden/
// files. A refactor that changes any mean metric, drift alarm or pmAUC
// sample by one bit fails here.
//
// Comparison is exact (byte-identical text) when built with the recording
// toolchain, GCC 12.2.0. Other compilers and libm versions round exp/log
// differently, so there every number is compared with a relative
// tolerance of kRelTol (integers — positions, classes, counts — still
// exactly).
//
// Re-pinning: CCD_GOLDEN_UPDATE=1 ./golden_test rewrites the files. Only
// do so for an intended behaviour change, and record the reason in
// CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"

namespace ccd {
namespace {

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    __GNUC_MINOR__ == 2 && __GNUC_PATCHLEVEL__ == 0
constexpr bool kRecordingToolchain = true;
#else
constexpr bool kRecordingToolchain = false;
#endif

constexpr double kRelTol = 1e-9;
constexpr double kScale = 0.01;

const std::vector<std::string>& GoldenStreams() {
  static const std::vector<std::string> streams = {"RBF5", "RBF20",
                                                   "Hyperplane10",
                                                   "RandomTree5"};
  return streams;
}

std::string G(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
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

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// True when `a` and `b` agree token by token: integer tokens and words
/// exactly, floating-point tokens within kRelTol.
bool TokensMatch(const std::string& a, const std::string& b) {
  std::istringstream ia(a), ib(b);
  std::string ta, tb;
  while (true) {
    const bool more_a = static_cast<bool>(ia >> ta);
    const bool more_b = static_cast<bool>(ib >> tb);
    if (more_a != more_b) return false;
    if (!more_a) return true;
    if (ta == tb) continue;
    const bool is_float = ta.find_first_of(".eE") != std::string::npos;
    char* end_a = nullptr;
    char* end_b = nullptr;
    const double va = std::strtod(ta.c_str(), &end_a);
    const double vb = std::strtod(tb.c_str(), &end_b);
    if (!is_float || *end_a != '\0' || *end_b != '\0') return false;
    const double scale = std::max(std::fabs(va), std::fabs(vb));
    if (std::fabs(va - vb) > kRelTol * scale) return false;
  }
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

  const std::string path = GoldenPath(stream);
  if (std::getenv("CCD_GOLDEN_UPDATE") != nullptr) {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "re-pinned " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream expected;
  expected << in.rdbuf();

  if (kRecordingToolchain) {
    ASSERT_EQ(expected.str(), actual) << "golden mismatch in " << path;
    return;
  }
  const std::vector<std::string> want = Lines(expected.str());
  const std::vector<std::string> got = Lines(actual);
  ASSERT_EQ(want.size(), got.size()) << path;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(TokensMatch(want[i], got[i]))
        << path << ":" << (i + 1) << "\n  want: " << want[i]
        << "\n  got:  " << got[i];
  }
}

INSTANTIATE_TEST_SUITE_P(TableIStreams, GoldenTest,
                         ::testing::ValuesIn(GoldenStreams()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace ccd
