#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/rbm.h"
#include "io/wire.h"
#include "testing_util.h"
#include "utils/rng.h"

namespace ccd {
namespace {

Rbm::Params SmallParams() {
  Rbm::Params p;
  p.visible = 6;
  p.hidden = 8;
  p.classes = 3;
  p.learning_rate = 0.1;
  return p;
}

/// Two well-separated class prototypes in [0,1]^6 with jitter.
Instance DrawProto(Rng* rng, int y) {
  std::vector<double> x(6);
  for (size_t i = 0; i < 6; ++i) {
    double base = y == 0 ? 0.15 : (y == 1 ? 0.5 : 0.85);
    x[i] = std::clamp(base + rng->Gaussian(0.0, 0.05), 0.0, 1.0);
  }
  return Instance(std::move(x), y);
}

std::vector<Instance> DrawBatch(Rng* rng, int n, double p0 = 0.34,
                                double p1 = 0.33) {
  std::vector<Instance> batch;
  for (int i = 0; i < n; ++i) {
    double u = rng->NextDouble();
    int y = u < p0 ? 0 : (u < p0 + p1 ? 1 : 2);
    batch.push_back(DrawProto(rng, y));
  }
  return batch;
}

TEST(RbmTest, ProbabilityOutputsAreValid) {
  Rbm rbm(SmallParams(), 3);
  std::vector<double> v = {0.1, 0.9, 0.5, 0.3, 0.7, 0.2};
  std::vector<double> z = {1.0, 0.0, 0.0};
  auto h = rbm.HiddenProbs(v, z);
  ASSERT_EQ(h.size(), 8u);
  for (double p : h) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  auto vr = rbm.VisibleProbs(h);
  ASSERT_EQ(vr.size(), 6u);
  for (double p : vr) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  auto zr = rbm.ClassProbs(h);
  double sum = 0.0;
  for (double p : zr) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RbmTest, EnergyDecreasesForTrainedPatterns) {
  // After training, the (v, h(v,z), z) configuration of in-distribution
  // data should have lower energy than random noise configurations.
  Rbm rbm(SmallParams(), 3);
  Rng rng(5);
  for (int b = 0; b < 300; ++b) rbm.TrainBatch(DrawBatch(&rng, 20));

  double trained_energy = 0.0, noise_energy = 0.0;
  for (int i = 0; i < 100; ++i) {
    Instance inst = DrawProto(&rng, rng.UniformInt(0, 2));
    std::vector<double> z(3, 0.0);
    z[static_cast<size_t>(inst.label)] = 1.0;
    auto h = rbm.HiddenProbs(inst.features, z);
    trained_energy += rbm.Energy(inst.features, h, z);

    std::vector<double> vn(6);
    for (double& v : vn) v = rng.NextDouble();
    std::vector<double> zn(3, 0.0);
    zn[static_cast<size_t>(rng.UniformInt(0, 2))] = 1.0;
    auto hn = rbm.HiddenProbs(vn, zn);
    noise_energy += rbm.Energy(vn, hn, zn);
  }
  EXPECT_LT(trained_energy, noise_energy);
}

TEST(RbmTest, ReconstructionErrorDropsWithTraining) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(7);
  auto mean_recon = [&rbm](Rng* r) {
    double sum = 0.0;
    for (int i = 0; i < 200; ++i) {
      Instance inst = DrawProto(r, r->UniformInt(0, 2));
      sum += rbm.ReconstructionError(inst.features, inst.label);
    }
    return sum / 200.0;
  };
  double before = mean_recon(&rng);
  for (int b = 0; b < 400; ++b) rbm.TrainBatch(DrawBatch(&rng, 20));
  double after = mean_recon(&rng);
  EXPECT_LT(after, before - 0.02);
}

TEST(RbmTest, ReconstructionErrorIsNormalized) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    Instance inst = DrawProto(&rng, rng.UniformInt(0, 2));
    double r = rbm.ReconstructionError(inst.features, inst.label);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(RbmTest, ReconstructionHigherForUnseenConcept) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(11);
  for (int b = 0; b < 400; ++b) rbm.TrainBatch(DrawBatch(&rng, 20));
  // In-distribution error.
  double in_dist = 0.0;
  for (int i = 0; i < 200; ++i) {
    Instance inst = DrawProto(&rng, 0);
    in_dist += rbm.ReconstructionError(inst.features, inst.label);
  }
  // Shifted concept: class-0 instances moved to an unseen prototype.
  double shifted = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = std::clamp(0.95 + rng.Gaussian(0.0, 0.03), 0.0, 1.0);
    shifted += rbm.ReconstructionError(x, 0);
  }
  EXPECT_GT(shifted / 200.0, in_dist / 200.0 + 0.02);
}

TEST(RbmTest, ClassReadoutLearnsPosterior) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(13);
  for (int b = 0; b < 600; ++b) rbm.TrainBatch(DrawBatch(&rng, 20));
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    int y = rng.UniformInt(0, 2);
    Instance inst = DrawProto(&rng, y);
    auto probs = rbm.ClassReadout(inst.features);
    int arg = 0;
    for (int k = 1; k < 3; ++k) {
      if (probs[static_cast<size_t>(k)] > probs[static_cast<size_t>(arg)]) arg = k;
    }
    correct += arg == y;
  }
  EXPECT_GT(correct, 240);  // >80% on a trivially separable task.
}

TEST(RbmTest, ClassWeightFavorsMinority) {
  Rbm::Params p = SmallParams();
  Rbm rbm(p, 3);
  Rng rng(15);
  // 90:9:1 imbalance.
  for (int b = 0; b < 100; ++b) {
    std::vector<Instance> batch;
    for (int i = 0; i < 20; ++i) {
      double u = rng.NextDouble();
      int y = u < 0.90 ? 0 : (u < 0.99 ? 1 : 2);
      batch.push_back(DrawProto(&rng, y));
    }
    rbm.TrainBatch(batch);
  }
  EXPECT_GT(rbm.ClassWeight(2), rbm.ClassWeight(1));
  EXPECT_GT(rbm.ClassWeight(1), rbm.ClassWeight(0));
  EXPECT_GT(rbm.class_count(0), rbm.class_count(2));
}

TEST(RbmTest, BalancedWeightsWhenDisabled) {
  Rbm::Params p = SmallParams();
  p.class_balanced = false;
  Rbm rbm(p, 3);
  Rng rng(17);
  for (int b = 0; b < 50; ++b) rbm.TrainBatch(DrawBatch(&rng, 20, 0.9, 0.09));
  EXPECT_DOUBLE_EQ(rbm.ClassWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(rbm.ClassWeight(2), 1.0);
}

TEST(RbmTest, SkewInsensitiveLossHelpsMinorityRepresentation) {
  // Train one balanced-loss and one plain RBM on a 97:2:1 stream; the
  // balanced model must reconstruct the rare class better.
  Rbm::Params balanced = SmallParams();
  balanced.class_balanced = true;
  Rbm::Params plain = SmallParams();
  plain.class_balanced = false;
  Rbm rbm_b(balanced, 3), rbm_p(plain, 3);
  Rng rng(19);
  for (int b = 0; b < 500; ++b) {
    std::vector<Instance> batch;
    for (int i = 0; i < 25; ++i) {
      double u = rng.NextDouble();
      int y = u < 0.97 ? 0 : (u < 0.99 ? 1 : 2);
      batch.push_back(DrawProto(&rng, y));
    }
    rbm_b.TrainBatch(batch);
    rbm_p.TrainBatch(batch);
  }
  double err_b = 0.0, err_p = 0.0;
  for (int i = 0; i < 300; ++i) {
    Instance inst = DrawProto(&rng, 2);
    err_b += rbm_b.ReconstructionError(inst.features, 2);
    err_p += rbm_p.ReconstructionError(inst.features, 2);
  }
  EXPECT_LT(err_b, err_p);
}

TEST(RbmTest, DeterministicGivenSeed) {
  Rbm a(SmallParams(), 21), b(SmallParams(), 21);
  Rng ra(23), rb(23);
  for (int i = 0; i < 20; ++i) {
    a.TrainBatch(DrawBatch(&ra, 10));
    b.TrainBatch(DrawBatch(&rb, 10));
  }
  Instance probe = DrawProto(&ra, 1);
  EXPECT_DOUBLE_EQ(a.ReconstructionError(probe.features, 1),
                   b.ReconstructionError(probe.features, 1));
}

TEST(RbmTest, ClassifyProbsFreeEnergyIsDistribution) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(25);
  for (int b = 0; b < 100; ++b) rbm.TrainBatch(DrawBatch(&rng, 20));
  auto probs = rbm.ClassifyProbs(DrawProto(&rng, 0).features);
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --- Kernel pin ----------------------------------------------------------
//
// Every public output of the dense kernels as %.17g, plus an FNV-1a digest
// of the SaveState bytes after 20 TrainBatch calls, compared against
// tests/golden/rbm_kernels.txt under the golden-file rules of
// tests/testing_util.h. The shapes cover layers that fill whole 4-row
// blocks (80, 40, 20) and layers that leave a remainder (7, 5, 3); each
// shape runs CD-1 and CD-2 with the class-balanced weighting on and off.

struct PinCase {
  int visible, hidden, classes, cd_steps;
  bool class_balanced;
};

void RenderVec(std::ostringstream& out, const char* name,
               const std::vector<double>& v) {
  out << name;
  for (double x : v) out << " " << test_util::G(x);
  out << "\n";
}

std::string RenderPinCase(const PinCase& c) {
  Rbm::Params p;
  p.visible = c.visible;
  p.hidden = c.hidden;
  p.classes = c.classes;
  p.cd_steps = c.cd_steps;
  p.class_balanced = c.class_balanced;
  Rbm rbm(p, 101);
  Rng rng(202);
  // One prototype per class; labels skewed toward class 0 so the
  // class-balanced weights differ between classes.
  std::vector<std::vector<double>> protos(static_cast<size_t>(c.classes));
  for (auto& proto : protos) {
    proto.resize(static_cast<size_t>(c.visible));
    for (double& x : proto) x = rng.NextDouble();
  }
  auto draw_label = [&] {
    const double u = rng.NextDouble();
    return std::min(c.classes - 1, static_cast<int>(c.classes * u * u));
  };
  auto draw = [&](int y) {
    std::vector<double> x = protos[static_cast<size_t>(y)];
    for (double& v : x) v = std::clamp(v + rng.Gaussian(0.0, 0.1), 0.0, 1.0);
    return x;
  };
  for (int b = 0; b < 20; ++b) {
    std::vector<Instance> batch;
    for (int i = 0; i < 50; ++i) {
      const int y = draw_label();
      batch.emplace_back(draw(y), y);
    }
    rbm.TrainBatch(batch);
  }

  std::ostringstream out;
  out << "case V=" << c.visible << " H=" << c.hidden << " Z=" << c.classes
      << " cd=" << c.cd_steps << " balanced=" << c.class_balanced << "\n";
  out << "class_weight";
  for (int k = 0; k < c.classes; ++k) {
    out << " " << test_util::G(rbm.ClassWeight(k));
  }
  out << "\n";
  for (int probe = 0; probe < 2; ++probe) {
    const int y = draw_label();
    const std::vector<double> x = draw(y);
    std::vector<double> z(static_cast<size_t>(c.classes), 0.0);
    z[static_cast<size_t>(y)] = 1.0;
    const std::vector<double> h = rbm.HiddenProbs(x, z);
    RenderVec(out, "hidden_probs", h);
    RenderVec(out, "visible_probs", rbm.VisibleProbs(h));
    RenderVec(out, "class_probs", rbm.ClassProbs(h));
    RenderVec(out, "hidden_from_visible", rbm.HiddenFromVisible(x));
    RenderVec(out, "class_readout", rbm.ClassReadout(x));
    RenderVec(out, "classify_probs", rbm.ClassifyProbs(x));
    RenderVec(out, "recon_error",
              {rbm.ReconstructionError(x, y),
               rbm.ReconstructionError(x, (y + 1) % c.classes),
               rbm.ReconstructionError(x, -1)});
  }
  io::Writer w;
  rbm.SaveState(w);
  out << "digest state_fnv1a " << test_util::Fnv1a(w.data()) << "\n";
  return out.str();
}

TEST(RbmTest, KernelOutputsMatchPin) {
  std::string actual;
  for (int shape = 0; shape < 2; ++shape) {
    for (int cd_steps = 1; cd_steps <= 2; ++cd_steps) {
      for (bool balanced : {true, false}) {
        PinCase c = shape == 0 ? PinCase{7, 5, 3, cd_steps, balanced}
                               : PinCase{80, 40, 20, cd_steps, balanced};
        actual += RenderPinCase(c);
      }
    }
  }
  test_util::ExpectMatchesGolden(
      std::string(CCD_GOLDEN_DIR) + "/rbm_kernels.txt", actual);
}

}  // namespace
}  // namespace ccd
