#include "core/rbm.h"

#include <algorithm>
#include <cmath>

#include "io/codecs.h"

namespace ccd {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double Softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return 0.0;
  return std::log1p(std::exp(x));
}

void SigmoidInto(const std::vector<double>& x, std::vector<double>* out) {
  out->resize(x.size());
  for (size_t j = 0; j < x.size(); ++j) (*out)[j] = Sigmoid(x[j]);
}

/// out[c] = init[c] + Σ_r x[r]·m[r·cols + c] over the row-major rows x
/// cols matrix m: one pass down the rows, each row read contiguously. Every
/// out[c] still adds its terms in ascending r, and the inner loop runs
/// across independent outputs, so the compiler can vectorize it without
/// reassociating any sum. `out` must not alias `x`.
void ColumnDotsInto(const std::vector<double>& m, size_t rows, size_t cols,
                    const std::vector<double>& x,
                    const std::vector<double>& init,
                    std::vector<double>* out) {
  std::vector<double>& o = *out;
  o.assign(init.begin(), init.end());
  for (size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    const double* row = &m[r * cols];
    for (size_t c = 0; c < cols; ++c) o[c] += xr * row[c];
  }
}

/// out[r] = init[r] + Σ_c x[c]·m[r·cols + c], each row summed in ascending
/// c. Four rows share a pass with independent accumulators, which breaks
/// the FP-add latency chain without reassociating any sum. `out` must not
/// alias `x`.
void RowDotsInto(const std::vector<double>& m, size_t rows, size_t cols,
                 const std::vector<double>& x, const std::vector<double>& init,
                 std::vector<double>* out) {
  std::vector<double>& o = *out;
  o.resize(rows);
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = &m[r * cols];
    const double* m1 = m0 + cols;
    const double* m2 = m1 + cols;
    const double* m3 = m2 + cols;
    double s0 = init[r], s1 = init[r + 1], s2 = init[r + 2], s3 = init[r + 3];
    for (size_t c = 0; c < cols; ++c) {
      const double xc = x[c];
      s0 += xc * m0[c];
      s1 += xc * m1[c];
      s2 += xc * m2[c];
      s3 += xc * m3[c];
    }
    o[r] = s0;
    o[r + 1] = s1;
    o[r + 2] = s2;
    o[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const double* mr = &m[r * cols];
    double s = init[r];
    for (size_t c = 0; c < cols; ++c) s += x[c] * mr[c];
    o[r] = s;
  }
}

/// In-place softmax over `logits`.
void SoftmaxInPlace(std::vector<double>* logits) {
  double max_logit = -1e300;
  for (double l : *logits) {
    if (l > max_logit) max_logit = l;
  }
  double total = 0.0;
  for (double& l : *logits) {
    l = std::exp(l - max_logit);
    total += l;
  }
  for (double& l : *logits) l /= total;
}

/// Raw class-balanced weight 1/E_n of a class seen n times, with E_n the
/// effective number of samples (1 - beta^n) / (1 - beta).
double RawClassWeight(double beta, double n) {
  if (n <= 0.0) return 1.0;  // Unseen class: maximal raw weight.
  return 1.0 / ((1.0 - std::pow(beta, n)) / (1.0 - beta));
}

}  // namespace

Rbm::Rbm(const Params& params, uint64_t seed) : params_(params), rng_(seed) {
  const size_t v = static_cast<size_t>(params_.visible);
  const size_t h = static_cast<size_t>(params_.hidden);
  const size_t z = static_cast<size_t>(params_.classes);
  w_.resize(v * h);
  u_.resize(h * z);
  for (double& x : w_) x = rng_.Gaussian(0.0, params_.weight_init_sigma);
  for (double& x : u_) x = rng_.Gaussian(0.0, params_.weight_init_sigma);
  a_.assign(v, 0.0);
  b_.assign(h, 0.0);
  c_.assign(z, 0.0);
  class_counts_.assign(z, 0.0);
}

void Rbm::VisibleDriveInto(const std::vector<double>& v,
                           std::vector<double>* out) const {
  ColumnDotsInto(w_, static_cast<size_t>(params_.visible),
                 static_cast<size_t>(params_.hidden), v, b_, out);
}

void Rbm::HiddenProbsFromDriveInto(const std::vector<double>& drive,
                                   const std::vector<double>& z,
                                   std::vector<double>* out) const {
  RowDotsInto(u_, static_cast<size_t>(params_.hidden),
              static_cast<size_t>(params_.classes), z, drive, out);
  for (double& act : *out) act = Sigmoid(act);
}

void Rbm::VisibleProbsInto(const std::vector<double>& h,
                           std::vector<double>* out) const {
  RowDotsInto(w_, static_cast<size_t>(params_.visible),
              static_cast<size_t>(params_.hidden), h, a_, out);
  for (double& act : *out) act = Sigmoid(act);
}

void Rbm::ClassProbsInto(const std::vector<double>& h,
                         std::vector<double>* out) const {
  ColumnDotsInto(u_, static_cast<size_t>(params_.hidden),
                 static_cast<size_t>(params_.classes), h, c_, out);
  SoftmaxInPlace(out);
}

std::vector<double> Rbm::HiddenProbs(const std::vector<double>& v,
                                     const std::vector<double>& z) const {
  std::vector<double> ph;
  VisibleDriveInto(v, &scratch_.drive);
  HiddenProbsFromDriveInto(scratch_.drive, z, &ph);
  return ph;
}

std::vector<double> Rbm::VisibleProbs(const std::vector<double>& h) const {
  std::vector<double> pv;
  VisibleProbsInto(h, &pv);
  return pv;
}

std::vector<double> Rbm::HiddenFromVisible(const std::vector<double>& v) const {
  std::vector<double> ph;
  VisibleDriveInto(v, &scratch_.drive);
  SigmoidInto(scratch_.drive, &ph);
  return ph;
}

std::vector<double> Rbm::ClassReadout(const std::vector<double>& v) const {
  std::vector<double> out;
  VisibleDriveInto(v, &scratch_.drive);
  SigmoidInto(scratch_.drive, &scratch_.h2);
  ClassProbsInto(scratch_.h2, &out);
  return out;
}

std::vector<double> Rbm::ClassProbs(const std::vector<double>& h) const {
  std::vector<double> logits;
  ClassProbsInto(h, &logits);
  return logits;
}

double Rbm::MeanRawClassWeight() const {
  double sum = 0.0;
  int seen = 0;
  for (double n : class_counts_) {
    if (n > 0.0) {
      sum += RawClassWeight(params_.beta, n);
      ++seen;
    }
  }
  // Raw weights are never negative, so -1 is free to mean "none seen".
  return seen == 0 ? -1.0 : sum / seen;
}

double Rbm::ClassWeight(int y) const {
  return ClassWeight(y, MeanRawClassWeight());
}

double Rbm::ClassWeight(int y, double mean_raw) const {
  // Normalize the raw weight by the mean raw weight over observed classes
  // so the global learning-rate scale is unaffected by K or stream length.
  if (!params_.class_balanced || mean_raw < 0.0) return 1.0;
  double w =
      RawClassWeight(params_.beta, class_counts_[static_cast<size_t>(y)]) /
      mean_raw;
  // Clamp to keep one rare instance from destabilizing the whole model.
  return w > 50.0 ? 50.0 : w;
}

void Rbm::TrainBatch(const std::vector<Instance>& batch) {
  TrainBatch(batch.data(), batch.size());
}

void Rbm::TrainBatch(const Instance* batch, size_t count) {
  if (count == 0) return;
  const size_t v_n = static_cast<size_t>(params_.visible);
  const size_t h_n = static_cast<size_t>(params_.hidden);
  const size_t z_n = static_cast<size_t>(params_.classes);

  std::vector<double>& gw = scratch_.gw;
  std::vector<double>& gu = scratch_.gu;
  std::vector<double>& ga = scratch_.ga;
  std::vector<double>& gb = scratch_.gb;
  std::vector<double>& gc = scratch_.gc;
  gw.assign(v_n * h_n, 0.0);
  gu.assign(h_n * z_n, 0.0);
  ga.assign(v_n, 0.0);
  gb.assign(h_n, 0.0);
  gc.assign(z_n, 0.0);

  // Update the decayed class counts first so this batch's weights reflect
  // its own composition.
  for (size_t bi = 0; bi < count; ++bi) {
    const Instance& s = batch[bi];
    for (double& n : class_counts_) n *= params_.count_decay;
    if (s.label >= 0 && s.label < params_.classes) {
      class_counts_[static_cast<size_t>(s.label)] += 1.0;
    }
  }
  // The counts stay fixed for the rest of the batch, and so does the mean
  // the class weights are normalized by.
  const double mean_raw = MeanRawClassWeight();

  std::vector<double>& z0 = scratch_.z0;
  std::vector<double>& h_state = scratch_.h_state;
  z0.resize(z_n);
  h_state.resize(h_n);
  for (size_t bi = 0; bi < count; ++bi) {
    const Instance& s = batch[bi];
    if (s.label < 0 || s.label >= params_.classes) continue;
    const std::vector<double>& v0 = s.features;
    std::fill(z0.begin(), z0.end(), 0.0);
    z0[static_cast<size_t>(s.label)] = 1.0;
    double weight = ClassWeight(s.label, mean_raw);

    // Positive phase: E_data[.] with clamped (v0, z0). The visible drive
    // d0 is kept for the discriminative step below; W and b do not change
    // in between.
    std::vector<double>& d0 = scratch_.d0;
    std::vector<double>& ph0 = scratch_.ph0;
    VisibleDriveInto(v0, &d0);
    HiddenProbsFromDriveInto(d0, z0, &ph0);

    // Negative phase: CD-k. Hidden states are sampled; visible and class
    // reconstructions use probabilities (standard CD practice).
    for (size_t j = 0; j < h_n; ++j) {
      h_state[j] = rng_.Bernoulli(ph0[j]) ? 1.0 : 0.0;
    }
    std::vector<double>& vk = scratch_.vk;
    std::vector<double>& zk = scratch_.zk;
    std::vector<double>& dk = scratch_.dk;
    std::vector<double>& phk = scratch_.phk;
    for (int step = 0; step < params_.cd_steps; ++step) {
      VisibleProbsInto(h_state, &vk);
      ClassProbsInto(h_state, &zk);
      VisibleDriveInto(vk, &dk);
      HiddenProbsFromDriveInto(dk, zk, &phk);
      if (step + 1 < params_.cd_steps) {
        for (size_t j = 0; j < h_n; ++j) {
          h_state[j] = rng_.Bernoulli(phk[j]) ? 1.0 : 0.0;
        }
      }
    }

    // Weighted gradient accumulation: E_data - E_recon (Eq. 16).
    for (size_t i = 0; i < v_n; ++i) {
      double vi0 = v0[i], vik = vk[i];
      for (size_t j = 0; j < h_n; ++j) {
        gw[i * h_n + j] += weight * (vi0 * ph0[j] - vik * phk[j]);
      }
      ga[i] += weight * (vi0 - vik);
    }
    for (size_t j = 0; j < h_n; ++j) {
      for (size_t k = 0; k < z_n; ++k) {
        gu[j * z_n + k] += weight * (ph0[j] * z0[k] - phk[j] * zk[k]);
      }
      gb[j] += weight * (ph0[j] - phk[j]);
    }
    for (size_t k = 0; k < z_n; ++k) {
      gc[k] += weight * (z0[k] - zk[k]);
    }

    // Discriminative step: cross-entropy gradient of -log P(y | v),
    // backpropagated through the visible-only hidden encoding (one-hidden-
    // layer MLP step on U, c, W, b). This is what makes the class read-out
    // track p(y|x) sharply enough for Eq. 26's label term to carry signal.
    if (params_.discriminative_rate > 0.0) {
      std::vector<double>& hv = scratch_.hv;
      std::vector<double>& err = scratch_.err;
      SigmoidInto(d0, &hv);
      ClassProbsInto(hv, &err);
      for (size_t k = 0; k < z_n; ++k) err[k] = z0[k] - err[k];
      // Per-instance SGD step (unlike the CD update, which is a batch
      // mean); the cost clamp keeps extreme minority weights from blowing
      // up a single step.
      double dlr = params_.discriminative_rate * std::min(weight, 5.0);
      for (size_t k = 0; k < z_n; ++k) {
        if (err[k] != 0.0) c_[k] += dlr * err[k];
      }
      // Row by row over U: dh_j backpropagates err through U as it was
      // before this step. A zero err_k contributes nothing and leaves
      // U_jk unwritten (the selects keep that exact, signed zeros
      // included).
      std::vector<double>& g = scratch_.g;
      g.resize(h_n);
      for (size_t j = 0; j < h_n; ++j) {
        const double hj = hv[j];
        double* row = &u_[j * z_n];
        double dh = 0.0;
        for (size_t k = 0; k < z_n; ++k) {
          const double e = err[k];
          const double ujk = row[k];
          dh += e != 0.0 ? e * ujk : 0.0;
          row[k] = e != 0.0 ? ujk + dlr * e * hj : ujk;
        }
        g[j] = dh * hj * (1.0 - hj);
        if (g[j] != 0.0) b_[j] += dlr * g[j];
      }
      // Row by row over W; a zero g_j leaves column j unwritten.
      for (size_t i = 0; i < v_n; ++i) {
        const double vi = v0[i];
        double* row = &w_[i * h_n];
        for (size_t j = 0; j < h_n; ++j) {
          const double wij = row[j];
          row[j] = g[j] != 0.0 ? wij + dlr * g[j] * vi : wij;
        }
      }
    }
  }

  double lr = params_.learning_rate / static_cast<double>(count);
  for (size_t i = 0; i < w_.size(); ++i) w_[i] += lr * gw[i];
  for (size_t i = 0; i < u_.size(); ++i) u_[i] += lr * gu[i];
  for (size_t i = 0; i < a_.size(); ++i) a_[i] += lr * ga[i];
  for (size_t i = 0; i < b_.size(); ++i) b_[i] += lr * gb[i];
  for (size_t i = 0; i < c_.size(); ++i) c_[i] += lr * gc[i];
}

double Rbm::ReconstructionError(const std::vector<double>& x, int y) const {
  std::vector<double>& z = scratch_.z;
  z.assign(static_cast<size_t>(params_.classes), 0.0);
  if (y >= 0 && y < params_.classes) z[static_cast<size_t>(y)] = 1.0;
  // One visible drive serves both hidden passes below.
  std::vector<double>& drive = scratch_.drive;
  std::vector<double>& h = scratch_.h;
  std::vector<double>& hv = scratch_.h2;
  std::vector<double>& xr = scratch_.xr;
  std::vector<double>& zr = scratch_.zr;
  VisibleDriveInto(x, &drive);
  HiddenProbsFromDriveInto(drive, z, &h);  // Mean-field h | v, z (Eq. 25).
  VisibleProbsInto(h, &xr);                // Eq. 23.
  SigmoidInto(drive, &hv);                 // h | v alone ...
  ClassProbsInto(hv, &zr);                 // ... read out: Eq. 24.
  double sq = 0.0;
  for (int i = 0; i < params_.visible; ++i) {
    double d = x[static_cast<size_t>(i)] - xr[static_cast<size_t>(i)];
    sq += d * d;
  }
  for (int k = 0; k < params_.classes; ++k) {
    double d = z[static_cast<size_t>(k)] - zr[static_cast<size_t>(k)];
    sq += d * d;
  }
  // Eq. 26 with a 1/sqrt(V+Z) normalization for a bounded signal.
  return std::sqrt(sq) /
         std::sqrt(static_cast<double>(params_.visible + params_.classes));
}

std::vector<double> Rbm::ClassifyProbs(const std::vector<double>& x) const {
  // Free-energy discriminative read-out:
  //   log P(y|x) ∝ c_y + sum_j softplus(b_j + W_.j x + u_jy),
  // accumulated row by row over U, each logit in ascending j.
  const size_t z_n = static_cast<size_t>(params_.classes);
  std::vector<double>& base = scratch_.drive;
  VisibleDriveInto(x, &base);
  std::vector<double> logits(c_);
  for (size_t j = 0; j < base.size(); ++j) {
    const double* row = &u_[j * z_n];
    for (size_t k = 0; k < z_n; ++k) logits[k] += Softplus(base[j] + row[k]);
  }
  SoftmaxInPlace(&logits);
  return logits;
}

double Rbm::Energy(const std::vector<double>& v, const std::vector<double>& h,
                   const std::vector<double>& z) const {
  double e = 0.0;
  for (int i = 0; i < params_.visible; ++i) {
    e -= v[static_cast<size_t>(i)] * a_[static_cast<size_t>(i)];
  }
  for (int j = 0; j < params_.hidden; ++j) {
    e -= h[static_cast<size_t>(j)] * b_[static_cast<size_t>(j)];
  }
  for (int k = 0; k < params_.classes; ++k) {
    e -= z[static_cast<size_t>(k)] * c_[static_cast<size_t>(k)];
  }
  for (int i = 0; i < params_.visible; ++i) {
    for (int j = 0; j < params_.hidden; ++j) {
      e -= v[static_cast<size_t>(i)] * h[static_cast<size_t>(j)] * Wc(i, j);
    }
  }
  for (int j = 0; j < params_.hidden; ++j) {
    for (int k = 0; k < params_.classes; ++k) {
      e -= h[static_cast<size_t>(j)] * z[static_cast<size_t>(k)] * Uc(j, k);
    }
  }
  return e;
}

void Rbm::SaveState(io::Writer& w) const {
  w.BeginSection("rbm");
  w.I64(params_.visible);
  w.I64(params_.hidden);
  w.I64(params_.classes);
  w.F64(params_.learning_rate);
  w.F64(params_.discriminative_rate);
  w.I64(params_.cd_steps);
  w.F64(params_.weight_init_sigma);
  w.Bool(params_.class_balanced);
  w.F64(params_.beta);
  w.F64(params_.count_decay);
  io::WriteRng(w, rng_);
  w.F64Array(w_);
  w.F64Array(u_);
  w.F64Array(a_);
  w.F64Array(b_);
  w.F64Array(c_);
  w.F64Array(class_counts_);
  w.EndSection();
}

void Rbm::LoadState(io::Reader& r) {
  r.BeginSection("rbm");
  Params p;
  p.visible = static_cast<int>(r.I64("rbm.visible"));
  p.hidden = static_cast<int>(r.I64("rbm.hidden"));
  p.classes = static_cast<int>(r.I64("rbm.classes"));
  p.learning_rate = r.F64("rbm.learning_rate");
  p.discriminative_rate = r.F64("rbm.discriminative_rate");
  p.cd_steps = static_cast<int>(r.I64("rbm.cd_steps"));
  p.weight_init_sigma = r.F64("rbm.weight_init_sigma");
  p.class_balanced = r.Bool("rbm.class_balanced");
  p.beta = r.F64("rbm.beta");
  p.count_decay = r.F64("rbm.count_decay");
  if (p.visible <= 0 || p.hidden <= 0 || p.classes <= 0) {
    r.Fail("rbm.visible", "non-positive layer dimension");
  }
  io::ReadRngInto(r, &rng_);
  std::vector<double> w_in = r.F64Array("rbm.w");
  std::vector<double> u_in = r.F64Array("rbm.u");
  std::vector<double> a_in = r.F64Array("rbm.a");
  std::vector<double> b_in = r.F64Array("rbm.b");
  std::vector<double> c_in = r.F64Array("rbm.c");
  std::vector<double> counts_in = r.F64Array("rbm.class_counts");
  size_t v = static_cast<size_t>(p.visible);
  size_t h = static_cast<size_t>(p.hidden);
  size_t z = static_cast<size_t>(p.classes);
  if (w_in.size() != v * h || u_in.size() != h * z || a_in.size() != v ||
      b_in.size() != h || c_in.size() != z || counts_in.size() != z) {
    r.Fail("rbm.w", "weight array sizes disagree with layer dimensions " +
                        std::to_string(p.visible) + "x" +
                        std::to_string(p.hidden) + "x" +
                        std::to_string(p.classes));
  }
  params_ = p;
  w_ = std::move(w_in);
  u_ = std::move(u_in);
  a_ = std::move(a_in);
  b_ = std::move(b_in);
  c_ = std::move(c_in);
  class_counts_ = std::move(counts_in);
  r.EndSection("rbm");
}

}  // namespace ccd
