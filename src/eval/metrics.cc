#include "eval/metrics.h"

#include <algorithm>
#include <cstdint>

namespace ccd {

double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores) {
  std::vector<double> sorted;
  return BinaryAuc(positive_scores, negative_scores, sorted);
}

double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores,
                 std::vector<double>& sorted) {
  if (positive_scores.empty() || negative_scores.empty()) return 0.5;
  // The rank-sum numerator rank_sum_pos - n_pos(n_pos+1)/2 with midranks
  // is the Mann-Whitney U: #{pos > neg} + #{pos == neg}/2 over all pairs.
  // Count it by sorting only the smaller side and binary-searching each
  // score of the larger side into it. 2U is an integer, so U is exact and
  // the division below is bit-identical to the pool-sort-midrank form.
  const bool pos_smaller = positive_scores.size() <= negative_scores.size();
  const std::vector<double>& small =
      pos_smaller ? positive_scores : negative_scores;
  const std::vector<double>& large =
      pos_smaller ? negative_scores : positive_scores;
  sorted.assign(small.begin(), small.end());
  std::sort(sorted.begin(), sorted.end());
  // Pairs whose smaller-side score is below / equal to the larger side's.
  uint64_t below = 0, ties = 0;
  for (double s : large) {
    const auto [lo, hi] = std::equal_range(sorted.begin(), sorted.end(), s);
    below += static_cast<uint64_t>(lo - sorted.begin());
    ties += static_cast<uint64_t>(hi - lo);
  }
  const uint64_t pairs =
      static_cast<uint64_t>(small.size()) * static_cast<uint64_t>(large.size());
  const uint64_t twice_u =
      pos_smaller ? 2 * (pairs - below) - ties : 2 * below + ties;
  double np = static_cast<double>(positive_scores.size());
  double nn = static_cast<double>(negative_scores.size());
  return 0.5 * static_cast<double>(twice_u) / (np * nn);
}

WindowedMetrics::WindowedMetrics(int num_classes, int window)
    : num_classes_(num_classes), window_(window), confusion_(num_classes) {
  if (window_ > 0) {
    ring_.reserve(static_cast<size_t>(window_));
  }
  // Buckets exist even for a degenerate (<= 0) window: PmAuc indexes
  // bucket_[c] for every class unconditionally. Their slot rings are
  // empty then — Add never stores, so counts stay 0.
  bucket_.resize(static_cast<size_t>(num_classes_ > 0 ? num_classes_ : 0));
  for (SlotRing& b : bucket_) {
    b.slots.resize(static_cast<size_t>(window_ > 0 ? window_ : 0));
  }
}

void WindowedMetrics::Add(int truth, int predicted,
                          const std::vector<double>& scores) {
  if (window_ <= 0) {
    // Degenerate window: the entry enters and leaves immediately, exactly
    // as in the naive push-then-evict formulation.
    confusion_.Add(truth, predicted);
    confusion_.Remove(truth, predicted);
    return;
  }
  confusion_.Add(truth, predicted);
  uint32_t slot;
  if (ring_.size() < static_cast<size_t>(window_)) {
    // Filling: head_ is still 0, so physical == logical order.
    slot = static_cast<uint32_t>(ring_.size());
    ring_.push_back(Entry{truth, predicted, scores});
  } else {
    // Full: the oldest entry (at head_) is evicted and its slot reused for
    // the newcomer, which thereby becomes the logical back.
    slot = static_cast<uint32_t>(head_);
    Entry& old = ring_[head_];
    confusion_.Remove(old.truth, old.predicted);
    if (old.truth >= 0 && old.truth < num_classes_) {
      // The globally oldest entry is also the oldest of its class.
      bucket_[static_cast<size_t>(old.truth)].PopFront();
    }
    old.truth = truth;
    old.predicted = predicted;
    old.scores = scores;  // Copy-assign reuses the slot's capacity.
    head_ = (head_ + 1) % static_cast<size_t>(window_);
  }
  if (truth >= 0 && truth < num_classes_) {
    bucket_[static_cast<size_t>(truth)].PushBack(slot);
  }
}

double WindowedMetrics::PmAuc() const {
  double auc_sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < num_classes_; ++i) {
    const SlotRing& bi = bucket_[static_cast<size_t>(i)];
    if (bi.count == 0) continue;
    for (int j = i + 1; j < num_classes_; ++j) {
      const SlotRing& bj = bucket_[static_cast<size_t>(j)];
      if (bj.count == 0) continue;
      // One-vs-one AUC between classes i (positive) and j (negative),
      // scoring each instance by its normalized support for class i.
      // Stored score vectors may be shorter than num_classes (a classifier
      // that scores only the classes it has seen, or none at all); a class
      // with no stored score has zero support.
      auto support = [](const Entry& e, int c) {
        return static_cast<size_t>(c) < e.scores.size()
                   ? e.scores[static_cast<size_t>(c)]
                   : 0.0;
      };
      auto score_ratio = [&](const Entry& e) {
        double si = support(e, i);
        double sj = support(e, j);
        double denom = si + sj;
        return denom > 0.0 ? si / denom : 0.5;
      };
      pos_scratch_.clear();
      neg_scratch_.clear();
      for (size_t n = 0; n < bi.count; ++n) {
        pos_scratch_.push_back(score_ratio(ring_[bi.At(n)]));
      }
      for (size_t n = 0; n < bj.count; ++n) {
        neg_scratch_.push_back(score_ratio(ring_[bj.At(n)]));
      }
      auc_sum += BinaryAuc(pos_scratch_, neg_scratch_, sorted_scratch_);
      ++pairs;
    }
  }
  return pairs > 0 ? auc_sum / pairs : 0.5;
}

void WindowedMetrics::CopyWindow(std::vector<Entry>* out) const {
  const size_t n = ring_.size();
  out->reserve(out->size() + n);
  for (size_t k = 0; k < n; ++k) {
    out->push_back(ring_[(head_ + k) % n]);
  }
}

}  // namespace ccd
