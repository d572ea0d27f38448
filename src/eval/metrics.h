#ifndef CCD_EVAL_METRICS_H_
#define CCD_EVAL_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/confusion.h"

namespace ccd {

/// Sliding-window prequential metrics for multi-class imbalanced streams:
/// pmAUC (prequential multi-class AUC, the windowed one-vs-one average AUC
/// of Wang & Minku) and pmGM (windowed geometric mean of class recalls),
/// plus accuracy and Cohen's kappa. The paper evaluates with window
/// W = 1000.
///
/// The window is a preallocated ring and the per-true-class buckets pmAUC
/// needs are maintained incrementally on Add/evict, so an evaluation tick
/// never re-scans or re-buckets the window and a steady-state Add performs
/// no heap allocation (entry slots and score vectors are reused in place).
/// Peak memory is bounded at construction: window entries plus one
/// window-sized index ring per class.
class WindowedMetrics {
 public:
  WindowedMetrics(int num_classes, int window = 1000);

  /// Records one prequential outcome (scores are the classifier's
  /// normalized per-class supports for the instance). Allocation-free once
  /// the window has filled and score widths have stabilized.
  void Add(int truth, int predicted, const std::vector<double>& scores);

  /// pmAUC over the current window: mean over ordered class pairs (i < j),
  /// restricted to pairs with at least one instance of each class, of the
  /// pairwise AUC computed from normalized score ratios. A pair with n_i
  /// and n_j window entries costs O((n_i + n_j) log min(n_i, n_j)) (see
  /// BinaryAuc), so a call is O(K W log W) at worst and close to O(K W)
  /// when most classes are rare — call at a sampling interval, not per
  /// instance.
  double PmAuc() const;

  /// pmGM over the current window (Laplace-smoothed recalls; see
  /// ConfusionMatrix::GMeanSmoothed for why).
  double PmGMean() const { return confusion_.GMeanSmoothed(); }
  double Accuracy() const { return confusion_.Accuracy(); }
  double Kappa() const { return confusion_.Kappa(); }

  size_t size() const { return ring_.size(); }
  const ConfusionMatrix& confusion() const { return confusion_; }

  /// One windowed outcome. Public so the monitoring engine can snapshot
  /// the window contents for shard handoff (prefix-state transfer).
  struct Entry {
    int truth;
    int predicted;
    std::vector<double> scores;

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.truth == b.truth && a.predicted == b.predicted &&
             a.scores == b.scores;
    }
    friend bool operator!=(const Entry& a, const Entry& b) { return !(a == b); }
  };

  /// Appends the window contents, oldest first, to `out`. Together with
  /// the schema this is the complete metric state of a run at a point in
  /// time (the linearized form of the internal ring).
  void CopyWindow(std::vector<Entry>* out) const;

 private:
  /// Fixed-capacity FIFO of ring-slot indices — the per-class bucket.
  /// Capacity is the window size (a single class can own the whole
  /// window), so push/pop never allocate.
  struct SlotRing {
    std::vector<uint32_t> slots;
    size_t head = 0;
    size_t count = 0;

    void PushBack(uint32_t slot) {
      slots[(head + count) % slots.size()] = slot;
      ++count;
    }
    void PopFront() {
      head = (head + 1) % slots.size();
      --count;
    }
    uint32_t At(size_t i) const { return slots[(head + i) % slots.size()]; }
  };

  int num_classes_;
  int window_;
  /// Window entries in a ring: ring_[(head_ + k) % window_] is the k-th
  /// oldest. Grows by push_back only while filling (head_ == 0), then
  /// entries are overwritten in place.
  std::vector<Entry> ring_;
  size_t head_ = 0;
  ConfusionMatrix confusion_;
  /// bucket_[c] lists the ring slots whose entry has truth c, oldest
  /// first — maintained incrementally so PmAuc never re-buckets.
  std::vector<SlotRing> bucket_;
  /// PmAuc scratch (reused across pairs and calls; no metric state).
  mutable std::vector<double> pos_scratch_;
  mutable std::vector<double> neg_scratch_;
  mutable std::vector<double> sorted_scratch_;
};

/// AUC of binary scores-vs-labels via the rank-sum estimator (midranks for
/// ties). `positive_scores` are scores of true positives; `negative_scores`
/// of true negatives. Returns 0.5 when either side is empty. Counts the
/// Mann-Whitney U by sorting the smaller side and binary-searching the
/// larger side's scores into it: O((n_pos + n_neg) log min(n_pos, n_neg)),
/// bit-identical to pooling, sorting and summing midranks. NaN scores have
/// no rank, so their result is unspecified.
double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores);

/// Scratch-buffer overload for allocation-free callers: `sorted` is
/// overwritten with the smaller side's sorted scores (capacity persists
/// across calls).
double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores,
                 std::vector<double>& sorted);

}  // namespace ccd

#endif  // CCD_EVAL_METRICS_H_
