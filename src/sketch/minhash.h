// MinHash sketches of subsets, in the paper's three flavors (Section 2):
//
//   * k-mins:      smallest rank in each of k independent permutations
//                  (sampling k times with replacement)
//   * bottom-k:    the k smallest ranks in one permutation
//                  (sampling k times without replacement; aka KMV)
//   * k-partition: smallest rank per bucket of a random k-way partition
//                  (the sketch HyperLogLog uses)
//
// All three support streaming updates (Update returns whether the sketch
// changed — the event HIP estimators hook into) and merging, and all are
// coordinated when built from the same RankAssignment.

#ifndef HIPADS_SKETCH_MINHASH_H_
#define HIPADS_SKETCH_MINHASH_H_

#include <cstdint>
#include <vector>

namespace hipads {

/// Sketch flavor selector used across the library.
enum class SketchFlavor { kBottomK, kKMins, kKPartition };

/// The k smallest rank values seen, kept sorted ascending.
class BottomKSketch {
 public:
  /// `sup` is the value Threshold() reports while fewer than k ranks have
  /// been seen (1.0 for uniform ranks, +inf for exponential ranks).
  explicit BottomKSketch(uint32_t k, double sup = 1.0);

  /// Offers a rank; returns true iff the sketch changed (rank < threshold
  /// and not already present — duplicate ranks of the same element must be
  /// filtered by the caller if elements can repeat).
  bool Update(double rank);

  /// kth smallest rank seen, or sup() while the sketch holds < k ranks.
  /// This is the inclusion threshold: a new rank enters iff rank < it.
  double Threshold() const;

  /// True iff `rank` is currently stored. With unique per-element ranks this
  /// doubles as an element-membership test (used to filter duplicates).
  bool Contains(double rank) const;

  /// Smallest rank (requires size() > 0).
  double Min() const { return ranks_.front(); }

  uint32_t k() const { return k_; }
  double sup() const { return sup_; }
  uint32_t size() const { return static_cast<uint32_t>(ranks_.size()); }
  const std::vector<double>& ranks() const { return ranks_; }

  void Merge(const BottomKSketch& other);

 private:
  // Ranks reserved up front: all k for a typical sketch, capped so that a
  // huge k (up to 2^32 - 1) costs memory only for the ranks actually seen
  // — the vector grows past the cap on demand.
  static uint32_t InitialCapacity(uint32_t k) {
    constexpr uint32_t kMaxInitialCapacity = 4096;
    return k < kMaxInitialCapacity ? k : kMaxInitialCapacity;
  }

  uint32_t k_;
  double sup_;
  std::vector<double> ranks_;  // sorted ascending, size <= k
};

/// Smallest rank in each of k independent permutations.
class KMinsSketch {
 public:
  explicit KMinsSketch(uint32_t k, double sup = 1.0);

  /// Offers the element's rank in permutation `perm`; true iff it became the
  /// new minimum.
  bool Update(uint32_t perm, double rank);

  uint32_t k() const { return k_; }
  double sup() const { return sup_; }
  /// Minimum rank of permutation `perm`, sup() if nothing seen.
  double Min(uint32_t perm) const { return mins_[perm]; }
  const std::vector<double>& mins() const { return mins_; }

  void Merge(const KMinsSketch& other);

 private:
  uint32_t k_;
  double sup_;
  std::vector<double> mins_;
};

/// Smallest rank in each bucket of a uniform k-way partition of elements.
class KPartitionSketch {
 public:
  explicit KPartitionSketch(uint32_t k, double sup = 1.0);

  /// Offers an element's (bucket, rank); true iff the bucket minimum fell.
  bool Update(uint32_t bucket, double rank);

  uint32_t k() const { return k_; }
  double sup() const { return sup_; }
  double Min(uint32_t bucket) const { return mins_[bucket]; }
  const std::vector<double>& mins() const { return mins_; }
  /// Number of buckets that have seen at least one element.
  uint32_t NumNonEmpty() const;

  void Merge(const KPartitionSketch& other);

 private:
  uint32_t k_;
  double sup_;
  std::vector<double> mins_;
};

}  // namespace hipads

#endif  // HIPADS_SKETCH_MINHASH_H_
