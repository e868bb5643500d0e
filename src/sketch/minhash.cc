#include "sketch/minhash.h"

#include <algorithm>
#include <cassert>

namespace hipads {

BottomKSketch::BottomKSketch(uint32_t k, double sup) : k_(k), sup_(sup) {
  assert(k >= 1);
  ranks_.reserve(InitialCapacity(k));
}

bool BottomKSketch::Update(double rank) {
  assert(rank < sup_);
  if (rank >= Threshold()) return false;
  auto it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  ranks_.insert(it, rank);
  if (ranks_.size() > k_) ranks_.pop_back();
  return true;
}

double BottomKSketch::Threshold() const {
  return ranks_.size() < k_ ? sup_ : ranks_.back();
}

bool BottomKSketch::Contains(double rank) const {
  return std::binary_search(ranks_.begin(), ranks_.end(), rank);
}

void BottomKSketch::Merge(const BottomKSketch& other) {
  assert(k_ == other.k_);
  for (double r : other.ranks_) Update(r);
}

KMinsSketch::KMinsSketch(uint32_t k, double sup)
    : k_(k), sup_(sup), mins_(k, sup) {
  assert(k >= 1);
}

bool KMinsSketch::Update(uint32_t perm, double rank) {
  assert(perm < k_);
  if (rank >= mins_[perm]) return false;
  mins_[perm] = rank;
  return true;
}

void KMinsSketch::Merge(const KMinsSketch& other) {
  assert(k_ == other.k_);
  for (uint32_t i = 0; i < k_; ++i) {
    mins_[i] = std::min(mins_[i], other.mins_[i]);
  }
}

KPartitionSketch::KPartitionSketch(uint32_t k, double sup)
    : k_(k), sup_(sup), mins_(k, sup) {
  assert(k >= 1);
}

bool KPartitionSketch::Update(uint32_t bucket, double rank) {
  assert(bucket < k_);
  if (rank >= mins_[bucket]) return false;
  mins_[bucket] = rank;
  return true;
}

uint32_t KPartitionSketch::NumNonEmpty() const {
  uint32_t c = 0;
  for (double m : mins_) {
    if (m < sup_) ++c;
  }
  return c;
}

void KPartitionSketch::Merge(const KPartitionSketch& other) {
  assert(k_ == other.k_);
  for (uint32_t i = 0; i < k_; ++i) {
    mins_[i] = std::min(mins_[i], other.mins_[i]);
  }
}

}  // namespace hipads
