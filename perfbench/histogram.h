// Log-linear latency histogram with at most 1/128 (0.78%) relative error.
//
// Values below 128 are kept exactly; above, every power-of-two range is
// split into 128 equal buckets. Memory is fixed (40 KiB, on the heap)
// whatever the run length, so the benchmark's own bookkeeping does not
// grow with the throughput it measures. Quantiles interpolate by rank inside the
// bucket, so they stay continuous rather than snapping to bucket edges.

#ifndef CACTIS_PERFBENCH_HISTOGRAM_H_
#define CACTIS_PERFBENCH_HISTOGRAM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kOctaves = 40;  // up to 2^47 ns, about 39 hours
  static constexpr size_t kBuckets = kSub + kOctaves * kSub;

  void Add(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }

  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank quantile, q in (0, 1], interpolated inside its bucket.
  /// 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    double rank = std::ceil(q * static_cast<double>(count_));
    if (rank < 1) rank = 1;
    uint64_t target = static_cast<uint64_t>(rank);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (seen + buckets_[i] >= target) {
        const double within = (static_cast<double>(target - seen) - 0.5) /
                              static_cast<double>(buckets_[i]);
        return static_cast<double>(Lower(i)) +
               within * static_cast<double>(Width(i));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

  /// The highest quantile with at least `beyond` samples above it
  /// (1 - beyond/n), or 0 when the sample is too small for any.
  double HighestSupportedQuantile(uint64_t beyond = 10) const {
    if (count_ <= beyond) return 0;
    return 1.0 - static_cast<double>(beyond) / static_cast<double>(count_);
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = std::bit_width(v) - 1;  // e >= kSubBits
    if (e - kSubBits >= kOctaves) return kBuckets - 1;
    const int shift = e - kSubBits;
    return static_cast<size_t>(kSub + shift * kSub + ((v >> shift) - kSub));
  }
  static uint64_t Lower(size_t i) {
    if (i < kSub) return i;
    const size_t shift = (i - kSub) / kSub;
    return (kSub + (i - kSub) % kSub) << shift;
  }
  static uint64_t Width(size_t i) {
    if (i < kSub) return 1;
    return uint64_t{1} << ((i - kSub) / kSub);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // CACTIS_PERFBENCH_HISTOGRAM_H_
