/**
 * @file
 * Lightweight statistics accumulators: running mean/min/max/stddev and a
 * fixed-bucket latency histogram with percentile queries. These back the
 * per-phase breakdowns reported by every benchmark (Fig. 3c, Fig. 12).
 */
#ifndef FRUGAL_COMMON_STATS_H_
#define FRUGAL_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"

namespace frugal {

/** Welford-style scalar accumulator. */
class StatAccumulator
{
  public:
    void
    Add(double x)
    {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    void
    Merge(const StatAccumulator &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double delta = other.mean_ - mean_;
        const auto n1 = static_cast<double>(count_);
        const auto n2 = static_cast<double>(other.count_);
        const double n = n1 + n2;
        m2_ += other.m2_ + delta * delta * n1 * n2 / n;
        mean_ = (n1 * mean_ + n2 * other.mean_) / n;
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    double
    variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    void Reset() { *this = StatAccumulator(); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Log-scaled histogram for latency-like values. Buckets are
 * `[base * growth^i, base * growth^(i+1))`; percentile queries
 * interpolate linearly within the bucket that crosses the target rank,
 * clamped to the observed min/max so single-value and narrow
 * distributions report exact endpoints.
 *
 * Default resolution: 5% buckets (growth 1.05) spanning 1 ns .. ~700 s
 * in 560 buckets. The previous 25% buckets (growth 1.25) collapsed
 * nearby tail percentiles onto one bucket boundary — flush-lag
 * p50/p95 values read byte-identical across unrelated configurations,
 * hiding any sub-25% tail regression.
 */
class Histogram
{
  public:
    explicit Histogram(double base = 1e-9, double growth = 1.05,
                       std::size_t buckets = 560)
        : base_(base), growth_(growth), counts_(buckets, 0)
    {
    }

    void
    Add(double x)
    {
        all_.Add(x);
        counts_[BucketFor(x)]++;
    }

    std::uint64_t count() const { return all_.count(); }
    double mean() const { return all_.mean(); }
    double max() const { return all_.max(); }
    double min() const { return all_.min(); }

    /** Value at percentile `p` in [0, 100]. */
    double
    Percentile(double p) const
    {
        if (all_.count() == 0)
            return 0.0;
        const double target = p / 100.0 * static_cast<double>(all_.count());
        double seen = 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            const auto in_bucket = static_cast<double>(counts_[i]);
            if (in_bucket > 0.0 && seen + in_bucket >= target) {
                // Interpolate the rank's position within the bucket,
                // assuming mass is spread uniformly across it.
                const double frac = std::clamp(
                    (target - seen) / in_bucket, 0.0, 1.0);
                const double low = BucketLow(i);
                const double value = low + frac * (low * growth_ - low);
                return std::clamp(value, all_.min(), all_.max());
            }
            seen += in_bucket;
        }
        return all_.max();
    }

    /** Folds another histogram in; bucket layouts must match (same
     *  base/growth/bucket count), as they do for per-thread instances of
     *  the same metric merged at join time. */
    void
    Merge(const Histogram &other)
    {
        FRUGAL_DCHECK(base_ == other.base_ && growth_ == other.growth_ &&
                      counts_.size() == other.counts_.size());
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        all_.Merge(other.all_);
    }

    void
    Reset()
    {
        all_.Reset();
        std::fill(counts_.begin(), counts_.end(), 0);
    }

  private:
    std::size_t
    BucketFor(double x) const
    {
        if (x <= base_)
            return 0;
        const auto idx = static_cast<std::size_t>(
            std::log(x / base_) / std::log(growth_));
        return std::min(idx, counts_.size() - 1);
    }

    double
    BucketLow(std::size_t i) const
    {
        return base_ * std::pow(growth_, static_cast<double>(i));
    }

    double base_;
    double growth_;
    std::vector<std::uint64_t> counts_;
    StatAccumulator all_;
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_STATS_H_
