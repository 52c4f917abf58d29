/**
 * @file
 * Clock, metric and span records shared by the benchmark's files.
 */
#ifndef FRUGAL_PERFBENCH_BENCH_UTIL_H_
#define FRUGAL_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock time in nanoseconds. */
inline std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A finished span; `name` points at a string literal. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/** One thread's spans, preallocated so that recording never allocates;
 *  spans beyond the capacity are dropped. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

    void
    Record(const char *name, std::int64_t start_ns, std::int64_t end_ns)
    {
        if (spans_.size() < spans_.capacity())
            spans_.push_back(Span{name, start_ns, end_ns});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // FRUGAL_PERFBENCH_BENCH_UTIL_H_
