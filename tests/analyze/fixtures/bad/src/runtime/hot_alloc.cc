// Known-bad hot-path fixture: the driver runs the analyzer with
// `--hot FixtureHotLoop`, so this direct `new`, the per-record
// container copy and the call into an allocating helper written with
// explicit template arguments (with no exemption tags) must be flagged
// as allocations on a hot path.

namespace frugal {

template <typename T>
inline void FixtureGrow(std::vector<T> &out, T v)
{
    out.push_back(v);
}

inline float *FixtureHotLoop(unsigned long n)
{
    return new float[n];  // EXPECT:hotpath-alloc
}

inline void FixtureHotLoop(const float *grad, unsigned long n,
                           std::vector<float> &out)
{
    out = std::vector<float>(grad, grad + n);  // EXPECT:hotpath-alloc
}

inline void FixtureHotLoop(std::vector<int> &out)
{
    FixtureGrow<int>(out, 1);  // EXPECT:hotpath-alloc
}

}  // namespace frugal
