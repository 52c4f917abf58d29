// Known-bad hot-path fixture: the driver runs the analyzer with
// `--hot FixtureHotLoop`, so this direct `new` and the per-record
// container copy (with no exemption tags) must be flagged as
// allocations on a hot path.

namespace frugal {

inline float *FixtureHotLoop(unsigned long n)
{
    return new float[n];  // EXPECT:hotpath-alloc
}

inline void FixtureHotLoop(const float *grad, unsigned long n,
                           std::vector<float> &out)
{
    out = std::vector<float>(grad, grad + n);  // EXPECT:hotpath-alloc
}

}  // namespace frugal
