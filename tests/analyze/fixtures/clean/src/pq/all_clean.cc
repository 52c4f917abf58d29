// All-clean fixture: the same constructs the known-bad fixtures use,
// each carrying the discipline the checks require — correctly ordered
// nested guards, an annotated member plus a tagged exemption, a
// justified relaxed load, an exempted raw atomic, a legal
// compare_exchange order pair, a retry-exempt monitor sleep, and a
// tagged hot-path allocation next to non-allocating container uses
// (run_analyze_test.py passes `--hot FixtureHotLoop` here too), and
// comparisons that must not read as calls written with template
// arguments. run_analyze_test.py asserts the analyzer reports zero
// findings for this tree.

namespace frugal {

class CleanFixture
{
  public:
    void OrderedAcquire()
    {
        SpinGuard entry(entry_lock_);
        SpinGuard row(row_lock_);  // ranks increase inward: 20 -> 40
    }

    unsigned Peek() const
    {
        // relaxed: monotonic stats counter; readers tolerate staleness.
        return stats_.load(std::memory_order_relaxed);
    }

    bool Claim()
    {
        int expected = 0;
        return slot_.compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel,
            std::memory_order_acquire);
    }

  private:
    Spinlock entry_lock_{LockRank::kGEntry};
    Spinlock row_lock_{LockRank::kTableRow};
    unsigned pending_ FRUGAL_GUARDED_BY(entry_lock_) = 0;
    // tsa-exempt: confined to the constructing thread in this fixture.
    unsigned warmup_ = 0;
    // modelcheck-exempt: stats only; never part of a lock-free protocol.
    std::atomic<unsigned> stats_{0};
    model_atomic<int> slot_{0};
};

inline void FixtureMonitorTick()
{
    // retry-exempt: monitor sampling period, not a retry backoff.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

inline void FixtureHotLoop(std::vector<float> &out)
{
    // alloc-ok: capacity pre-reserved by the caller in this fixture.
    out.push_back(1.0f);
    // Neither a bare declaration, an empty construction nor a view
    // allocates.
    std::vector<float> unused;
    out = std::vector<float>{};
    const std::span<const float> view(out.data(), out.size());
    (void)unused;
    (void)view;
}

// Allocates; the hot loop below shadows its name with a parameter.
inline void FixtureCount(std::vector<float> &out)
{
    out.reserve(16);
}

inline int FixtureHotLoop(int FixtureCount, int b, int c, int d)
{
    // Comparisons, not `FixtureCount<...>(d)` calls.
    if (FixtureCount < b && c > (d))
        return 1;
    if (FixtureCount<b || c>(d))
        return 2;
    return 0;
}

}  // namespace frugal
