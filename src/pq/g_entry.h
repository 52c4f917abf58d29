/**
 * @file
 * The per-parameter metadata record of the P²F algorithm (§3.3).
 *
 * A g-entry tracks, for one embedding key:
 *  - the **R set**: future training steps that will read the parameter
 *    (populated by the controller's prefetch thread from the sample queue);
 *  - the **W set**: pending updates ⟨step, src GPU, Δ⟩ not yet flushed to
 *    host memory (populated by each step's registration);
 *  - the **priority** from Equation (1):
 *        priority = min(R set)   if W set ≠ ∅ and R set ≠ ∅
 *        priority = ∞            if W set = ∅ or R set = ∅.
 *
 * Concurrency contract: every mutation happens under the entry spinlock.
 * Only entries with a non-empty W set are enqueued in a FlushQueue; the
 * `enqueued` flag arbitrates between flush threads racing on lazily
 * deleted (stale) queue copies, exactly as §3.4's AdjustPriority protocol
 * requires ("dequeue operations identify an inconsistent g-entry by
 * comparing its priority with the priority of the hash table in which it
 * resides").
 */
#ifndef FRUGAL_PQ_G_ENTRY_H_
#define FRUGAL_PQ_G_ENTRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/logging.h"
#include "common/spinlock.h"
#include "common/types.h"

namespace frugal {

/**
 * One pending parameter update in a g-entry's W set. The gradient Δ is
 * not part of the record: it lives in the owning entry's row buffer
 * (GEntry::gradLocked), which the entry reuses across flushes.
 */
struct WriteRecord
{
    Step step = 0;   ///< training step that produced the gradient
    GpuId src = 0;   ///< GPU that produced it
    /** Offset of the gradient row in the owning entry's row buffer, in
     *  floats; set by GEntry::AddWriteLocked. */
    std::uint32_t grad_offset = 0;
    /** When the record was staged into the W set; flush threads report
     *  apply-time minus this as the *flush lag* (zero/default in unit
     *  tests that never read it). */
    std::chrono::steady_clock::time_point staged{};
};

/**
 * Metadata for one parameter (§3.3). Line-aligned, so two entries never
 * share a cache line: flush threads and the step-boundary registration
 * lock and write different entries concurrently.
 */
class alignas(kCacheLineSize) GEntry
{
  public:
    explicit GEntry(Key key) : key_(key) {}

    GEntry(const GEntry &) = delete;
    GEntry &operator=(const GEntry &) = delete;

    Key key() const { return key_; }

    /** The entry spinlock; callers of *Locked methods must hold it. */
    Spinlock &lock() FRUGAL_RETURN_CAPABILITY(lock_) { return lock_; }

    /**
     * Records that `step` will read this parameter. Steps must arrive in
     * non-decreasing order (the prefetcher walks the sample queue forward).
     * @return the (old, new) priority pair; callers propagate a change to
     *         the FlushQueue via OnPriorityChange.
     */
    std::pair<Priority, Priority>
    AddReadLocked(Step step) FRUGAL_REQUIRES(lock_)
    {
        FRUGAL_CHECK_MSG(r_set_.empty() || r_set_.back() <= step,
                         "reads must be registered in step order");
        if (!r_set_.empty() && r_set_.back() == step)
            return {priority_, priority_};  // dedupe within a step
        // alloc-ok: the R set keeps its capacity (one slot per pending
        // read step), so steady-state registration reuses it.
        r_set_.push_back(step);
        return RecomputePriorityLocked();
    }

    /**
     * Removes a read step (the step trained and produced its update).
     * Removing a step not present is a no-op (several GPUs may read the
     * same key in one step; only the first arrival erases it).
     */
    std::pair<Priority, Priority>
    RemoveReadLocked(Step step) FRUGAL_REQUIRES(lock_)
    {
        // Sorted by registration order; the removed step is almost
        // always the front.
        const auto it = std::lower_bound(r_set_.begin(), r_set_.end(), step);
        if (it != r_set_.end() && *it == step)
            r_set_.erase(it);
        return RecomputePriorityLocked();
    }

    /**
     * Appends a pending update to the W set and copies its gradient row
     * into the entry's row buffer (`grad` may be empty: the PQ tests
     * register rowless records).
     */
    std::pair<Priority, Priority>
    AddWriteLocked(WriteRecord record, std::span<const float> grad = {})
        FRUGAL_REQUIRES(lock_)
    {
        FRUGAL_DCHECK_MSG(w_rows_.size() <= UINT32_MAX,
                          "W-set rows outgrew WriteRecord::grad_offset");
        record.grad_offset = static_cast<std::uint32_t>(w_rows_.size());
        // alloc-ok: ClearWritesLocked keeps both buffers' capacity, so
        // they grow only when the W set outgrows its earlier peak.
        w_rows_.insert(w_rows_.end(), grad.begin(), grad.end());
        // alloc-ok: as above.
        w_set_.push_back(record);
        return RecomputePriorityLocked();
    }

    /**
     * Sorts the W set in place into the canonical (step, src) order every
     * consumer applies a parameter's updates in (keeps stateful
     * optimizers deterministic and the oracle comparison bit-exact).
     * Record r's row is gradLocked(r). The span is valid until the next
     * W-set mutation.
     */
    std::span<const WriteRecord>
    SortWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        std::sort(w_set_.begin(), w_set_.end(),
                  [](const WriteRecord &a, const WriteRecord &b) {
                      return a.step != b.step ? a.step < b.step
                                              : a.src < b.src;
                  });
        return w_set_;
    }

    /** The gradient row of a record currently in this entry's W set. */
    const float *
    gradLocked(const WriteRecord &record) const FRUGAL_REQUIRES(lock_)
    {
        return w_rows_.data() + record.grad_offset;
    }

    /**
     * Empties the W set once it has been applied, keeping the record and
     * row buffers' capacity, and recomputes the priority.
     */
    std::pair<Priority, Priority>
    ClearWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        w_set_.clear();
        w_rows_.clear();
        return RecomputePriorityLocked();
    }

    /**
     * Detaches the W set's records (in their current order) and clears
     * the rows, leaving the W set empty. The rows are dropped: code that
     * applies gradients does so in place (SortWritesLocked, gradLocked,
     * ClearWritesLocked), which also keeps the record buffer's capacity.
     */
    std::vector<WriteRecord>
    TakeWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        std::vector<WriteRecord> taken;
        taken.swap(w_set_);
        ClearWritesLocked();
        return taken;
    }

    /** Current priority (Equation (1)); read under the entry lock. */
    Priority priorityLocked() const FRUGAL_REQUIRES(lock_) { return priority_; }

    bool hasWritesLocked() const FRUGAL_REQUIRES(lock_) { return !w_set_.empty(); }
    bool hasReadsLocked() const FRUGAL_REQUIRES(lock_) { return !r_set_.empty(); }
    std::size_t readCountLocked() const FRUGAL_REQUIRES(lock_) { return r_set_.size(); }

    /** Earliest pending read, or kInfiniteStep. */
    Step
    nextReadLocked() const FRUGAL_REQUIRES(lock_)
    {
        return r_set_.empty() ? kInfiniteStep : r_set_.front();
    }

    /** Whether the entry is currently enqueued in a FlushQueue. */
    bool enqueuedLocked() const FRUGAL_REQUIRES(lock_) { return enqueued_; }
    void setEnqueuedLocked(bool v) FRUGAL_REQUIRES(lock_) { enqueued_ = v; }

  private:
    /** Re-evaluates Equation (1); returns (old, new). */
    std::pair<Priority, Priority>
    RecomputePriorityLocked() FRUGAL_REQUIRES(lock_)
    {
        const Priority old = priority_;
        if (w_set_.empty() || r_set_.empty())
            priority_ = kInfiniteStep;
        else
            priority_ = r_set_.front();
        return {old, priority_};
    }

    const Key key_;
    Spinlock lock_{LockRank::kGEntry};
    /** Pending read steps, sorted. A flat vector: an empty std::deque
     *  already holds a heap map and block per entry. */
    std::vector<Step> r_set_ FRUGAL_GUARDED_BY(lock_);
    std::vector<WriteRecord> w_set_ FRUGAL_GUARDED_BY(lock_);
    /** The W set's gradient rows, back to back (WriteRecord::grad_offset). */
    std::vector<float> w_rows_ FRUGAL_GUARDED_BY(lock_);
    Priority priority_ FRUGAL_GUARDED_BY(lock_) = kInfiniteStep;
    bool enqueued_ FRUGAL_GUARDED_BY(lock_) = false;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_G_ENTRY_H_
