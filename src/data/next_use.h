/**
 * @file
 * The next-use index over a materialized Trace — the oracle that makes
 * prefetching and eviction *oracular* (BagPipe, arXiv:2202.12429):
 * training sees its own future, so at step s the exact key set of step
 * s+k is known, the next step at which each key read at s is read again
 * is known, and keys with no future reader are known to be dead.
 *
 * Built in one backward pass over the trace, the index answers the two
 * questions the runtime asks:
 *
 *  - HintRow(s, g): for the i-th key of (step s, GPU g) in trace order,
 *    the next step (> s) at which that key is read by *any* GPU, or
 *    kNever. Parallel to Trace::KeysFor(s, g), so trainers and the
 *    prefetcher attach next-use hints to cache operations in O(1).
 *  - DeadAfter(s): the keys whose final reader is step s — eligible for
 *    zero-cost cache reclamation once s completes.
 *
 * Nothing is kept per key: the key map that carries each key's nearest
 * reads through the pass is local to the build.
 *
 * The index describes reads only; it never influences what value a key
 * holds. Consumers use it to *move* reads (warm earlier, evict dead),
 * which cannot perturb update application order — the bit-equality
 * contract every engine test asserts.
 */
#ifndef FRUGAL_DATA_NEXT_USE_H_
#define FRUGAL_DATA_NEXT_USE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace frugal {

class Trace;

/** Immutable next-use oracle over one trace. */
class NextUseIndex
{
  public:
    /** "No future use" sentinel. */
    static constexpr Step kNever = kInfiniteStep;

    /** Empty index (no steps, no keys). */
    NextUseIndex() = default;

    /** Builds the index for `trace`; equivalent to
     *  trace.BuildNextUseIndex(). */
    explicit NextUseIndex(const Trace &trace);

    std::size_t NumSteps() const { return n_steps_; }
    std::uint32_t n_gpus() const { return n_gpus_; }

    /** Number of distinct keys the trace touches (each dies exactly
     *  once, so this is the total length of the dead-after lists). */
    std::uint64_t distinct_keys() const { return dead_keys_.size(); }

    /**
     * Next-use hints for (step, gpu), parallel to
     * Trace::KeysFor(step, gpu): element i is the first step > `step`
     * at which that row's key is read by any GPU, or kNever.
     */
    std::span<const Step>
    HintRow(std::size_t step, GpuId gpu) const
    {
        const std::size_t row = step * n_gpus_ + gpu;
        return {hints_.data() + hint_offset_[row],
                hint_offset_[row + 1] - hint_offset_[row]};
    }

    /** Keys whose last reader (across all GPUs) is `step`, each listed
     *  exactly once, in first-seen trace order. */
    std::span<const Key>
    DeadAfter(std::size_t step) const
    {
        return {dead_keys_.data() + dead_offset_[step],
                dead_offset_[step + 1] - dead_offset_[step]};
    }

    /** Bytes held by the index (hint rows + dead lists). */
    std::size_t MemoryBytes() const;

  private:
    std::size_t n_steps_ = 0;
    std::uint32_t n_gpus_ = 1;

    /** Flattened hint rows, one per (step, gpu); offsets row-major. */
    std::vector<Step> hints_;
    std::vector<std::size_t> hint_offset_{0};

    /** Flattened dead-after lists, one per step. */
    std::vector<Key> dead_keys_;
    std::vector<std::size_t> dead_offset_{0};
};

}  // namespace frugal

#endif  // FRUGAL_DATA_NEXT_USE_H_
