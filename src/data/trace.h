/**
 * @file
 * Key traces: the per-step, per-GPU embedding key lists every engine
 * consumes. A trace is the engine-facing distillation of a workload —
 * the controller's sample queue prefetches from it (§3.2: "Frugal
 * prefetches all IDs of L steps in the future"), trainers gather and
 * update exactly its keys, and the timing simulator replays it against
 * the cost model.
 *
 * Keys are deduplicated within each (step, GPU) sub-batch: real systems
 * unique() a batch's IDs before the cache lookup, and one aggregated
 * gradient per key per GPU per step is produced.
 */
#ifndef FRUGAL_DATA_TRACE_H_
#define FRUGAL_DATA_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/distribution.h"
#include "common/rng.h"
#include "common/types.h"
#include "data/kg_dataset.h"
#include "data/rec_dataset.h"

namespace frugal {

class NextUseIndex;

/** The keys one synchronous step touches, split by GPU. */
struct StepKeys
{
    /** Deduplicated keys per GPU; size == n_gpus. */
    std::vector<std::vector<Key>> per_gpu;

    std::size_t
    TotalKeys() const
    {
        std::size_t total = 0;
        for (const auto &keys : per_gpu)
            total += keys.size();
        return total;
    }
};

/** Aggregate shape statistics of a trace (used by reports and tests). */
struct TraceStats
{
    std::size_t steps = 0;
    std::uint32_t n_gpus = 0;
    std::uint64_t total_key_accesses = 0;
    std::uint64_t distinct_keys = 0;
    double mean_keys_per_step = 0.0;
};

/** An immutable multi-GPU key trace. */
class Trace
{
  public:
    Trace(std::vector<StepKeys> steps, std::uint64_t key_space,
          std::uint32_t n_gpus)
        : steps_(std::move(steps)), key_space_(key_space), n_gpus_(n_gpus)
    {
    }

    /**
     * Synthetic trace (§4.1 "synthetic workloads"): each GPU draws
     * `keys_per_gpu` keys per step from `dist`, deduplicated.
     */
    static Trace Synthetic(KeyDistribution &dist, Rng &rng,
                           std::size_t steps, std::uint32_t n_gpus,
                           std::size_t keys_per_gpu);

    /**
     * Trace of a DLRM run over a synthetic CTR dataset: each GPU takes
     * `samples_per_gpu` samples per step, each contributing one key per
     * feature field.
     */
    static Trace FromRec(RecDatasetGenerator &gen, std::size_t steps,
                         std::uint32_t n_gpus,
                         std::size_t samples_per_gpu);

    /**
     * Trace of a KG-embedding run: each GPU takes `samples_per_gpu`
     * positive triples per step, each with its negatives.
     */
    static Trace FromKg(KgDatasetGenerator &gen, std::size_t steps,
                        std::uint32_t n_gpus,
                        std::size_t samples_per_gpu);

    std::size_t NumSteps() const { return steps_.size(); }
    std::uint32_t n_gpus() const { return n_gpus_; }
    std::uint64_t key_space() const { return key_space_; }

    const StepKeys &StepAt(std::size_t s) const { return steps_[s]; }
    const std::vector<Key> &
    KeysFor(std::size_t step, GpuId gpu) const
    {
        return steps_[step].per_gpu[gpu];
    }

    TraceStats Stats() const;

    /**
     * The sub-trace covering steps [begin, end) — what a resumed run
     * replays after restoring a checkpoint whose cursor is `begin`.
     * `end` is clamped to NumSteps().
     */
    Trace Slice(std::size_t begin, std::size_t end) const;

    /**
     * Precomputes the next-use oracle over this trace (next-use hints
     * and dead-after lists); see data/next_use.h. One backward pass
     * over the materialized future — the basis for oracular cache
     * warming and Belady-style eviction.
     */
    NextUseIndex BuildNextUseIndex() const;

  private:
    std::vector<StepKeys> steps_;
    std::uint64_t key_space_;
    std::uint32_t n_gpus_;
};

/** Deduplicates a key list in place, preserving first-seen order. */
void DedupeKeys(std::vector<Key> &keys);

}  // namespace frugal

#endif  // FRUGAL_DATA_TRACE_H_
