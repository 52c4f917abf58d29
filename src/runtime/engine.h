/**
 * @file
 * The common interface of Frugal's functional training engines.
 *
 * An Engine executes a multi-GPU synchronous embedding-training run over
 * a key Trace: every simulated GPU is a real thread, every parameter is a
 * real float row, and every consistency mechanism (caches, staging board,
 * PQ, gate) runs for real. The *model* is injected as a gradient callback
 * so the same engines train microbenchmarks (Exp #1), DLRM (Exp #7) and
 * KG scorers (Exp #6) unchanged.
 *
 * Four engines implement the paper's competitor matrix (§4.1):
 *  - NoCacheEngine    — "PyTorch" / "DGL-KE": no GPU cache, every access
 *    goes to host memory through the CPU-involved path;
 *  - CachedEngine     — "HugeCTR" / "DGL-KE-cached": sharded multi-GPU
 *    cache queried through all_to_all exchanges on the critical path;
 *  - FrugalSyncEngine — Frugal with write-through flushing (§4.1's
 *    Frugal-Sync baseline);
 *  - FrugalEngine     — the full system: P²F algorithm + two-level PQ +
 *    parallel flushing (§3).
 */
#ifndef FRUGAL_RUNTIME_ENGINE_H_
#define FRUGAL_RUNTIME_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "common/stats.h"
#include "common/types.h"
#include "cache/gpu_cache.h"
#include "data/trace.h"
#include "metrics/recovery_metrics.h"
#include "models/grad_fn.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"

namespace frugal {

/** Tunables shared by every engine. */
struct EngineConfig
{
    std::uint32_t n_gpus = 2;
    std::size_t dim = 8;
    std::uint64_t key_space = 1024;

    /** Multi-GPU cache size as a fraction of all parameters (§4.1:
     *  default 5%); each GPU gets an equal share of the budget. */
    double cache_ratio = 0.05;

    /** Replacement-policy knobs for every per-GPU cache (DESIGN.md
     *  §14): segmented hot/cold eviction and TinyLFU-style frequency
     *  admission, both on by default; disabling both restores the
     *  legacy single-list LRU the §4.1 competitor engines model. */
    GpuCacheOptions cache_options;

    /** Prefetch lookahead L (§3.2: default 10). */
    std::size_t lookahead = 10;

    /**
     * Oracular lookahead (FrugalEngine only; DESIGN.md §13): the
     * prefetcher additionally *warms* each owner GPU's cache with the
     * rows future steps will read (batch host gathers, cold-end
     * inserts), eviction turns next-use-aware (Belady within the
     * lookahead window), and keys whose last reader has passed are
     * reclaimed at step boundaries. Warming only moves reads earlier —
     * trained parameters stay bit-identical to the sequential oracle.
     * Under memory pressure warming is the first mechanism shed
     * (before lookahead narrows, before caches shrink).
     */
    bool oracular_prefetch = true;

    /** Background flushing threads (§4.1: default 8). */
    std::size_t flush_threads = 8;

    /** Entries claimed per dequeue (batched dequeue, §3.4). */
    std::size_t flush_batch = 8;

    /** Dequeue shards per PQ bucket (FrugalEngine only):
     *  each flush thread drains its own shard first, so concurrent
     *  dequeues scan disjoint slot sets. 0 = one shard per flush
     *  thread; 1 = the unsharded legacy layout. */
    std::size_t pq_shards = 0;

    /**
     * Optional memory-pressure monitor (FrugalEngine only); the caller
     * owns it and keeps it alive across Run. When set, the engine
     * publishes its component byte gauges (registry arena/index, GPU
     * caches, staging board) into the budget every monitor period and
     * applies staged degradation reactions on pressure transitions:
     * elevated sheds prefetch lookahead and flush coalescing width;
     * critical additionally shrinks the GPU caches online
     * (GpuCache::Resize). See DESIGN.md §12.2.
     */
    MemoryBudget *memory_budget = nullptr;

    /** Pressure monitor sampling period. */
    int memory_poll_ms = 2;

    /** "sgd" or "adagrad". */
    std::string optimizer = "sgd";
    float learning_rate = 0.05f;

    /** Embedding init. */
    std::uint64_t init_seed = 42;
    float init_scale = 0.01f;

    /** When true, every read is audited against invariant (2); violations
     *  are counted in the report (tests assert zero). */
    bool audit_consistency = false;

    /**
     * UNSAFE ablation: skip the P²F gate's PQ check, turning training
     * asynchronous — reads may observe parameters with unflushed
     * updates, exactly the staleness §3 argues degrades accuracy. Kept
     * to demonstrate *why* the gate exists; never use for real training.
     */
    bool disable_gate_unsafe = false;

    /** Fault injection: artificial delay added per flushed g-entry
     *  (simulates a slow host-memory path / overloaded flusher). */
    int flush_delay_us = 0;

    /**
     * Simulated UVA gather latency, per row read from host memory
     * (FrugalEngine only; 0 = off). On real hardware a scattered
     * host-memory gather over PCIe is latency-bound (~µs per
     * transaction) while a GPU-cache hit is an HBM access — an
     * asymmetry the functional engine's memcpy-for-memcpy reads erase.
     * Trainer-side host reads pay this inline (amortized into sleep
     * quanta so timer overshoot doesn't distort the model); the
     * oracular prefetcher's warm gathers pay it as sleeps off the
     * critical path, modeling DMA transfers that block the requesting
     * kernel but burn no host CPU. Timing-only: trained parameters are
     * unaffected. bench_prefetch sets this for its ablation grid.
     */
    int host_gather_ns = 0;

    /** Optional armed fault injector (FrugalEngine only); the caller
     *  owns it and keeps it alive across Run. */
    FaultInjector *fault_injector = nullptr;

    /** Sampling period and no-progress deadline of the stall watchdog
     *  that runs alongside the pipeline (FrugalEngine). */
    int watchdog_poll_ms = 10;
    int watchdog_stall_ms = 2000;

    /**
     * Take a consistent checkpoint every N steps (0 = never). The
     * barrier runs at the step boundary: trainers are held, the staging
     * board + PQ + in-flight claims drain, then the table, optimizer state and
     * trace cursor are snapshotted to `checkpoint_path`.
     */
    std::size_t checkpoint_every_steps = 0;
    std::string checkpoint_path;

    /** Per-GPU cache capacity in rows implied by the ratio. */
    std::size_t
    CacheRowsPerGpu() const
    {
        const double total =
            cache_ratio * static_cast<double>(key_space);
        const double per_gpu = total / static_cast<double>(n_gpus);
        return per_gpu < 1.0 ? 1 : static_cast<std::size_t>(per_gpu);
    }
};

/** Outcome and instrumentation of one engine run. */
struct RunReport
{
    std::string engine;
    std::size_t steps = 0;
    std::uint32_t n_gpus = 0;
    double wall_seconds = 0.0;

    /** Gate/stall seconds per step, one sample per (trainer, step),
     *  merged across trainers. */
    StatAccumulator stall_per_step;
    double stall_seconds_total = 0.0;

    /** Flush lag: staging-to-commit latency of applied update runs
     *  (seconds; 1-in-16 sampled), merged across flush threads and
     *  cooperative-flush trainer applies. Populated by FrugalEngine. */
    Histogram flush_lag;

    /** Merged cache counters across GPUs. */
    GpuCacheStats cache;

    std::uint64_t host_reads = 0;        ///< rows fetched from host memory
    std::uint64_t remote_cache_queries = 0;  ///< cross-GPU cache lookups
                                             ///< (CachedEngine's a2a)
    std::uint64_t updates_emitted = 0;   ///< ⟨key,step,Δ⟩ records produced
    std::uint64_t updates_applied = 0;   ///< records committed to host
    std::uint64_t flush_entry_claims = 0;///< g-entries claimed by flushers
    std::uint64_t audit_violations = 0;  ///< invariant (2) breaches seen
    std::uint64_t gate_waits = 0;        ///< steps that actually blocked

    /** Fault-tolerance counters (all zero on a fault-free run). */
    RecoveryCounters recovery;

    /** Backpressure/memory-pressure counters (zero without a bound or
     *  budget). */
    OverloadCounters overload;

    /** Oracular warming/reclamation counters (zero with
     *  `oracular_prefetch` off). */
    PrefetchCounters prefetch;

    /** Pressure stage in force when the run finished. */
    PressureStage final_pressure_stage = PressureStage::kNormal;
};

/** A functional multi-GPU training engine. */
class Engine
{
  public:
    explicit Engine(const EngineConfig &config);
    virtual ~Engine() = default;

    /** Executes the whole trace; the table retains the trained model. */
    virtual RunReport Run(const Trace &trace, const GradFn &grad_fn,
                          const StepHook &step_hook = {}) = 0;

    virtual std::string Name() const = 0;

    const EngineConfig &config() const { return config_; }
    HostEmbeddingTable &table() { return *table_; }
    const HostEmbeddingTable &table() const { return *table_; }
    Optimizer &optimizer() { return *optimizer_; }

    /** Restores initial parameters (and optimizer state) for a rerun
     *  and clears the resume cursor. */
    void ResetParameters();

    /**
     * Restores a mid-training checkpoint (table rows, optimizer state,
     * trace cursor) saved by a checkpoint barrier. Validates that the
     * file's optimizer matches this engine's before touching anything.
     * The cursor is kept as the global step of the next Run's first
     * trace step, so that run's own checkpoints store global cursors.
     * @return the global step the resumed run should execute first, or
     *         nullopt if the checkpoint is missing/corrupt/mismatched
     *         (engine state is untouched).
     */
    std::optional<Step> ResumeFrom(const std::string &path);

  protected:
    EngineConfig config_;
    std::unique_ptr<HostEmbeddingTable> table_;
    std::unique_ptr<Optimizer> optimizer_;
    KeyOwnership ownership_;
    /** Global step of the next Run's first trace step (ResumeFrom). */
    Step resume_cursor_ = 0;
};

/** Builds an engine by name: "frugal", "frugal-sync", "cached",
 *  "nocache". */
std::unique_ptr<Engine> MakeEngine(const std::string &name,
                                   const EngineConfig &config);

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_ENGINE_H_
