/**
 * @file
 * Fault-tolerance observability: one POD of counters/timers filled in by
 * the engine's recovery machinery (fault injector, watchdog, checkpoint
 * barrier) and a TablePrinter view for benches. Lives in metrics, not
 * runtime, so bench binaries can format recovery results without
 * linking the engine — runtime links metrics, never the reverse.
 */
#ifndef FRUGAL_METRICS_RECOVERY_METRICS_H_
#define FRUGAL_METRICS_RECOVERY_METRICS_H_

#include <cstdint>

#include "metrics/reporter.h"

namespace frugal {

/**
 * Counters harvested after Engine::Run when fault tolerance is active.
 * All zero on a fault-free run with the watchdog idle.
 */
struct RecoveryCounters
{
    /** Rule firings across all sites (from the armed FaultInjector). */
    std::uint64_t faults_injected = 0;
    /** Host-table write attempts that failed and were retried. */
    std::uint64_t write_retries = 0;
    /** Flush threads that died mid-claim (injected). */
    std::uint64_t flusher_deaths = 0;
    /** Flush threads respawned by the watchdog. */
    std::uint64_t flusher_respawns = 0;
    /** Abandoned claim tickets reclaimed (flushed or retired). */
    std::uint64_t claims_reclaimed = 0;
    /** Trainers (simulated GPUs) that died at a step boundary. */
    std::uint64_t trainer_deaths = 0;
    /** Ownership shards remapped to a surviving trainer. */
    std::uint64_t ownership_remaps = 0;
    /** Stalls the watchdog classified past its deadline. */
    std::uint64_t stalls_detected = 0;
    /** Recovery actions the watchdog completed. */
    std::uint64_t watchdog_recoveries = 0;
    /** Watchdog sampling iterations. */
    std::uint64_t watchdog_polls = 0;
    /** Consistent checkpoint barriers taken mid-run. */
    std::uint64_t checkpoint_barriers = 0;
    /** Checkpoint save attempts that failed transiently and were
     *  retried under the unified RetryPolicy. */
    std::uint64_t checkpoint_retries = 0;
    /** Wall time trainers spent gated waiting for barrier quiescence. */
    double checkpoint_pause_seconds = 0.0;
    /** Wall time spent serialising checkpoints (excluded from pause). */
    double checkpoint_save_seconds = 0.0;
    /** Wall time spent inside watchdog recovery actions. */
    double recovery_seconds = 0.0;
};

/** Renders non-trivial recovery counters as a two-column table. */
TablePrinter RecoveryTable(const RecoveryCounters &counters,
                           const std::string &caption);

/**
 * Overload/degradation counters (DESIGN.md §12): what the
 * memory-pressure monitor did during a run. All zero on a run without a
 * memory budget.
 */
struct OverloadCounters
{
    /** Pressure-stage changes observed by the monitor. */
    std::uint64_t pressure_transitions = 0;
    /** Highest pressure stage reached (0 normal / 1 elevated /
     *  2 critical). */
    std::uint32_t peak_stage = 0;
    /** Largest tracked total across arena/index/cache/staging gauges. */
    std::uint64_t peak_tracked_bytes = 0;
    /** Cache rows emergency-evicted by critical-stage shrinks. */
    std::uint64_t cache_rows_shed = 0;
};

/** Renders overload counters as a two-column table. */
TablePrinter OverloadTable(const OverloadCounters &counters,
                           const std::string &caption);

/**
 * Oracular-prefetch counters (DESIGN.md §13): what the trace-driven
 * warming and dead-key reclamation paths did during a run. All zero
 * when `oracular_prefetch` is off.
 */
struct PrefetchCounters
{
    /** Rows inserted ahead of use by the prefetcher's batch warms. */
    std::uint64_t rows_warmed = 0;
    /** Trainer lookups served by a warmed row on its first touch. */
    std::uint64_t warm_hits = 0;
    /** Rows reclaimed because their last reader had passed. */
    std::uint64_t dead_evictions = 0;
    /** Warm attempts skipped because the target step had already been
     *  reached — the prefetcher fell behind the trainers. */
    std::uint64_t late_warms = 0;
    /** Step boundaries where warming was shed by memory pressure. */
    std::uint64_t warms_shed = 0;
};

}  // namespace frugal

#endif  // FRUGAL_METRICS_RECOVERY_METRICS_H_
