/**
 * @file
 * Stall watchdog for the Frugal runtime.
 *
 * The engine's liveness rests on a chain of producers: trainers emit
 * updates, the step boundary registers them, flush threads apply them,
 * and the gate reopens. A dead flush thread (claims never flushed)
 * silently freezes the whole pipeline — the gate predicate
 * `HasPendingAtOrBelow(s)` never clears, trainers wait forever, and
 * nothing reports why. The Watchdog is a sampling thread that
 * (a) detects lack of progress past a deadline, (b) classifies the
 * stall from a progress snapshot, (c) dumps a diagnosis, and (d) hands
 * definitive failures (dead flush threads) to a recovery callback.
 *
 * Design rules:
 *  - Sampling must be non-intrusive: the snapshot callback reads
 *    atomics and leaf-ranked slot ledgers only, never a lock of rank
 *    ≥ kGEntry (see common/lock_rank.h) — a stalled flush thread can
 *    hold entry locks, and the diagnoser must never block on it.
 *  - Recovery triggers only on *definitive* evidence (a flusher's
 *    `dead` flag), never on timing alone. Under TSan or on a loaded
 *    machine a healthy run can blow any deadline; reclaiming claims
 *    from a merely-slow thread would corrupt in-flight accounting.
 *    Timing drives detection and diagnosis logging only.
 */
#ifndef FRUGAL_RUNTIME_WATCHDOG_H_
#define FRUGAL_RUNTIME_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/types.h"
#include "metrics/recovery_metrics.h"

namespace frugal {

/** What the engine looked like at one watchdog sample. */
struct ProgressSnapshot
{
    Step current_step = 0;
    Step prefetch_frontier = 0;
    /** Records registered into g-entries (a step counts at its
     *  boundary). */
    std::uint64_t updates_emitted = 0;
    std::uint64_t updates_applied = 0;
    std::size_t pq_size = 0;
    /** Flush threads whose slots are flagged dead. */
    std::size_t dead_flushers = 0;
    /** Claim tickets sitting in dead flushers' ledgers. */
    std::size_t abandoned_claims = 0;
    /** True once the run's wind-down has begun. */
    bool run_complete = false;

    /** True iff any forward-progress field differs from `other`. */
    bool AdvancedSince(const ProgressSnapshot &other) const;
};

/** The watchdog's classification of a stuck pipeline. */
enum class StallKind {
    kNone = 0,
    /** A flush thread is flagged dead (definitive; recoverable). */
    kDeadFlusher,
    /** Work is claimed (emitted > applied, PQ drained) but nobody is
     *  flushing it — claims leaked without a dead flag. */
    kClaimLeak,
    /** Pipeline is empty yet idle — likely a lost gate wakeup. */
    kEmptyQueueIdle,
    kUnknown,
};

const char *StallKindName(StallKind kind);

/**
 * A sampling thread that detects, classifies, and recovers stalls.
 * Callbacks run on the watchdog thread; the engine provides them as
 * closures over its run-scoped state and keeps that state alive until
 * Stop() returns.
 */
class Watchdog
{
  public:
    struct Config
    {
        /** Sampling period. */
        std::chrono::milliseconds poll{10};
        /** No-progress duration after which a stall is declared. */
        std::chrono::milliseconds stall_deadline{2000};
    };

    using SnapshotFn = std::function<ProgressSnapshot()>;
    /** Attempts recovery for `kind`; returns true if action was taken. */
    using RecoverFn = std::function<bool(StallKind)>;
    /** Renders a multi-line diagnosis dump (PQ top, bucket counts...). */
    using DiagnoseFn = std::function<std::string()>;

    Watchdog(Config config, SnapshotFn snapshot, RecoverFn recover,
             DiagnoseFn diagnose);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Starts the sampling thread (idempotent guard via FRUGAL_CHECK). */
    void Start();

    /** Stops and joins the sampling thread; safe to call twice. */
    void Stop();

    /** Classifies a snapshot (pure; exposed for unit tests). */
    static StallKind Classify(const ProgressSnapshot &snap);

    std::uint64_t stalls_detected() const;
    std::uint64_t recoveries() const;
    std::uint64_t polls() const;
    /** Total wall time spent inside recover callbacks, seconds. */
    double recovery_seconds() const;

    /** Folds this watchdog's stats into engine recovery counters. */
    void Harvest(RecoveryCounters *out) const;

  private:
    void Loop();

    const Config config_;
    const SnapshotFn snapshot_;
    const RecoverFn recover_;
    const DiagnoseFn diagnose_;

    Mutex mutex_;
    std::condition_variable cv_;
    bool stop_requested_ FRUGAL_GUARDED_BY(mutex_) = false;
    // tsa-exempt: written in Start() before the sampling thread exists
    // and joined in Stop(); never accessed under mutex_.
    std::thread thread_;
    // tsa-exempt: confined to the owner thread (the Start/Stop caller).
    bool started_ = false;

    std::atomic<std::uint64_t> stalls_detected_{0};
    std::atomic<std::uint64_t> recoveries_{0};
    std::atomic<std::uint64_t> polls_{0};
    /** Nanoseconds inside recover_; atomic so Harvest can race Loop. */
    std::atomic<std::uint64_t> recovery_ns_{0};
};

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_WATCHDOG_H_
