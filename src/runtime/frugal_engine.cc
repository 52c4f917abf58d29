#include "runtime/frugal_engine.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "common/cacheline.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/memory_budget.h"
#include "common/retry.h"
#include "common/spinlock.h"
#include "data/next_use.h"
#include "pq/g_entry_registry.h"
#include "pq/invariant_auditor.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "runtime/watchdog.h"
#include "table/checkpoint.h"

namespace frugal {

namespace {

/**
 * Amortization quantum for the simulated UVA gather latency
 * (EngineConfig::host_gather_ns): per-row debt accumulates and is paid
 * as one sleep only once it exceeds this, because nanosleep overshoots
 * by a roughly constant ~60 µs per call — per-gather sleeps would model
 * timer granularity, not PCIe.
 */
constexpr std::uint64_t kGatherSleepQuantumNs = 100'000;

/** Attempts for one transiently failing host-table write; the applying
 *  thread backs off exponentially between them. */
constexpr int kHostWriteAttempts = 13;

/**
 * One trace GPU's slot on the staging board: the gradients that GPU
 * produced in one step. The executing trainer fills it before arriving
 * at the step barrier, and the barrier's completion registers it before
 * any trainer starts the next step (DESIGN.md §12.1), so a slot needs
 * no lock and its buffer is reused from step to step.
 */
struct BoardSlot
{
    /** The step the slot was last filled for (the completion checks
     *  it). */
    Step step = 0;
    /** The step's KeysFor(step, g).size() × dim gradients; row i starts
     *  at i * dim. */
    std::vector<float> grads;
};

/** Row `row` of a filled step's slot `src`, keyed for sorting the
 *  step's records into canonical (key, src) order. */
struct RowRef
{
    Key key;
    GpuId src;
    std::uint32_t row;
};

/**
 * One future step's registration plan: what the step boundary needs to
 * register the step, worked out by the prefetcher when it registers the
 * step's R sets (Pipeline::PlanStep) so the boundary only executes it.
 * The plans live in a ring of lookahead slots whose vectors keep their
 * capacity from lap to lap (DESIGN.md §6 states the hand-off).
 */
struct StepPlan
{
    /** The step the slot was last planned for (the boundary checks it). */
    Step step = 0;
    /** Every (key, src, row) record of the step, in (key, src) order. */
    std::vector<RowRef> refs;
    /** The step's unique keys, ascending: the key runs of `refs`. */
    std::vector<Key> keys;
    /** entries[i] is keys[i]'s g-entry. */
    std::vector<GEntry *> entries;

    /** Bytes the three vectors retain (capacity, not size). */
    std::size_t
    RetainedBytes() const
    {
        return refs.capacity() * sizeof(RowRef) +
               keys.capacity() * sizeof(Key) +
               entries.capacity() * sizeof(GEntry *);
    }
};

double
Seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Flush lag (staging→commit seconds) of the entry runs one thread
 * applies, sampled 1 in 16: a steady_clock read plus a log-bucket
 * histogram insert per run is measurable against these micro-second
 * apply times. Merged into RunReport::flush_lag after the joins.
 */
struct LagSampler
{
    Histogram hist{};
    std::size_t tick = 0;

    void
    Record(std::chrono::steady_clock::time_point staged)
    {
        if ((tick++ & 0xf) == 0)
            hist.Add(Seconds(staged, std::chrono::steady_clock::now()));
    }
};

/** One trainer's private state, kept in a CacheAligned slot so no two
 *  trainers write one cache line; the report sums the slots after the
 *  joins. */
struct TrainerSlot
{
    std::uint64_t host_reads = 0;
    std::uint64_t gate_waits = 0;
    double stall_seconds = 0.0;
    StatAccumulator stall;
    /** Cooperative-flush applies (flusher slots hold their own). */
    LagSampler lag;
    /** Simulated-PCIe debt for demand gathers (Pipeline::ChargeGather). */
    std::uint64_t gather_debt_ns = 0;
    // Gather scratch, reused across steps.
    std::vector<float> values;
    std::vector<Key> miss_keys;
    std::vector<float *> miss_outs;
    /** Indices (into the step's key list) of owned cache misses. */
    std::vector<std::size_t> owned_miss;
    /** Claim buffer for cooperative flushing at the gate. */
    std::vector<ClaimTicket> assist;
};

/**
 * One flush thread's crash-recovery slot. The *claim ledger* mirrors
 * the batch the thread is applying: claims are invisible to the queue
 * (that is the point of claiming), so without the ledger a dying flush
 * thread would take its in-flight work to the grave and the gate would
 * never open again. The thread publishes its key-sorted batch before
 * applying it and advances `retired` after each entry run, so a dead
 * thread's unapplied tickets are exactly the suffix past `retired`;
 * the watchdog reclaims that suffix and respawns the thread.
 *
 * The slot lock guards only the ledger and is a designed leaf (rank
 * kRecoverySlot, below kGEntry): bookkeeping happens strictly before or
 * after an entry run, never around it, so the watchdog can sample
 * ledgers without ever waiting on a wedged flush thread.
 */
struct FlusherSlot
{
    explicit FlusherSlot(std::size_t slot_index) : index(slot_index) {}

    /** Tickets published but not yet applied and retired. */
    std::size_t
    Outstanding() const FRUGAL_REQUIRES(lock)
    {
        return claimed.size() - retired;
    }

    const std::size_t index;
    Spinlock lock{LockRank::kRecoverySlot};
    std::vector<ClaimTicket> claimed FRUGAL_GUARDED_BY(lock);
    std::size_t retired FRUGAL_GUARDED_BY(lock) = 0;
    /** Set by the thread itself on injected death (definitive). */
    std::atomic<bool> dead{false};
    /** True while a dequeued batch is being processed. */
    std::atomic<bool> busy{false};
    // tsa-exempt: written only by the slot's own thread; the engine
    // merges it after joining every flusher.
    LagSampler lag;
    // tsa-exempt: set before the thread starts, joined by the engine's
    // wind-down; never touched under `lock`.
    std::thread thread;
};

/**
 * The gate's wakeup channel (Pipeline::gate_): trainers, the prefetcher
 * and the checkpoint barrier park on it, and every producer of gate
 * progress (frontier advance, applied flush, step boundary, pressure
 * transition) nudges it. Waits are timed because a recovery path can
 * lose a wakeup.
 */
struct GateSignal
{
    std::mutex mutex;
    std::condition_variable cv;

    void
    Nudge()
    {
        // Taking the mutex orders the notify after any waiter's
        // predicate check.
        { std::lock_guard<std::mutex> lock(mutex); }
        cv.notify_all();
    }

    template <typename Duration, typename Predicate>
    bool
    WaitFor(Duration timeout, Predicate ready)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock, timeout, ready);
    }
};

class Pipeline;

/** The step barrier's completion: runs Pipeline::StepBoundary while
 *  every trainer is parked in the barrier. */
struct StepCompletion
{
    Pipeline *pipeline;
    void operator()() noexcept;
};

/**
 * One FrugalEngine::Run: the run's shared state plus one method per
 * stage of Fig. 5 — trainer (gate, gather, emit), prefetcher, flush
 * worker — and the step boundary (which registers the step), pressure
 * monitor, watchdog callbacks and report. FrugalEngine::Run starts the
 * threads on these methods and joins them. Cross-thread state is
 * atomic, behind the gate signal or a slot lock, ordered by the step
 * barrier, or confined to one thread as its comment says.
 */
class Pipeline
{
  public:
    Pipeline(const EngineConfig &config, HostEmbeddingTable &table,
             Optimizer &optimizer, KeyOwnership &ownership,
             Step first_step, const Trace &trace, const GradFn &grad_fn,
             const StepHook &step_hook)
        : config_(config), table_(table), optimizer_(optimizer),
          ownership_(ownership), first_step_(first_step), trace_(trace),
          grad_fn_(grad_fn), step_hook_(step_hook), executor_(n_gpus_),
          trainer_dead_(n_gpus_), board_(n_gpus_),
          plans_(std::max<std::size_t>(
              1, std::min<std::size_t>(config.lookahead, n_steps_))),
          trainers_(n_gpus_),
          step_barrier_(static_cast<std::ptrdiff_t>(n_gpus_),
                        StepCompletion{this}),
          watchdog_(
              Watchdog::Config{
                  .poll = std::chrono::milliseconds(
                      std::max(1, config.watchdog_poll_ms)),
                  .stall_deadline = std::chrono::milliseconds(std::max(
                      config.watchdog_poll_ms, config.watchdog_stall_ms))},
              std::bind_front(&Pipeline::Snapshot, this),
              std::bind_front(&Pipeline::Recover, this),
              std::bind_front(&Pipeline::Diagnose, this))
    {
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            caches_.push_back(std::make_unique<GpuCache>(
                config.CacheRowsPerGpu(), config.dim,
                config.cache_options));
            if (oracular_) {
                caches_.back()->SetEvictionHorizon(
                    static_cast<Step>(config.lookahead));
            }
            // relaxed: single-threaded setup before any thread is
            // spawned.
            executor_[g].store(static_cast<GpuId>(g),
                               std::memory_order_relaxed);
        }
        for (std::size_t f = 0; f < config.flush_threads; ++f)
            flusher_slots_.push_back(std::make_unique<FlusherSlot>(f));
    }

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Starts every flush thread, then the watchdog that reclaims and
     *  respawns dead ones. */
    void
    StartFlushWorkers()
    {
        for (auto &slot : flusher_slots_)
            slot->thread = std::thread(&Pipeline::FlushWorker, this,
                                       slot.get());
        watchdog_.Start();
    }

    /**
     * The sample queue (§3.2): plans each step up to the effective
     * lookahead ahead of training and registers its R sets (PlanStep),
     * advances the prefetch frontier, and (oracular) warms the owner
     * caches for the step.
     *
     * Wake hysteresis: parking per advanced step costs one futex round
     * trip per training step. Sleep until a burst of headroom (half the
     * lookahead window) has opened, then register every available step
     * before re-parking — same RegisterRead stream, a fraction of the
     * wakeups. The burst tracks the *effective* lookahead: under
     * memory-pressure degradation the window can shrink to 1, and a
     * burst sized off the configured window would then demand headroom
     * that never opens (livelock).
     */
    void
    Prefetcher()
    {
        // Simulated-PCIe debt for warm gathers: paid as sleeps, so on an
        // oversubscribed host the prefetcher yields instead of stealing
        // trainer cycles — the DMA-latency-hiding the warm path exists
        // to model.
        std::uint64_t gather_debt_ns = 0;
        Step frontier = 0;  // only this thread advances the frontier
        const auto lookahead = [&] {
            // relaxed: degradation knob; any recent value is acceptable.
            return static_cast<Step>(
                effective_lookahead_.load(std::memory_order_relaxed));
        };
        const auto window_end = [&](Step eff) {
            return std::min<Step>(
                n_steps_,
                current_step_.load(std::memory_order_acquire) + eff);
        };
        const auto can_prefetch = [&] {
            const Step eff = lookahead();
            const Step limit = window_end(eff);
            if (frontier >= limit)
                return false;
            // The final (partial) burst must not wait for headroom the
            // run will never produce.
            return frontier + std::max<Step>(1, eff / 2) <= limit ||
                   limit >= n_steps_;
        };
        while (frontier < n_steps_) {
            // Timed re-check: recovery paths can lose a wakeup; the
            // deadline bounds any missed notify to one period.
            while (!gate_.WaitFor(std::chrono::milliseconds(50),
                                  can_prefetch)) {
            }
            while (frontier < window_end(lookahead())) {
                // The plan is written before the frontier's release
                // store, which every trainer's gate acquires before it
                // arrives at the step's barrier (DESIGN.md §6).
                PlanStep(frontier);
                const Step target = frontier++;
                prefetch_frontier_.store(frontier,
                                         std::memory_order_release);
                gate_.Nudge();
                // Oracular warm, strictly after the frontier advance and
                // gate nudge: warming is opportunistic and must never
                // delay the gate. A step the trainers already reached is
                // not worth gathering for — the demand path is serving
                // it now.
                // relaxed: degradation flag; a stale read warms (or
                // skips) one extra step, both harmless.
                if (!oracular_ ||
                    !warming_enabled_.load(std::memory_order_relaxed))
                    continue;
                if (current_step_.load(std::memory_order_acquire) >=
                    target) {
                    // relaxed: monotonic stat counter.
                    late_warm_count_.fetch_add(1, std::memory_order_relaxed);
                } else {
                    WarmStep(target, &gather_debt_ns);
                }
            }
        }
    }

    /**
     * One flush thread (§3.4 parallel flushing): claims the
     * minimum-priority entries and applies them through ApplyClaims with
     * its slot as the claim ledger. The watchdog respawns a dead thread
     * on the same slot.
     */
    void
    FlushWorker(FlusherSlot *slot)
    {
        // Consecutive zero-claim passes before the flusher stops
        // yielding and naps between rescans.
        constexpr std::size_t kParkAfterEmptyClaims = 2;
        std::size_t empty_claims = 0;
        // Idle nap; doubles (capped) while the queue stays dry, resets
        // on a successful claim.
        std::chrono::microseconds idle_sleep{500};
        std::vector<ClaimTicket> claims;
        while (true) {
            // Read before the size: once the last step boundary has
            // registered its records, an empty queue means no more work.
            const bool run_registered =
                current_step_.load(std::memory_order_acquire) >= n_steps_;
            if (queue_.SizeApprox() == 0) {
                if (run_registered)
                    return;
                // Idle: flat self-wake, off the gate CV. The step
                // boundary's nudge is a notify_all; four flushers parked
                // on it turn every step into a thundering herd whose
                // losers wake, rescan and re-park. The gate-blocked
                // trainer claims its own blockers (cooperative flush), so
                // an idle flusher only needs to wake often enough to
                // absorb later-step and deferred backlog.
                // retry-exempt: idle self-wake, not a retry.
                std::this_thread::sleep_for(idle_sleep);
                idle_sleep = std::min(idle_sleep * 2,
                                      std::chrono::microseconds(4000));
                continue;
            }
            // The scan floor relies on the gate's invariant that nothing
            // below the current step is pending; without the gate (async
            // ablation) stale priorities survive below it, so the floor
            // must stay at zero.
            const Step floor =
                config_.disable_gate_unsafe
                    ? 0
                    : current_step_.load(std::memory_order_acquire);
            slot->busy.store(true, std::memory_order_release);
            if (Claim(claims, slot->index, floor, kInfiniteStep) == 0) {
                // Entries exist but are momentarily unclaimable
                // (mid-publish or taken by a peer); back off briefly.
                slot->busy.store(false, std::memory_order_release);
                // Two-stage backoff: yield while the pipeline is merely
                // between batches, then a flat sleep after a streak of
                // empty claims. Everything visible is in flight on a
                // peer — or on a gate-blocked trainer, which must not
                // have to outrace a flusher for the work it is waiting
                // on — so rescanning in-flight entries only burns
                // timeslices the applying threads need.
                if (++empty_claims < kParkAfterEmptyClaims) {
                    std::this_thread::yield();
                } else {
                    // retry-exempt: contention backoff while peers hold
                    // the claims, not a retry.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                continue;
            }
            empty_claims = 0;
            idle_sleep = std::chrono::microseconds{500};
            if (!ApplyClaims(claims, &slot->lag, slot))
                return;  // injected death; the watchdog takes over
            slot->busy.store(false, std::memory_order_release);
            gate_.Nudge();
        }
    }

    /**
     * One trainer thread (Fig. 5). Each step: the P²F gate, then for
     * every trace GPU this thread executes — just its own while
     * healthy, plus a dead trainer's share in degraded mode — gather,
     * model and emit, then the step barrier.
     */
    void
    Trainer(GpuId t)
    {
        TrainerSlot &slot = *trainers_[t];
        for (Step s = 0; s < n_steps_; ++s) {
            if (trainer_dead_[t].load(std::memory_order_acquire)) {
                // Injected death: leave the barrier for good. The early
                // arrival completes this phase; later phases expect one
                // fewer participant.
                step_barrier_.arrive_and_drop();
                return;
            }
            WaitForGate(slot, t, s);
            for (std::uint32_t tg = 0; tg < n_gpus_; ++tg) {
                const GpuId g = static_cast<GpuId>(tg);
                if (executor_[tg].load(std::memory_order_acquire) != t)
                    continue;
                const std::vector<Key> &keys = trace_.KeysFor(s, g);
                if (config_.audit_consistency || kDcheckEnabled)
                    AuditReads(keys, s);
                Gather(slot, t, s, g);
                Emit(slot, s, g);
            }
            step_barrier_.arrive_and_wait();
        }
    }

    /**
     * Memory-pressure monitor (DESIGN.md §12.2): publishes the
     * component byte gauges every period and applies staged
     * degradation reactions on stage transitions.
     */
    void
    PressureMonitor()
    {
        const auto poll =
            std::chrono::milliseconds(std::max(1, config_.memory_poll_ms));
        const std::size_t healthy_rows = config_.CacheRowsPerGpu();
        PressureStage reacted = PressureStage::kNormal;
        while (!monitor_stop_.load(std::memory_order_acquire)) {
            budget_->Publish(MemoryComponent::kArena,
                             registry_.MemoryBytes());
            std::size_t cache_total = 0;
            for (const auto &cache : caches_)
                cache_total += cache->MemoryBytes();
            budget_->Publish(MemoryComponent::kCache, cache_total);
            budget_->Publish(
                MemoryComponent::kQueue,
                // relaxed: gauges; skew tolerated.
                staging_bytes_.load(std::memory_order_relaxed) +
                    plan_bytes_.load(std::memory_order_relaxed));
            const PressureStage stage = budget_->Evaluate();
            if (stage != reacted) {
                // Staged reactions. Oracular warming is pure optimism
                // (extra host gathers + cold-end inserts), so it is the
                // FIRST mechanism shed — at elevated, before the
                // prefetch window narrows and long before caches shrink.
                // Elevated also sheds the prefetch window (fewer R sets
                // in flight) and the flush coalescing width; critical
                // additionally halves the GPU caches — safe at any
                // moment because the cache is write-through, so eviction
                // changes throughput, never table contents.
                // Returning to normal restores every knob, including
                // warming and the cache capacity.
                std::size_t lookahead = config_.lookahead;
                std::size_t flush_batch = config_.flush_batch;
                std::size_t cache_rows = healthy_rows;
                bool warm = oracular_;
                if (stage == PressureStage::kElevated) {
                    warm = false;
                    lookahead =
                        std::max<std::size_t>(1, config_.lookahead / 2);
                    flush_batch = 1;
                } else if (stage == PressureStage::kCritical) {
                    warm = false;
                    lookahead = 1;
                    flush_batch = 1;
                    cache_rows = std::max<std::size_t>(1, healthy_rows / 2);
                }
                // relaxed: degradation knobs; readers tolerate any
                // recent value.
                effective_lookahead_.store(lookahead,
                                           std::memory_order_relaxed);
                // relaxed: see above.
                effective_flush_batch_.store(flush_batch,
                                             std::memory_order_relaxed);
                // relaxed: see above.
                if (warming_enabled_.exchange(warm,
                                              std::memory_order_relaxed) &&
                    !warm) {
                    // relaxed: monotonic stat counter.
                    warms_shed_count_.fetch_add(1,
                                                std::memory_order_relaxed);
                }
                std::uint64_t shed = 0;
                for (const auto &cache : caches_) {
                    if (cache->capacity() != cache_rows)
                        shed += cache->Resize(cache_rows);
                }
                if (shed > 0) {
                    // relaxed: monotonic stat counter.
                    cache_rows_shed_.fetch_add(shed,
                                               std::memory_order_relaxed);
                }
                FRUGAL_WARN("memory pressure: "
                            << PressureStageName(reacted) << " -> "
                            << PressureStageName(stage) << " ("
                            << budget_->TotalBytes() << " of "
                            << budget_->budget_bytes()
                            << " budget bytes; warming "
                            << (warm ? "on" : "shed") << ", lookahead "
                            << lookahead << ", flush batch " << flush_batch
                            << ", " << shed << " cache row(s) shed)");
                reacted = stage;
                // Every effective_lookahead change must nudge the gate
                // CV — a prefetcher parked on a full window re-evaluates
                // against the new bound.
                gate_.Nudge();
            }
            // retry-exempt: monitor sampling period, not a retry backoff.
            std::this_thread::sleep_for(poll);
        }
    }

    /**
     * The step boundary (barrier completion, single-threaded while every
     * trainer is parked): registration of the step's board, step hook,
     * invariant audit, checkpoint barrier, injected trainer death,
     * dead-key sweep, and finally the step advance that reopens the
     * gate.
     */
    void
    StepBoundary() noexcept
    {
        // relaxed: the completion callback is the only writer and runs
        // single-threaded between steps.
        const Step s = current_step_.load(std::memory_order_relaxed);
        // One clock read stamps the step's records and starts the
        // registration timer.
        const auto registration_start = std::chrono::steady_clock::now();
        RegisterStep(s, registration_start);
        report_.registration_seconds +=
            Seconds(registration_start, std::chrono::steady_clock::now());
        if (step_hook_)
            step_hook_(s);
#if FRUGAL_DCHECK_ENABLED
        if (auditor_armed_)
            auditor_.OnStepBoundary(s, queue_);
#endif
        if (config_.checkpoint_every_steps > 0 &&
            static_cast<std::size_t>(s + 1) %
                    config_.checkpoint_every_steps ==
                0) {
            Checkpoint(s);
        }
        if (auto victim = FaultPoint(injector_, FaultSite::kTrainerDeath,
                                     static_cast<std::uint64_t>(s)))
            KillTrainer(static_cast<GpuId>(*victim % n_gpus_), s);
        if (oracular_) {
            // Dead-key reclamation: step s is complete on every
            // trainer, so a key whose last reader is s will never be
            // read again — drop its cached row now (zero cost, the cache
            // is write-through). A flush for such a key may still be in
            // flight, but its cache refresh is then a no-op: it only
            // updates resident rows.
            for (const Key key : next_use_.DeadAfter(s))
                caches_[ownership_.OwnerOf(key)]->EvictIfDead(key);
            const Step horizon =
                s + 1 +
                // relaxed: degradation knob; any recent value is
                // acceptable for a scan-policy boundary.
                static_cast<Step>(effective_lookahead_.load(
                    std::memory_order_relaxed));
            for (auto &cache : caches_)
                cache->SetEvictionHorizon(horizon);
        }
        current_step_.store(s + 1, std::memory_order_release);
        gate_.Nudge();
    }

    /**
     * Recovery-aware wind-down, after the trainers and prefetcher
     * joined (so every step is registered): a flusher may die on the
     * very last batch, so wait until every slot is quiet and all
     * updates are applied while the watchdog keeps respawning dead
     * slots and reclaiming their claims. The watchdog stops before the
     * slots are joined so recovery can't touch a slot thread
     * concurrently with the join; the pressure monitor is told to stop
     * last.
     */
    void
    WindDown()
    {
        run_complete_.store(true, std::memory_order_release);
        const auto quiet = [&] {
            if (queue_.SizeApprox() != 0)
                return false;
            for (const auto &slot : flusher_slots_) {
                if (slot->dead.load(std::memory_order_acquire) ||
                    slot->busy.load(std::memory_order_acquire))
                    return false;
                SpinGuard guard(slot->lock);
                if (slot->Outstanding() != 0)
                    return false;
            }
            // relaxed: trainers are already joined, emitted is final;
            // acquire on applied makes the flushed writes visible.
            return updates_applied_.load(std::memory_order_acquire) >=
                   updates_emitted_.load(std::memory_order_relaxed);
        };
        while (!quiet()) {
            // retry-exempt: wind-down poll, not a retry backoff.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        watchdog_.Stop();
        for (auto &slot : flusher_slots_) {
            if (slot->thread.joinable())
                slot->thread.join();
        }
        monitor_stop_.store(true, std::memory_order_release);
    }

    /** Folds every thread's counters into the run's report (all threads
     *  are joined) and checks the end-of-run accounting. */
    RunReport
    Report(double wall_seconds)
    {
        RunReport &report = report_;
        report.steps = n_steps_;
        report.n_gpus = n_gpus_;
        report.wall_seconds = wall_seconds;
        for (const auto &cache : caches_)
            report.cache += cache->stats();
        report.prefetch.rows_warmed = report.cache.warm_inserts;
        report.prefetch.warm_hits = report.cache.warm_hits;
        report.prefetch.dead_evictions = report.cache.dead_evictions;
        report.prefetch.late_warms = late_warm_count_.load();
        report.prefetch.warms_shed = warms_shed_count_.load();
        // Safe to read without the slot locks: every flusher thread is
        // joined, which happens-after its last histogram write.
        for (const auto &slot : flusher_slots_)
            report.flush_lag.Merge(slot->lag.hist);
        for (const auto &trainer : trainers_) {
            report.flush_lag.Merge(trainer->lag.hist);
            report.stall_per_step.Merge(trainer->stall);
            report.stall_seconds_total += trainer->stall_seconds;
            report.host_reads += trainer->host_reads;
            report.gate_waits += trainer->gate_waits;
        }
        report.stall_seconds_total /= n_gpus_;
        report.overload.cache_rows_shed = cache_rows_shed_.load();
        report.updates_emitted = updates_emitted_.load();
        report.updates_applied = updates_applied_.load();
        report.flush_entry_claims = entry_claims_.load();
        report.audit_violations = audit_violations_.load();
        report.recovery.faults_injected =
            injector_ != nullptr ? injector_->total_fires() : 0;
        report.recovery.write_retries = write_retries_.load();
        report.recovery.flusher_deaths = flusher_deaths_.load();
        report.recovery.flusher_respawns = flusher_respawns_.load();
        report.recovery.claims_reclaimed = claims_reclaimed_.load();
        watchdog_.Harvest(&report.recovery);
        if (budget_ != nullptr) {
            report.overload.pressure_transitions = budget_->transitions();
            report.overload.peak_stage = budget_->peak_stage();
            report.overload.peak_tracked_bytes = budget_->peak_total_bytes();
            report.final_pressure_stage = budget_->stage();
        }

        FRUGAL_CHECK_MSG(report.updates_applied == report.updates_emitted,
                         "flush pipeline lost updates: emitted "
                             << report.updates_emitted << ", applied "
                             << report.updates_applied);
        if (config_.audit_consistency) {
            // Post-run: every g-entry fully drained.
            registry_.ForEach([&](GEntry &entry) {
                SpinGuard guard(entry.lock());
                FRUGAL_CHECK(!entry.hasWritesLocked());
                FRUGAL_CHECK(!entry.enqueuedLocked());
            });
        }
#if FRUGAL_DCHECK_ENABLED
        if (auditor_armed_) {
            // Quiescent accounting: queue counters exactly drained,
            // every g-entry back to the (W = ∅, dequeued, priority = ∞)
            // state.
            auditor_.OnQuiescent(queue_, registry_);
            auditor_.ExpectClean();
            FRUGAL_DEBUG("invariant auditor: " << auditor_.checks()
                                               << " checks, 0 violations");
        }
#endif
        return report;
    }

  private:
    // --- trainer stages ------------------------------------------------

    /**
     * The P²F gate: step s starts once its R sets are registered and no
     * enqueued or in-flight entry has priority ≤ s (PQ.top() > s). Every
     * earlier step is already in g-entries: the step boundary registered
     * it before releasing the barrier. Time spent here is the trainer's
     * stall.
     *
     * Cooperative flushing: while the gate is shut by pending entries,
     * the trainer applies them *itself* instead of parking and paying
     * two context switches (wake a flusher, then get woken back) per
     * step on the critical path. The claim protocol makes this safe —
     * whoever wins the claim owns the flush — and ApplyClaims keeps the
     * per-key order canonical no matter who applies. The trainer cannot
     * die mid-assist (trainer death fires at step boundaries), so no
     * claim ledger is needed.
     */
    void
    WaitForGate(TrainerSlot &slot, GpuId t, Step s)
    {
        const auto gate_open = [&] {
            return prefetch_frontier_.load(std::memory_order_acquire) > s &&
                   (config_.disable_gate_unsafe ||
                    !queue_.HasPendingAtOrBelow(s));
        };
        const auto wait_start = std::chrono::steady_clock::now();
        if (!gate_open()) {
            ++slot.gate_waits;
            // Fruitless passes before escalating from yield to a timed
            // CV park.
            constexpr std::size_t kAssistYields = 32;
            std::size_t idle_passes = 0;
            while (!gate_open()) {
                // Bounded claim: only the entries blocking *this* gate
                // (priority <= s). Later-step and deferred entries stay
                // enqueued so their writes keep coalescing for the
                // flush threads.
                if (Claim(slot.assist, t,
                          current_step_.load(std::memory_order_acquire),
                          s) == 0) {
                    // Nothing claimable: the gate waits on the
                    // prefetcher, or the work is in flight on a
                    // flusher. Yield first — on a machine with fewer
                    // cores than threads that hands the timeslice
                    // straight to whichever thread the gate is waiting
                    // for, without a futex round trip — and only park
                    // on the CV after a streak of fruitless passes.
                    if (++idle_passes < kAssistYields)
                        std::this_thread::yield();
                    else
                        gate_.WaitFor(std::chrono::microseconds(200),
                                      gate_open);
                    continue;
                }
                idle_passes = 0;
                ApplyClaims(slot.assist, &slot.lag, nullptr);
                gate_.Nudge();
            }
        }
        const double stall =
            Seconds(wait_start, std::chrono::steady_clock::now());
        slot.stall_seconds += stall;
        slot.stall.Add(stall);
    }

    /** Invariant (2) audit (audit_consistency and FRUGAL_DCHECK builds):
     *  no parameter read at step s may have a pending (unflushed)
     *  update from an earlier step. */
    void
    AuditReads(const std::vector<Key> &keys, [[maybe_unused]] Step s)
    {
        for (const Key key : keys) {
            GEntry &entry = registry_.GetOrCreate(key);
            bool pending = false;
            {
                SpinGuard guard(entry.lock());
                pending = entry.hasWritesLocked();
            }
            if (!pending)
                continue;
            // relaxed: monotonic stat counter, read after joins.
            audit_violations_.fetch_add(1, std::memory_order_relaxed);
#if FRUGAL_DCHECK_ENABLED
            if (auditor_armed_)
                auditor_.OnReadViolation(key, s);
#endif
        }
    }

    /**
     * Gather (forward) of trace GPU g's step-s rows into slot.values.
     * Keys trainer t owns probe its cache — by *executing* trainer:
     * after a remap the successor owns the dead GPU's shard, so its
     * cache serves those keys too. Misses and non-owned keys (zero-copy
     * UVA reads) come from host memory in one batched scatter call, and
     * owned misses refill the cache.
     */
    void
    Gather(TrainerSlot &slot, GpuId t, Step s, GpuId g)
    {
        const std::vector<Key> &keys = trace_.KeysFor(s, g);
        const std::size_t dim = config_.dim;
        // alloc-ok: scratch capacity persists across steps.
        slot.values.resize(keys.size() * dim);
        slot.miss_keys.clear();
        slot.miss_outs.clear();
        slot.owned_miss.clear();
        // Oracular hint row: hints[i] is key i's next reading step
        // strictly after s (kNever if none) — each hinted TryGet/Put
        // refreshes the slot's next-use field so Belady eviction stays
        // current.
        const Step *hints =
            oracular_ ? next_use_.HintRow(s, g).data() : nullptr;
        GpuCache &cache = *caches_[t];
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const Key key = keys[i];
            float *out = slot.values.data() + i * dim;
            if (ownership_.OwnerOf(key) == t) {
                if (hints ? cache.TryGet(key, out, hints[i])
                          : cache.TryGet(key, out))
                    continue;
                // alloc-ok: scratch capacity persists across steps.
                slot.owned_miss.push_back(i);
            }
            // alloc-ok: scratch capacity persists across steps.
            slot.miss_keys.push_back(key);
            slot.miss_outs.push_back(out);
        }
        if (slot.miss_keys.empty())
            return;
        table_.ReadRows(slot.miss_keys.data(), slot.miss_keys.size(),
                        slot.miss_outs.data());
        slot.host_reads += slot.miss_keys.size();
        ChargeGather(&slot.gather_debt_ns, slot.miss_keys.size());
        for (const std::size_t i : slot.owned_miss) {
            const float *row = slot.values.data() + i * dim;
            if (hints)
                cache.Put(keys[i], row, hints[i]);
            else
                cache.Put(keys[i], row);
        }
    }

    /**
     * Model and emit of trace GPU g's step s: zero-fills g's board slot
     * and runs the model callback (forward + backward) into it. The
     * previous step's boundary registered the slot's old contents, so
     * its buffer is reused; the trainer's barrier arrival hands the slot
     * to this step's boundary.
     */
    void
    Emit(TrainerSlot &slot, Step s, GpuId g)
    {
        const std::vector<Key> &keys = trace_.KeysFor(s, g);
        BoardSlot &out = *board_[g];
        out.step = s;
        // alloc-ok: the slot's capacity persists across steps, so this
        // grows only on a step with more keys than any before it.
        out.grads.assign(keys.size() * config_.dim, 0.0f);
        grad_fn_(g, s, keys, slot.values, &out.grads);
    }

    /**
     * Charges `rows` host-row gathers to `debt_ns` at
     * EngineConfig::host_gather_ns each and sleeps the debt off once it
     * reaches kGatherSleepQuantumNs. Trainers pay it inline; the
     * prefetcher's warm gathers pay it off the critical path, modelling
     * DMA transfers that block the requesting kernel but burn no host
     * CPU.
     */
    void
    ChargeGather(std::uint64_t *debt_ns, std::size_t rows) const
    {
        *debt_ns += rows * static_cast<std::uint64_t>(
                               std::max(0, config_.host_gather_ns));
        if (*debt_ns >= kGatherSleepQuantumNs) {
            // retry-exempt: simulated PCIe latency, not a retry backoff.
            std::this_thread::sleep_for(std::chrono::nanoseconds(*debt_ns));
            *debt_ns = 0;
        }
    }

    // --- prefetch and registration stages ------------------------------

    /**
     * Oracular warming for one registered step: gather the rows the
     * step will read from the host table in batches and insert them
     * cold into the executing trainer's cache (GpuCache::WarmBatch —
     * stamped two-phase, so a racing flush always wins).
     */
    void
    WarmStep(Step target, std::uint64_t *gather_debt_ns)
    {
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            // Only keys the executing trainer owns are cacheable on its
            // GPU (non-owned keys use the zero-copy host path).
            const GpuId dst = executor_[g].load(std::memory_order_acquire);
            warm_keys_.clear();
            warm_hints_.clear();
            for (const Key key : trace_.KeysFor(target, g)) {
                if (ownership_.OwnerOf(key) != dst)
                    continue;
                // alloc-ok: scratch capacity amortizes across steps;
                // warming is off the critical path.
                warm_keys_.push_back(key);
                // The row's next read *from now* is the target step
                // itself; the trainer's hinted TryGet refreshes it to
                // the post-target next use.
                warm_hints_.push_back(target);
            }
            if (warm_keys_.empty())
                continue;
            std::size_t gathered = 0;
            caches_[dst]->WarmBatch(
                warm_keys_.data(), warm_hints_.data(), warm_keys_.size(),
                [&](const Key *fill, std::size_t m, float *rows) {
                    table_.ReadRows(fill, m, rows);
                    gathered = m;
                });
            ChargeGather(gather_debt_ns, gathered);
        }
    }

    /**
     * Plans step f's registration and registers its R sets (prefetcher
     * only). The plan sorts the step's records into (key, src) order, so
     * a key's W records always *arrive* in canonical order (a flush may
     * otherwise split one step's records for a key across two flushes
     * and apply them in whatever order the GPUs emitted them). It also
     * lists the unique keys and resolves their g-entries (one slot load
     * per key once it exists); each entry then gets one RegisterRead for
     * step f.
     */
    void
    PlanStep(Step f)
    {
        StepPlan &plan = *plans_[f % plans_.size()];
        const std::size_t retained = plan.RetainedBytes();
        plan.step = f;
        plan.refs.clear();
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            const std::vector<Key> &keys = trace_.KeysFor(f, g);
            for (std::uint32_t r = 0; r < keys.size(); ++r)
                // alloc-ok: the slot's capacity persists across laps.
                plan.refs.push_back(
                    RowRef{keys[r], static_cast<GpuId>(g), r});
        }
        std::sort(plan.refs.begin(), plan.refs.end(),
                  [](const RowRef &a, const RowRef &b) {
                      return a.key != b.key ? a.key < b.key : a.src < b.src;
                  });
        plan.keys.clear();
        for (const RowRef &ref : plan.refs) {
            if (plan.keys.empty() || ref.key != plan.keys.back())
                // alloc-ok: the slot's capacity persists across laps.
                plan.keys.push_back(ref.key);
        }
        // alloc-ok: the slot's capacity persists across laps.
        plan.entries.resize(plan.keys.size());
        registry_.GetOrCreateBatch(plan.keys, plan.entries.data());
        for (GEntry *entry : plan.entries)
            RegisterRead(queue_, *entry, f);
        // Capacities only grow, so the ring's gauge only adds.
        // relaxed: pressure gauge; the monitor tolerates skew.
        plan_bytes_.fetch_add(plan.RetainedBytes() - retained,
                              std::memory_order_relaxed);
    }

    /**
     * Registers a step that is complete everywhere (the step boundary):
     * its R-set removals and W-set insertions are now safe. It executes
     * the step's plan (PlanStep) with no sort and no registry call: one
     * entry-lock hold per key run, which removes the step from the R set
     * once and appends the run's records in plan order, copying each
     * gradient row from its board slot straight into the g-entry's own
     * row buffer. PropagatePriorityBatchedLocked then enqueues a newly
     * pending entry through the queue's batch (TwoLevelPQ::BeginBatch),
     * which publishes its copies in groups, most after the pass. The
     * records then count as emitted, and the board's retained buffers
     * feed the kQueue pressure gauge. `staged_at` stamps every record
     * (flush lag).
     */
    void
    RegisterStep(Step s, std::chrono::steady_clock::time_point staged_at)
    {
        // Runs (entries) and records (board rows) ahead of the cursor to
        // prefetch: the plan already names everything the pass touches.
        constexpr std::size_t kPrefetchDistance = 16;
        const std::size_t dim = config_.dim;
        const StepPlan &plan = *plans_[s % plans_.size()];
        FRUGAL_DCHECK(plan.step == s);
        std::size_t board_bytes = 0;
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            // A slot of any other step is a trace GPU nobody executed.
            FRUGAL_DCHECK(board_[g]->step == s);
            board_bytes += board_[g]->grads.capacity() * sizeof(float);
        }
        const auto board_row = [&](const RowRef &ref) {
            return board_[ref.src]->grads.data() +
                   static_cast<std::size_t>(ref.row) * dim;
        };
        queue_.BeginBatch(plan.entries.size());
        std::size_t i = 0;
        for (std::size_t run = 0; run < plan.entries.size(); ++run) {
            if (run + kPrefetchDistance < plan.entries.size()) {
                // A GEntry fills two whole cache lines.
                const char *ahead = reinterpret_cast<const char *>(
                    plan.entries[run + kPrefetchDistance]);
                __builtin_prefetch(ahead, 1);
                __builtin_prefetch(ahead + sizeof(GEntry) - 1, 1);
            }
            GEntry &entry = *plan.entries[run];
            SpinGuard guard(entry.lock());
            const Priority before = entry.priorityLocked();
            entry.RemoveReadLocked(s);
            // refs and keys sort identically: the run is every record of
            // keys[run].
            for (; i < plan.refs.size() && plan.refs[i].key == plan.keys[run];
                 ++i) {
                const RowRef &ref = plan.refs[i];
                // Canonical arrival order (DESIGN.md §5 item 4): strictly
                // increasing (key, src).
                FRUGAL_DCHECK(i == 0 || std::tie(plan.refs[i - 1].key,
                                                 plan.refs[i - 1].src) <
                                            std::tie(ref.key, ref.src));
                if (i + kPrefetchDistance < plan.refs.size())
                    __builtin_prefetch(
                        board_row(plan.refs[i + kPrefetchDistance]));
                entry.AddWriteLocked(WriteRecord{.step = s,
                                                 .src = ref.src,
                                                 .staged = staged_at},
                                     std::span<const float>(board_row(ref),
                                                            dim));
            }
            PropagatePriorityBatchedLocked(queue_, entry, before,
                                           entry.priorityLocked());
        }
        FRUGAL_DCHECK(i == plan.refs.size());
        queue_.PublishBatch();
        // relaxed: only this completion writes the counter; the
        // checkpoint barrier reads it on this thread, WindDown after the
        // trainer joins, and the watchdog tolerates skew.
        updates_emitted_.fetch_add(plan.refs.size(),
                                   std::memory_order_relaxed);
        // relaxed: pressure gauge; the monitor tolerates skew.
        staging_bytes_.store(board_bytes, std::memory_order_relaxed);
    }

    // --- the claim-apply path ------------------------------------------

    /**
     * Claims up to the coalescing width of minimum-priority entries with
     * priority ≤ `ceiling` (kInfiniteStep: any, deferred ∞ entries
     * last), scanning from `floor`, and audits and counts the batch in
     * its dequeue (priority) order.
     * @return the number of tickets claimed into `out`.
     */
    std::size_t
    Claim(std::vector<ClaimTicket> &out, std::size_t shard, Step floor,
          Step ceiling)
    {
        queue_.SetScanBounds(
            floor, prefetch_frontier_.load(std::memory_order_acquire));
        out.clear();
        // relaxed: degradation knob (coalescing width).
        const std::size_t width =
            effective_flush_batch_.load(std::memory_order_relaxed);
        const std::size_t claimed =
            ceiling == kInfiniteStep
                ? queue_.DequeueClaim(out, width, shard)
                : queue_.DequeueClaimBelow(out, width, shard, ceiling);
        if (claimed == 0)
            return 0;
#if FRUGAL_DCHECK_ENABLED
        if (auditor_armed_)
            auditor_.OnClaimBatch(out, floor);
#endif
        // relaxed: monotonic stat counter, read after joins.
        entry_claims_.fetch_add(claimed, std::memory_order_relaxed);
        return claimed;
    }

    /**
     * The one claim-apply path, shared by flush threads, gate-blocked
     * trainers and watchdog reclaim. Sorts the batch by key so an
     * entry's tickets form one run, commits each run with one
     * FlushEntryRun (one entry-lock hold, one row-lock acquisition, one
     * owner cache refresh), retires every ticket with OnFlushed, and
     * publishes the applied count. A flush thread passes its slot: the
     * sorted batch goes into the slot's claim ledger first and the
     * retired prefix advances after each run, so an injected death
     * before a run leaves exactly the unapplied suffix for reclaim.
     * @return false if the flush thread died mid-batch.
     */
    bool
    ApplyClaims(std::vector<ClaimTicket> &claims, LagSampler *lag,
                FlusherSlot *ledger)
    {
        std::sort(claims.begin(), claims.end(),
                  [](const ClaimTicket &a, const ClaimTicket &b) {
                      return a.entry->key() < b.entry->key();
                  });
        if (ledger != nullptr) {
            SpinGuard guard(ledger->lock);
            // alloc-ok: the ledger's capacity persists for the slot's
            // lifetime and a batch is at most flush_batch tickets.
            ledger->claimed.assign(claims.begin(), claims.end());
            ledger->retired = 0;
        }
        for (std::size_t i = 0; i < claims.size();) {
            std::size_t j = i + 1;
            while (j < claims.size() && claims[j].entry == claims[i].entry)
                ++j;
            if (ledger != nullptr && FlusherDies(*ledger))
                return false;
            if (config_.flush_delay_us > 0) {
                // Fault injection: a slow host-memory path (per ticket).
                // retry-exempt: injected delay.
                std::this_thread::sleep_for(std::chrono::microseconds(
                    config_.flush_delay_us * static_cast<long>(j - i)));
            }
            // A second ticket for the same entry finds the W set already
            // applied (applied == 0) and just retires its claim.
            const std::size_t applied =
                FlushEntryRun(*claims[i].entry, lag);
            for (std::size_t k = i; k < j; ++k)
                queue_.OnFlushed(claims[k]);
            if (applied > 0) {
                // release: pairs with the checkpoint barrier's acquire
                // load. A reader observing applied == emitted must also
                // observe every row/optimizer write committed before the
                // increment.
                updates_applied_.fetch_add(applied,
                                           std::memory_order_release);
            }
            if (ledger != nullptr) {
                SpinGuard guard(ledger->lock);
                ledger->retired = j;
            }
            i = j;
        }
        return true;
    }

    /**
     * Injected flush-thread death (FaultSite::kFlushThreadDeath), checked
     * before each entry run: the thread vanishes with the unapplied
     * suffix of its batch in the ledger. The gate stays blocked
     * (in-flight counts unretired) until the watchdog reclaims it.
     */
    bool
    FlusherDies(FlusherSlot &slot)
    {
        if (!FaultPoint(injector_, FaultSite::kFlushThreadDeath, slot.index)
                 .has_value())
            return false;
        std::size_t orphaned = 0;
        {
            SpinGuard guard(slot.lock);
            orphaned = slot.Outstanding();
        }
        FRUGAL_WARN("fault injection: flush thread "
                    << slot.index << " dies holding " << orphaned
                    << " claim(s)");
        // relaxed: monotonic stat counter, read after joins.
        flusher_deaths_.fetch_add(1, std::memory_order_relaxed);
        slot.dead.store(true, std::memory_order_release);
        slot.busy.store(false, std::memory_order_release);
        gate_.Nudge();
        return true;
    }

    /**
     * Applies one claimed entry's whole W set through the PQ's shared
     * flush body (FlushWritesLocked), committing the sorted run with a
     * single row-lock acquisition (ApplyGradients) and refreshing the
     * owner's cache. The caller retires the tickets afterwards (a key
     * run may cover several tickets for the same entry, each retiring
     * its own claim).
     * @return the number of records applied.
     */
    std::size_t
    FlushEntryRun(GEntry &entry, LagSampler *lag)
    {
        SpinGuard guard(entry.lock());
        return FlushWritesLocked(
            queue_, entry,
            [&](GEntry &claimed, std::span<const WriteRecord> writes)
                FRUGAL_REQUIRES(claimed.lock()) {
                const Key key = claimed.key();
                // One transient-fault check per record; only the row
                // writes themselves are batched after it.
                // spin-block-ok: deliberate — the retry backoff sleeps
                // under the g-entry lock so a write storm delays only
                // this key (see AwaitHostWrite); contention on one
                // entry's lock is rare.
                for (std::size_t r = 0; r < writes.size(); ++r)
                    // spin-block-ok: see rationale above the loop.
                    AwaitHostWrite(key);
                thread_local std::vector<const float *> grad_ptrs;
                grad_ptrs.clear();
                for (const WriteRecord &record : writes)
                    // alloc-ok: thread_local scratch; capacity amortizes
                    // across entry runs (clear() keeps it), so growth is
                    // one-time.
                    grad_ptrs.push_back(claimed.gradLocked(record));
                table_.ApplyGradients(key, grad_ptrs.data(), writes.size(),
                                      optimizer_);
                RefreshCache(key);
                if (lag != nullptr)
                    lag->Record(writes.front().staged);
            });
    }

    /**
     * Transient host-write failures retry under the unified policy
     * (common/retry.h): bounded exponential backoff, 2 µs doubling to a
     * 1 ms cap. This runs under the g-entry lock, so a retry storm
     * delays only this parameter's flush.
     */
    void
    AwaitHostWrite(Key key)
    {
        RetryPolicy policy;
        policy.max_attempts = kHostWriteAttempts;
        policy.initial_backoff = std::chrono::microseconds(2);
        policy.max_backoff = std::chrono::microseconds(1000);
        const RetryOutcome outcome = RetryWithBackoff(
            policy, static_cast<std::uint64_t>(key), [&] {
                if (FaultPoint(injector_, FaultSite::kHostWriteTransient,
                               static_cast<std::uint64_t>(key))) {
                    // relaxed: monotonic stat counter, read after joins.
                    write_retries_.fetch_add(1, std::memory_order_relaxed);
                    return false;
                }
                return true;
            });
        FRUGAL_CHECK_MSG(outcome.ok(),
                         "host-table write for key "
                             << key << " still failing after "
                             << outcome.attempts
                             << " attempts; giving up (permanent "
                                "failure, not transient)");
    }

    /**
     * "H2D": copies the committed row into the owner's cache if the key
     * is resident there. A non-resident key is left to the prefetcher's
     * warm and the trainer's demand fill. The row is read in place: the
     * caller holds the g-entry lock, under which every write to this
     * row happens, so it is the committed host value and no row lock is
     * needed.
     */
    void
    RefreshCache(Key key)
    {
        caches_[ownership_.OwnerOf(key)]->UpdateIfPresent(key,
                                                          table_.Row(key));
    }

    // --- step boundary stages ------------------------------------------

    /**
     * Consistent checkpoint barrier after step s. All trainers are
     * parked in the barrier, so no new updates can be produced, and
     * step s's writes are already registered: wait for the flushers to
     * apply them all, then the host table + optimizer state IS the
     * model as of the end of step s.
     */
    void
    Checkpoint(Step s)
    {
        const auto pause_start = std::chrono::steady_clock::now();
        const auto quiescent = [&] {
            return queue_.SizeApprox() == 0 &&
                   // relaxed: this thread wrote emitted last, and it
                   // is frozen until the next boundary; only applied
                   // needs to synchronize.
                   updates_applied_.load(std::memory_order_acquire) >=
                       updates_emitted_.load(std::memory_order_relaxed);
        };
        while (!gate_.WaitFor(std::chrono::milliseconds(1), quiescent)) {
        }
        const auto save_start = std::chrono::steady_clock::now();
        CheckpointExtras extras;
        extras.optimizer_name = optimizer_.Name();
        extras.optimizer_state = optimizer_.ExportState();
        // The cursor is global: a resumed run's trace is the suffix that
        // starts at first_step_.
        extras.next_step = first_step_ + s + 1;
        // Unified retry policy (common/retry.h): transient checkpoint
        // failures (injected I/O errors, torn writes) get a few
        // backed-off attempts before the barrier gives up. The previous
        // checkpoint survives either way — the tmp-file + rename
        // protocol never touches it until a replacement is durable.
        RetryPolicy policy;
        policy.max_attempts = 3;
        policy.initial_backoff = std::chrono::microseconds(100);
        policy.max_backoff = std::chrono::microseconds(2000);
        const RetryOutcome saved = RetryWithBackoff(
            policy, static_cast<std::uint64_t>(s), [&] {
                if (SaveCheckpoint(table_, extras, config_.checkpoint_path,
                                   injector_)) {
                    return true;
                }
                ++report_.recovery.checkpoint_retries;
                return false;
            });
        if (!saved.ok()) {
            FRUGAL_WARN("checkpoint barrier after step "
                        << s << " failed to persist (" << saved.attempts
                        << " attempts); training continues");
        }
        ++report_.recovery.checkpoint_barriers;
        const auto save_end = std::chrono::steady_clock::now();
        report_.recovery.checkpoint_pause_seconds +=
            Seconds(pause_start, save_start);
        report_.recovery.checkpoint_save_seconds +=
            Seconds(save_start, save_end);
    }

    /**
     * Injected trainer death after step s → degraded mode: the first
     * live peer becomes the victim's successor, executing its trace GPU
     * share and owning its key shard from step s + 1 on.
     */
    void
    KillTrainer(GpuId victim, Step s)
    {
        std::uint32_t live = 0;
        GpuId successor = victim;
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            // relaxed: only this single-threaded callback writes the
            // dead flags.
            if (trainer_dead_[g].load(std::memory_order_relaxed))
                continue;
            ++live;
            if (successor == victim && static_cast<GpuId>(g) != victim)
                successor = static_cast<GpuId>(g);
        }
        // relaxed: see above.
        if (trainer_dead_[victim].load(std::memory_order_relaxed)) {
            FRUGAL_WARN("fault injection: trainer "
                        << victim << " is already dead; ignored");
            return;
        }
        if (live < 2) {
            FRUGAL_WARN("fault injection: refusing to kill the last live "
                        "trainer");
            return;
        }
        FRUGAL_WARN("fault injection: trainer "
                    << victim << " dies after step " << s
                    << "; degraded mode, successor " << successor);
        // Rewire execution and ownership before publishing the death: a
        // trainer that observes its dead flag (acquire) must also
        // observe the rewired map.
        for (std::uint32_t g = 0; g < n_gpus_; ++g) {
            // relaxed: only this callback writes executor.
            if (executor_[g].load(std::memory_order_relaxed) == victim)
                executor_[g].store(successor, std::memory_order_release);
        }
        // The victim's cache is dropped, not migrated: its rows are all
        // committed (gate invariant), so the successor re-fills from host
        // memory on demand.
        caches_[victim]->Clear();
        report_.recovery.ownership_remaps +=
            ownership_.Remap(victim, successor);
        trainer_dead_[victim].store(true, std::memory_order_release);
        ++report_.recovery.trainer_deaths;
    }

    // --- watchdog callbacks --------------------------------------------
    // Sampling reads atomics and leaf-ranked slot ledgers only — never a
    // lock of rank ≥ kGEntry (a wedged flush thread may hold those; the
    // diagnoser must not join it in the wedge).

    ProgressSnapshot
    Snapshot()
    {
        ProgressSnapshot snap;
        snap.current_step = current_step_.load(std::memory_order_acquire);
        snap.prefetch_frontier =
            prefetch_frontier_.load(std::memory_order_acquire);
        // relaxed: diagnostic snapshot; the two counters may be mutually
        // skewed, which Classify tolerates.
        snap.updates_emitted =
            updates_emitted_.load(std::memory_order_relaxed);
        // relaxed: diagnostic snapshot (see above).
        snap.updates_applied =
            updates_applied_.load(std::memory_order_relaxed);
        snap.pq_size = queue_.SizeApprox();
        for (const auto &slot : flusher_slots_) {
            if (slot->dead.load(std::memory_order_acquire)) {
                ++snap.dead_flushers;
                SpinGuard guard(slot->lock);
                snap.abandoned_claims += slot->Outstanding();
            }
        }
        snap.run_complete = run_complete_.load(std::memory_order_acquire);
        return snap;
    }

    bool
    Recover(StallKind kind)
    {
        if (kind == StallKind::kEmptyQueueIdle ||
            kind == StallKind::kUnknown) {
            // Cheap, safe, idempotent: re-deliver a possibly lost gate
            // wakeup. Not counted as a recovery — if the nudge fixes it,
            // progress resumes and the stall clears.
            gate_.Nudge();
            return false;
        }
        if (kind != StallKind::kDeadFlusher)
            return false;
        bool acted = false;
        for (auto &slot : flusher_slots_) {
            if (!slot->dead.load(std::memory_order_acquire))
                continue;
            // The thread has already returned (it set `dead` on its way
            // out); join reaps it so the slot can be reused.
            if (slot->thread.joinable())
                slot->thread.join();
            std::vector<ClaimTicket> abandoned;
            std::size_t retired = 0;
            {
                SpinGuard guard(slot->lock);
                abandoned.swap(slot->claimed);
                retired = std::exchange(slot->retired, 0);
            }
            abandoned.erase(abandoned.begin(),
                            abandoned.begin() +
                                static_cast<std::ptrdiff_t>(retired));
            // Reclaim: apply the abandoned entries' pending writes and
            // retire their in-flight counts. If a live flusher already
            // applied the writes through the zombie re-enqueue path, the
            // W set is empty and this just retires the claim — both keep
            // the per-key canonical order, because W records only ever
            // leave an entry through FlushEntryRun's sorted apply.
            ApplyClaims(abandoned, nullptr, nullptr);
            // relaxed: monotonic stat counter, reporting only.
            claims_reclaimed_.fetch_add(abandoned.size(),
                                        std::memory_order_relaxed);
            slot->dead.store(false, std::memory_order_release);
            slot->thread =
                std::thread(&Pipeline::FlushWorker, this, slot.get());
            // relaxed: monotonic stat counter, reporting only.
            flusher_respawns_.fetch_add(1, std::memory_order_relaxed);
            FRUGAL_WARN("watchdog: respawned flush thread "
                        << slot->index << " after reclaiming "
                        << abandoned.size() << " claim(s)");
            acted = true;
        }
        if (acted)
            gate_.Nudge();
        return acted;
    }

    std::string
    Diagnose()
    {
        std::ostringstream out;
        out << queue_.DebugDump();
        out << "step " << current_step_.load(std::memory_order_acquire)
            << ", prefetch frontier "
            << prefetch_frontier_.load(std::memory_order_acquire) << "\n";
        for (const auto &slot : flusher_slots_) {
            std::size_t ledger = 0;
            {
                SpinGuard guard(slot->lock);
                ledger = slot->Outstanding();
            }
            out << "flusher " << slot->index << ": "
                << (slot->dead.load(std::memory_order_acquire) ? "DEAD"
                                                               : "alive")
                << (slot->busy.load(std::memory_order_acquire) ? " busy"
                                                               : " idle")
                << ", " << ledger << " claim(s) in ledger\n";
        }
        if (budget_ != nullptr) {
            out << "memory pressure stage "
                << PressureStageName(budget_->stage()) << ", tracked "
                << budget_->TotalBytes() << " of "
                << budget_->budget_bytes() << " budget bytes\n";
        }
        return out.str();
    }

    // --- run-scoped state ----------------------------------------------

    const EngineConfig &config_;
    HostEmbeddingTable &table_;
    Optimizer &optimizer_;
    KeyOwnership &ownership_;
    /** Global step of the trace's first step (checkpoint cursors). */
    const Step first_step_;
    const Trace &trace_;
    const GradFn &grad_fn_;
    const StepHook &step_hook_;
    const Step n_steps_ = trace_.NumSteps();
    const std::uint32_t n_gpus_ = config_.n_gpus;
    FaultInjector *const injector_ = config_.fault_injector;
    MemoryBudget *const budget_ = config_.memory_budget;
    const bool oracular_ = config_.oracular_prefetch;

    // Priorities are read steps < S; one dequeue shard per flush thread
    // (Run rejects zero flush threads).
    TwoLevelPQ queue_{TwoLevelPQConfig{.max_step = n_steps_,
                                       .n_shards = config_.flush_threads}};
    GEntryRegistry registry_{config_.key_space};
    std::vector<std::unique_ptr<GpuCache>> caches_;
    // The next-use oracle (DESIGN.md §13): the trace is fully
    // materialized, so the future is known — one backward pass builds
    // the hint rows and dead lists that drive Belady-style eviction
    // hints and dead-key reclamation. Its steps are
    // trace-local, the coordinates current_step_ and the prefetch
    // frontier use.
    const NextUseIndex next_use_ =
        oracular_ ? trace_.BuildNextUseIndex() : NextUseIndex{};
    GateSignal gate_;

    std::atomic<Step> prefetch_frontier_{0};  // steps with R sets in place
    std::atomic<Step> current_step_{0};       // steps registered in W sets
    std::atomic<bool> run_complete_{false};
    std::atomic<bool> monitor_stop_{false};
    // Degradation knobs, written by the pressure monitor and read on the
    // prefetch/flush paths. They start at the configured values and only
    // move on stage transitions. Warming is the first mechanism shed —
    // pure opportunism (extra host gathers + cache inserts).
    std::atomic<bool> warming_enabled_{oracular_};
    std::atomic<std::size_t> effective_lookahead_{config_.lookahead};
    std::atomic<std::size_t> effective_flush_batch_{config_.flush_batch};
    // Degraded-mode execution map: executor_[g] is the trainer thread
    // currently executing trace GPU g's work (identity while healthy;
    // rewritten by KillTrainer at a step boundary).
    std::vector<std::atomic<GpuId>> executor_;
    std::vector<std::atomic<bool>> trainer_dead_;

    std::atomic<std::uint64_t> updates_emitted_{0};
    std::atomic<std::uint64_t> updates_applied_{0};
    std::atomic<std::uint64_t> entry_claims_{0};
    std::atomic<std::uint64_t> audit_violations_{0};
    std::atomic<std::uint64_t> write_retries_{0};
    std::atomic<std::uint64_t> flusher_deaths_{0};
    std::atomic<std::uint64_t> flusher_respawns_{0};
    std::atomic<std::uint64_t> claims_reclaimed_{0};
    std::atomic<std::uint64_t> cache_rows_shed_{0};
    std::atomic<std::uint64_t> late_warm_count_{0};
    std::atomic<std::uint64_t> warms_shed_count_{0};
    // Bytes the board's slot buffers retain (stored by each step
    // boundary) and the plan ring's vectors retain (grown by the
    // prefetcher); together they feed the kQueue pressure gauge.
    std::atomic<std::size_t> staging_bytes_{0};
    std::atomic<std::size_t> plan_bytes_{0};

    // The step boundary's recovery counters accumulate here (written
    // only by the single-threaded barrier completion; read after the
    // trainer joins); Report fills in the rest.
    RunReport report_;

    // Prefetcher-only warm scratch: the subset of a future step's keys
    // owned by the thread that will execute them, plus their hints.
    std::vector<Key> warm_keys_;
    std::vector<Step> warm_hints_;

#if FRUGAL_DCHECK_ENABLED
    // The invariant auditor (§3.3 safety argument, machine-checked).
    // Disarmed for the async ablation: disable_gate_unsafe *exists* to
    // break the invariant, and its violations are reported through
    // report.audit_violations instead of a shutdown panic.
    InvariantAuditor auditor_;
    const bool auditor_armed_ = !config_.disable_gate_unsafe;
#endif

    // The staging board: one slot per trace GPU. The step barrier orders
    // a slot's fill before its step's boundary and that boundary before
    // the slot's next fill.
    std::vector<CacheAligned<BoardSlot>> board_;
    // The plan ring: step f's plan is slot f % size, sized to the
    // configured lookahead (capped at the run's steps) so the prefetcher
    // reuses a slot only after its boundary ran the plan (DESIGN.md §6).
    std::vector<CacheAligned<StepPlan>> plans_;
    std::vector<CacheAligned<TrainerSlot>> trainers_;
    std::vector<std::unique_ptr<FlusherSlot>> flusher_slots_;
    std::barrier<StepCompletion> step_barrier_;
    // Last: ~Watchdog stops its thread, which runs the callbacks above,
    // before any state they read is destroyed.
    Watchdog watchdog_;
};

void
StepCompletion::operator()() noexcept
{
    pipeline->StepBoundary();
}

}  // namespace

RunReport
FrugalEngine::Run(const Trace &trace, const GradFn &grad_fn,
                  const StepHook &step_hook)
{
    FRUGAL_CHECK_MSG(trace.n_gpus() == config_.n_gpus,
                     "trace built for " << trace.n_gpus()
                                        << " GPUs, engine has "
                                        << config_.n_gpus);
    FRUGAL_CHECK_MSG(trace.key_space() <= config_.key_space,
                     "trace key space exceeds the table");
    FRUGAL_CHECK_MSG(
        config_.fault_injector == nullptr ||
            !config_.fault_injector->plan().HasRuleFor(
                FaultSite::kTrainerDeath) ||
            config_.n_gpus >= 2,
        "trainer-death fault plans require at least 2 GPUs");
    // Each of these would hang the run rather than fail it: no thread
    // would ever apply the deferred (priority ∞) entries, no claim
    // would take an entry, or the prefetch window would never open.
    FRUGAL_CHECK_MSG(config_.flush_threads > 0,
                     "flush_threads must be at least 1");
    FRUGAL_CHECK_MSG(config_.flush_batch > 0,
                     "flush_batch must be at least 1");
    FRUGAL_CHECK_MSG(config_.lookahead > 0, "lookahead must be at least 1");

    Pipeline pipeline(config_, *table_, *optimizer_, ownership_,
                      resume_cursor_, trace, grad_fn, step_hook);
    const auto run_start = std::chrono::steady_clock::now();
    std::thread prefetcher(&Pipeline::Prefetcher, &pipeline);
    pipeline.StartFlushWorkers();
    std::thread pressure_monitor;
    if (config_.memory_budget != nullptr)
        pressure_monitor = std::thread(&Pipeline::PressureMonitor, &pipeline);
    std::vector<std::thread> trainers;
    for (std::uint32_t g = 0; g < config_.n_gpus; ++g)
        trainers.emplace_back(&Pipeline::Trainer, &pipeline,
                              static_cast<GpuId>(g));

    for (auto &t : trainers)
        t.join();
    // All updates are registered; let the pipeline wind down (paper:
    // "the system waits for flushing threads to write all deferred
    // parameter updates to host memory").
    prefetcher.join();
    pipeline.WindDown();
    if (pressure_monitor.joinable())
        pressure_monitor.join();

    RunReport report = pipeline.Report(
        Seconds(run_start, std::chrono::steady_clock::now()));
    report.engine = Name();
    return report;
}

}  // namespace frugal
