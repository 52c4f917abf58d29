/**
 * @file
 * Abstract interface of the priority queue that schedules proactive
 * flushes (§3.3–§3.4). Two implementations exist:
 *   - TwoLevelPQ   — the paper's contribution (priority index over
 *                    lock-free buckets, O(1) operations, scan-range
 *                    compression);
 *   - TreeHeapPQ   — the baseline evaluated in Exp #4 (binary tree heap,
 *                    O(log N) operations, near-root serialisation).
 *
 * Semantics shared by both:
 *   - Only g-entries with a non-empty W set are enqueued.
 *   - `Enqueue` / `OnPriorityChange` are called with the g-entry lock held
 *     (the entry lock serialises an entry's priority transitions, so the
 *     (old, new) pair handed to OnPriorityChange is exact).
 *   - `DequeueClaim` pops up to `max_entries` g-entries with the smallest
 *     priorities and *claims* them: each returned entry has had its
 *     `enqueued` flag cleared under its lock, so exactly one flush thread
 *     owns it until it re-enqueues. The claim is tracked as *in flight*
 *     until the flush thread reports completion via `OnFlushed`.
 *   - `HasPendingAtOrBelow(s)` implements the P²F gate: it answers "does
 *     any enqueued OR in-flight entry have priority ≤ s?", i.e. the
 *     negation of the condition for starting step s (PQ.top() > s).
 *     Counting in-flight claims closes a window the paper's wording
 *     leaves open: a dequeued-but-not-yet-applied update must still block
 *     readers, otherwise a trainer could read host memory between the
 *     dequeue and the DRAM write.
 */
#ifndef FRUGAL_PQ_FLUSH_QUEUE_H_
#define FRUGAL_PQ_FLUSH_QUEUE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "frugal/thread_safety.h"
#include "pq/g_entry.h"

namespace frugal {

/**
 * A claim ticket: the entry plus the priority it was claimed at. The
 * priority must travel with the claim (not through the entry, whose
 * priority keeps moving): between a claim and its OnFlushed the entry may
 * be re-enqueued and even re-claimed by another flush thread, and each
 * completion must retire exactly the in-flight count its own claim
 * raised.
 */
struct ClaimTicket
{
    GEntry *entry = nullptr;
    Priority priority = kInfiniteStep;
};

/** Priority queue of g-entries awaiting flush. */
class FlushQueue
{
  public:
    virtual ~FlushQueue() = default;

    /** Registers an entry that just gained pending writes. Caller holds
     *  the entry lock and has set `enqueued` to true. */
    virtual void Enqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) = 0;

    /**
     * Migrates an entry between priorities (paper's AdjustPriority).
     * Caller holds the entry lock; `old_priority != new_priority`.
     */
    virtual void OnPriorityChange(GEntry *entry, Priority old_priority,
                                  Priority new_priority)
        FRUGAL_REQUIRES(entry->lock()) = 0;

    /**
     * Claims and appends up to `max_entries` further entries to `out`,
     * in priority order (existing contents of `out` are preserved).
     * `shard_hint` identifies the calling flush thread: implementations
     * with sharded buckets (TwoLevelPQ) drain the hinted sub-set first so
     * concurrent dequeuers scan disjoint slots, falling back to peers'
     * shards only when their own runs dry — the hint is a performance
     * steer, never a visibility restriction (any single caller can still
     * drain the whole queue). Implementations without shards ignore it.
     * @return the number of tickets appended.
     */
    virtual std::size_t DequeueClaim(std::vector<ClaimTicket> &out,
                                     std::size_t max_entries,
                                     std::size_t shard_hint) = 0;

    /** As above with no shard preference (hint 0). */
    std::size_t
    DequeueClaim(std::vector<ClaimTicket> &out, std::size_t max_entries)
    {
        return DequeueClaim(out, max_entries, 0);
    }

    /**
     * Completion callback: the flush thread finished applying the claimed
     * entry's writes to host memory. Retires the in-flight count raised
     * by exactly this ticket's claim. Must be called exactly once per
     * ticket, without the entry lock held.
     */
    virtual void OnFlushed(const ClaimTicket &ticket) = 0;

    /**
     * Retires an enqueue without a dequeue: called (under the entry
     * lock) when a flush thread discovers its claimed entry was
     * *re-enqueued* while the claim was in flight and it has just
     * consumed those newer writes too — the standing enqueue at
     * `priority` no longer corresponds to pending work. The physical
     * queue copy becomes a lazily-discarded stale entry.
     */
    virtual void Unenqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) = 0;

    /** The P²F gate predicate: ∃ enqueued or in-flight entry with
     *  priority ≤ step. */
    virtual bool HasPendingAtOrBelow(Step step) const = 0;

    /** Total enqueued entries (approximate under concurrency). */
    virtual std::size_t SizeApprox() const = 0;

    /**
     * Implementation self-audit (see pq/invariant_auditor.h): verifies
     * queue-internal accounting — e.g. per-bucket logical/in-flight
     * counters never negative, slot-set popped ≤ published — logging
     * each breach. With `quiescent` the caller asserts no operation is
     * concurrently in flight, enabling exact checks (all counters
     * drained to zero). Safe to call concurrently when !quiescent.
     * @return the number of violated invariants (0 = clean).
     */
    virtual std::size_t
    AuditInvariants(bool quiescent) const
    {
        (void)quiescent;
        return 0;
    }

    /**
     * Advances the scan-range hints (§3.4 "scan range compression"):
     * no live entry can have a finite priority below `floor` (the current
     * training step) or above `horizon` (current step + lookahead L).
     * Implementations may ignore this (TreeHeapPQ does).
     */
    virtual void SetScanBounds(Step floor, Step horizon) { (void)floor;
                                                           (void)horizon; }

    /**
     * Best-effort human-readable state dump for stall diagnosis (the
     * watchdog prints it when the pipeline freezes): top priority,
     * per-bucket logical/in-flight counts, scan bounds. Must be safe to
     * call concurrently with every other operation and must not take
     * locks of rank ≥ kGEntry — a wedged flush thread may hold those.
     */
    virtual std::string
    DebugDump() const
    {
        return {};
    }

    /** Implementation name for reports. */
    virtual std::string Name() const = 0;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_FLUSH_QUEUE_H_
