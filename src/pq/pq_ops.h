/**
 * @file
 * Composite g-entry/queue operations — the three transitions of the P²F
 * algorithm (§3.3), shared by the controller threads and the tests:
 *
 *  - RegisterRead: the prefetch thread saw `key` in the sample queue for
 *    step s ⇒ insert s into the R set (and re-prioritise if enqueued).
 *    The engine calls it once per unique key per step, when it plans
 *    the step.
 *  - RegisterUpdate: a step registers ⟨key, s, Δ⟩ ⇒ remove s from the
 *    R set, append to the W set (copying Δ into the entry's row
 *    buffer), enqueue or re-prioritise. It is the per-record reference
 *    protocol the PQ tests and benches drive; the engine's step
 *    boundary performs the same transition once per key run, in one
 *    lock hold, enqueuing through TwoLevelPQ's batch
 *    (PropagatePriorityBatchedLocked, Pipeline::RegisterStep).
 *  - FlushClaimed: a flush thread owns a claimed entry ⇒ apply its W
 *    set in canonical (step, src) order. Its locked body,
 *    FlushWritesLocked, is also the engine's (Pipeline::FlushEntryRun).
 *
 * Each helper takes the entry lock internally, except the *Locked ones,
 * whose caller holds it; the FlushQueue methods they call are specified
 * to run under that lock.
 */
#ifndef FRUGAL_PQ_PQ_OPS_H_
#define FRUGAL_PQ_PQ_OPS_H_

#include <span>
#include <utility>

#include "pq/flush_queue.h"
#include "pq/g_entry.h"
#include "pq/two_level_pq.h"

namespace frugal {

/** Applies a priority transition to the queue; entry lock held. */
inline void
PropagatePriorityLocked(FlushQueue &queue, GEntry &entry, Priority before,
                        Priority after) FRUGAL_REQUIRES(entry.lock())
{
    if (!entry.hasWritesLocked()) {
        // Entries without pending writes are never enqueued; nothing to
        // propagate (they are re-enqueued when a write arrives).
        return;
    }
    if (!entry.enqueuedLocked()) {
        entry.setEnqueuedLocked(true);
        queue.Enqueue(&entry, after);
    } else if (before != after) {
        queue.OnPriorityChange(&entry, before, after);
    }
}

/**
 * PropagatePriorityLocked for a step-boundary registration, after the
 * key run's writes were appended: a newly pending entry joins `queue`'s
 * open batch (TwoLevelPQ::BeginBatch) instead of enqueuing alone. Its
 * `enqueued` flag is set and its bucket's logical count raised here,
 * under the entry lock, so a flusher that claims it through an older
 * stale copy, or a RegisterRead that re-prioritises it, decrements only
 * after this increment; the slot copy publishes with the batch. An entry
 * still enqueued from an earlier step (only the gate's absence,
 * disable_gate_unsafe, leaves a read step's writes unflushed at its
 * boundary) re-prioritises at once.
 */
inline void
PropagatePriorityBatchedLocked(TwoLevelPQ &queue, GEntry &entry,
                               Priority before, Priority after)
    FRUGAL_REQUIRES(entry.lock())
{
    FRUGAL_DCHECK(entry.hasWritesLocked());
    if (!entry.enqueuedLocked()) {
        entry.setEnqueuedLocked(true);
        queue.EnqueueBatched(&entry, after);
    } else if (before != after) {
        queue.OnPriorityChange(&entry, before, after);
    }
}

/** Prefetch-side transition: step `s` will read `entry`'s parameter. */
inline void
RegisterRead(FlushQueue &queue, GEntry &entry, Step step)
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.AddReadLocked(step);
    PropagatePriorityLocked(queue, entry, before, entry.priorityLocked());
}

/** Drain-side transition: step `record.step` updated the parameter by
 *  `grad`, which is copied into the entry's row buffer. */
inline void
RegisterUpdate(FlushQueue &queue, GEntry &entry, const WriteRecord &record,
               std::span<const float> grad = {})
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.RemoveReadLocked(record.step);
    entry.AddWriteLocked(record, grad);
    PropagatePriorityLocked(queue, entry, before, entry.priorityLocked());
}

/**
 * The locked body of every flush of one claimed entry, shared by
 * FlushClaimed and the engine's Pipeline::FlushEntryRun: sorts the W
 * set into canonical (step, src) order, hands the entry and the sorted
 * run to `apply_run` (the row write and whatever must land before the
 * gate opens, e.g. the owner's cache refresh), retires a standing
 * enqueue, then clears the W set keeping its capacity. An empty W set
 * (a second ticket for an already-flushed entry) returns 0. Templated
 * on the queue so TwoLevelPQ's calls stay direct.
 *
 * One entry-lock hold pins the per-key application order to
 * lock-acquisition order: a second flush thread that claims the
 * entry's newer writes can only apply them after this one releases the
 * lock, so every row sees the canonical (step, src) order.
 *
 * @return the number of records applied.
 */
template <typename Queue, typename ApplyRunFn>
std::size_t
FlushWritesLocked(Queue &queue, GEntry &entry, ApplyRunFn &&apply_run)
    FRUGAL_REQUIRES(entry.lock())
{
    const std::span<const WriteRecord> writes = entry.SortWritesLocked();
    if (writes.empty()) {
        // Only entries with pending writes are ever enqueued.
        FRUGAL_DCHECK(!entry.enqueuedLocked());
        return 0;
    }
    apply_run(entry, writes);
    // A step registration may have added writes and re-enqueued the
    // entry between our claim and this point (or the prefetch thread
    // gave a claimed ∞-priority entry a read). Those writes were just
    // applied as well, so the standing enqueue must be retired —
    // otherwise it would survive as a zombie whose logical count never
    // drains (the queue would never look empty again). It goes only
    // now: until the row is written, its logical count is what keeps
    // the reading step's gate shut, since this claim's in-flight count
    // may sit in a later bucket (e.g. ∞).
    if (entry.enqueuedLocked()) {
        const Priority standing = entry.priorityLocked();
        entry.setEnqueuedLocked(false);
        queue.Unenqueue(&entry, standing);
    }
    const std::size_t applied = writes.size();
    entry.ClearWritesLocked();
    return applied;
}

/**
 * Full flush of one claimed entry: applies its pending writes in place
 * through `apply` (called once per record, in canonical order), invokes
 * `post(key)` once if anything was applied, clears the W set, then
 * reports completion to the queue so the gate can open. This is the body
 * of a flush thread's per-entry work (§3.3 "flush the parameter updates
 * recorded in its W set to host memory"). Frugal's flush threads use the
 * post hook to copy the committed host row into the owner GPU's cache
 * ("H2D"), which must complete before the gate may open.
 *
 * @return the number of records applied.
 */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushClaimed(FlushQueue &queue, const ClaimTicket &ticket, ApplyFn &&apply,
             PostFn &&post)
{
    GEntry &entry = *ticket.entry;
    std::size_t applied = 0;
    {
        SpinGuard guard(entry.lock());
        applied = FlushWritesLocked(
            queue, entry,
            [&](GEntry &claimed, std::span<const WriteRecord> writes) {
                for (const WriteRecord &record : writes)
                    apply(claimed.key(), record);
                post(claimed.key());
            });
    }
    queue.OnFlushed(ticket);
    return applied;
}

/** Flush without a post hook. */
template <typename ApplyFn>
std::size_t
FlushClaimed(FlushQueue &queue, const ClaimTicket &ticket, ApplyFn &&apply)
{
    return FlushClaimed(queue, ticket, std::forward<ApplyFn>(apply),
                        [](Key) {});
}

}  // namespace frugal

#endif  // FRUGAL_PQ_PQ_OPS_H_
