/**
 * @file
 * The baseline priority queue of Exp #4: a classic binary tree heap.
 *
 * The paper's baseline is a concurrent binary heap with per-node
 * spinlocks; its defining costs are O(log N) per operation and
 * serialisation near the root, since every insert/delete traffics through
 * the top of the tree. This implementation realises the same cost model
 * with a single heap lock guarding sift-up/down (the root serialisation
 * made explicit) and lazy invalidation for AdjustPriority (a fresh
 * ⟨priority, entry⟩ pair is pushed; dequeuers discard pairs whose priority
 * no longer matches the entry, mirroring TwoLevelPQ's validation rule so
 * the two queues are drop-in interchangeable behind FlushQueue).
 *
 * A `std::multiset` of live priorities (also O(log N)) backs the gate
 * predicate exactly.
 */
#ifndef FRUGAL_PQ_TREE_HEAP_PQ_H_
#define FRUGAL_PQ_TREE_HEAP_PQ_H_

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "check/model_sync.h"
#include "common/spinlock.h"
#include "pq/flush_queue.h"

namespace frugal {

/** Coarse-locked binary heap FlushQueue baseline. */
class TreeHeapPQ final : public FlushQueue
{
  public:
    TreeHeapPQ() = default;

    using FlushQueue::DequeueClaim;

    void Enqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    void OnPriorityChange(GEntry *entry, Priority old_priority,
                          Priority new_priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    std::size_t DequeueClaim(std::vector<ClaimTicket> &out,
                             std::size_t max_entries,
                             std::size_t shard_hint) override;
    void OnFlushed(const ClaimTicket &ticket) override;
    void Unenqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    bool HasPendingAtOrBelow(Step step) const override;
    std::size_t SizeApprox() const override;
    std::size_t AuditInvariants(bool quiescent) const override;
    std::string Name() const override { return "tree-heap"; }

    /** Stale (lazily invalidated) pairs discarded so far. */
    std::uint64_t staleDiscards() const
    {
        // relaxed: monotonic stat counter, read for reporting only.
        return stale_discards_.load(std::memory_order_relaxed);
    }

  private:
    struct HeapNode
    {
        Priority priority;
        GEntry *entry;
    };

    /** Pushes a node and sifts it up; caller holds heap_lock_. */
    void PushLocked(HeapNode node) FRUGAL_REQUIRES(heap_lock_);
    /** Pops the minimum node; caller holds heap_lock_ and heap_ is
     *  non-empty. */
    HeapNode PopMinLocked() FRUGAL_REQUIRES(heap_lock_);

    mutable Spinlock heap_lock_{LockRank::kFlushQueue};
    std::vector<HeapNode> heap_ FRUGAL_GUARDED_BY(heap_lock_);
    std::multiset<Priority> live_ FRUGAL_GUARDED_BY(heap_lock_);
    std::multiset<Priority> in_flight_ FRUGAL_GUARDED_BY(heap_lock_);
    /** Nodes a dequeuer has popped but not yet checked against their
     *  entry; a live one's priority is still in live_ meanwhile. */
    std::size_t popped_unchecked_ FRUGAL_GUARDED_BY(heap_lock_) = 0;
    model_atomic<std::uint64_t> stale_discards_{0};
};

}  // namespace frugal

#endif  // FRUGAL_PQ_TREE_HEAP_PQ_H_
