#include "pq/tree_heap_pq.h"

#include <utility>

#include "common/logging.h"

namespace frugal {

void
TreeHeapPQ::PushLocked(HeapNode node)
{
    // alloc-ok: vector doubling; heap capacity stabilizes at the peak
    // live+stale node count, so steady state never reallocates.
    heap_.push_back(node);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (heap_[parent].priority <= heap_[i].priority)
            break;
        std::swap(heap_[parent], heap_[i]);
        i = parent;
    }
}

TreeHeapPQ::HeapNode
TreeHeapPQ::PopMinLocked()
{
    FRUGAL_CHECK(!heap_.empty());
    HeapNode min = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t left = 2 * i + 1;
        const std::size_t right = 2 * i + 2;
        std::size_t smallest = i;
        if (left < n && heap_[left].priority < heap_[smallest].priority)
            smallest = left;
        if (right < n && heap_[right].priority < heap_[smallest].priority)
            smallest = right;
        if (smallest == i)
            break;
        std::swap(heap_[i], heap_[smallest]);
        i = smallest;
    }
    return min;
}

void
TreeHeapPQ::Enqueue(GEntry *entry, Priority priority)
{
    SpinGuard guard(heap_lock_);
    PushLocked({priority, entry});
    // spin-block-ok: node-sized multiset insert; the lazy-invalidation
    // bookkeeping is the PQ's own state and the section stays O(log n).
    live_.insert(priority);
}

void
TreeHeapPQ::OnPriorityChange(GEntry *entry, Priority old_priority,
                             Priority new_priority)
{
    SpinGuard guard(heap_lock_);
    // Lazy invalidation: push the fresh pair, leave the stale one for a
    // dequeuer to discard.
    PushLocked({new_priority, entry});
    auto it = live_.find(old_priority);
    FRUGAL_CHECK_MSG(it != live_.end(),
                     "priority change for a non-live priority");
    live_.erase(it);
    // spin-block-ok: node-sized multiset insert (lazy-invalidation
    // bookkeeping), same bounded section as Enqueue.
    live_.insert(new_priority);
}

std::size_t
TreeHeapPQ::DequeueClaim(std::vector<ClaimTicket> &out,
                         std::size_t max_entries, std::size_t shard_hint)
{
    (void)shard_hint;  // single shared heap; no shards to steer towards
    const std::size_t initial = out.size();
    max_entries += initial;  // budget is "append up to max_entries"
    while (out.size() < max_entries) {
        HeapNode node;
        {
            SpinGuard guard(heap_lock_);
            if (heap_.empty())
                break;
            node = PopMinLocked();
            ++popped_unchecked_;
        }
        // Validate outside the heap lock: the entry lock is always taken
        // before the heap lock everywhere else (Enqueue/OnPriorityChange
        // run under the caller's entry lock), so nesting heap inside entry
        // here keeps the lock order acyclic.
        SpinGuard entry_guard(node.entry->lock());
        if (node.entry->enqueuedLocked() &&
            node.entry->priorityLocked() == node.priority) {
            node.entry->setEnqueuedLocked(false);
            {
                SpinGuard guard(heap_lock_);
                --popped_unchecked_;
                auto it = live_.find(node.priority);
                FRUGAL_CHECK(it != live_.end());
                live_.erase(it);
                // spin-block-ok: node-sized multiset insert moving the
                // priority from live to in-flight; bounded section.
                in_flight_.insert(node.priority);
            }
            // alloc-ok: caller-owned ticket buffer; capacity is reused
            // across DequeueClaim batches, so growth amortizes away.
            out.push_back(ClaimTicket{node.entry, node.priority});
        } else {
            {
                SpinGuard guard(heap_lock_);
                --popped_unchecked_;
            }
            // relaxed: monotonic stat counter.
            stale_discards_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return out.size() - initial;
}

void
TreeHeapPQ::OnFlushed(const ClaimTicket &ticket)
{
    SpinGuard guard(heap_lock_);
    auto it = in_flight_.find(ticket.priority);
    FRUGAL_CHECK(it != in_flight_.end());
    in_flight_.erase(it);
}

void
TreeHeapPQ::Unenqueue(GEntry *entry, Priority priority)
{
    (void)entry;  // the heap pair is discarded lazily by a dequeuer
    SpinGuard guard(heap_lock_);
    auto it = live_.find(priority);
    FRUGAL_CHECK(it != live_.end());
    live_.erase(it);
}

bool
TreeHeapPQ::HasPendingAtOrBelow(Step step) const
{
    SpinGuard guard(heap_lock_);
    return (!live_.empty() && *live_.begin() <= step) ||
           (!in_flight_.empty() && *in_flight_.begin() <= step);
}

std::size_t
TreeHeapPQ::SizeApprox() const
{
    SpinGuard guard(heap_lock_);
    return live_.size();
}

std::size_t
TreeHeapPQ::AuditInvariants(bool quiescent) const
{
    std::size_t violations = 0;
    SpinGuard guard(heap_lock_);
    // Heap order: every parent ≤ both children.
    for (std::size_t i = 1; i < heap_.size(); ++i) {
        const std::size_t parent = (i - 1) / 2;
        if (heap_[parent].priority > heap_[i].priority) {
            ++violations;
            FRUGAL_ERROR("tree-heap audit: heap order broken at node "
                         << i << " (parent " << heap_[parent].priority
                         << " > child " << heap_[i].priority << ")");
        }
    }
    // Every live priority has a physical pair — in the heap, or popped
    // by a dequeuer that has not yet checked it against its entry.
    // Stale pairs only ever add to the heap, so live can never exceed
    // that count.
    if (live_.size() > heap_.size() + popped_unchecked_) {
        ++violations;
        FRUGAL_ERROR("tree-heap audit: " << live_.size()
                                         << " live priorities but only "
                                         << heap_.size() << " heap + "
                                         << popped_unchecked_
                                         << " popped nodes");
    }
    if (quiescent && !live_.empty()) {
        ++violations;
        FRUGAL_ERROR("tree-heap audit: " << live_.size()
                                         << " live priorities remain at "
                                            "quiescence");
    }
    if (quiescent && !in_flight_.empty()) {
        ++violations;
        FRUGAL_ERROR("tree-heap audit: " << in_flight_.size()
                                         << " in-flight claims remain at "
                                            "quiescence");
    }
    return violations;
}

}  // namespace frugal
