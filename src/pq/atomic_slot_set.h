/**
 * @file
 * A lock-free, dynamically growing multiset of pointers.
 *
 * This is the second level of the two-level PQ (§3.4): each priority bucket
 * holds the g-entries sharing that priority value. The required operations
 * are exactly
 *   - Insert(ptr)  — add an element (duplicates allowed; the PQ layer
 *                    deduplicates logically via the g-entry `enqueued`
 *                    flag),
 *   - PopAny()     — remove and return *some* element,
 * both lock-free (CAS loops only, no mutual exclusion). InsertBatch adds
 * a run of elements, paying the shared counters once per run (and
 * `published` once per segment) instead of once per element; Insert is
 * a run of one.
 *
 * The paper uses a lock-free dynamic hash table (it needs key lookup for
 * its delete-from-old-bucket step). Frugal's AdjustPriority here uses
 * *lazy deletion* instead — the stale copy stays until a dequeuer pops and
 * discards it — so membership lookup is unnecessary and a slot multiset
 * suffices. The observable semantics (lock-freedom, O(1) amortised ops,
 * duplicate tolerance via priority validation) are those §3.4 relies on.
 *
 * Layout: a singly linked list of fixed-size segments of atomic slots.
 * Insert claims the next index from a monotone cursor and stores into the
 * (necessarily free) slot; PopAny scans from an advancing head hint and
 * CASes a non-null slot back to nullptr. Slots are never reused, but:
 *  - each segment counts published and popped elements, so drained
 *    segments are skipped in O(1);
 *  - a `scan_head_` pointer advances permanently past leading segments
 *    with published == popped == capacity (they can never refill, since
 *    the insert cursor is monotone), keeping PopAny O(1) amortised even
 *    for the long-lived ∞ bucket.
 *
 * PopAny may return nullptr spuriously while a racing Insert is between
 * claiming its index and publishing the pointer; callers treat the set as
 * a polling source (the flush threads loop; the consistency gate never
 * relies on PopAny).
 */
#ifndef FRUGAL_PQ_ATOMIC_SLOT_SET_H_
#define FRUGAL_PQ_ATOMIC_SLOT_SET_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "check/model_sync.h"
#include "common/logging.h"
#include "frugal/annotations.h"

namespace frugal {

/** Lock-free grow-only multiset of `T*`. */
template <typename T>
class AtomicSlotSet
{
  public:
    explicit AtomicSlotSet(std::size_t segment_slots = 32)
        : segment_slots_(segment_slots)
    {
        FRUGAL_CHECK(segment_slots > 0);
        auto *first = new Segment(segment_slots_, 0);
        head_ = first;
        tail_hint_.store(first, std::memory_order_release);
        scan_head_.store(first, std::memory_order_release);
    }

    ~AtomicSlotSet()
    {
        Segment *seg = head_;
        while (seg != nullptr) {
            Segment *next = seg->next.load(std::memory_order_acquire);
            delete seg;
            seg = next;
        }
    }

    AtomicSlotSet(const AtomicSlotSet &) = delete;
    AtomicSlotSet &operator=(const AtomicSlotSet &) = delete;

    /** Adds `item` (never fails; grows as needed). */
    void Insert(T *item) { InsertBatch(&item, 1); }

    /**
     * Adds `items[0..n)` with one cursor claim and one occupancy add for
     * the whole run and one `published` announcement per segment it
     * spans. Poppers see the run's slots fill in index order.
     */
    void
    InsertBatch(T *const *items, std::size_t n)
    {
        if (n == 0)
            return;
        // relaxed: the cursor is a pure index dispenser — uniqueness is
        // all we need; the slot stores below publish the data.
        std::size_t index = cursor_.fetch_add(n, std::memory_order_relaxed);
        occupied_.fetch_add(n, std::memory_order_release);
        Segment *seg = SegmentFor(index);
        for (std::size_t done = 0; done < n;) {
            if (index >= seg->base_index + segment_slots_)
                seg = NextSegment(seg);
            const std::size_t offset = index - seg->base_index;
            const std::size_t take =
                std::min(n - done, segment_slots_ - offset);
            // The cursor hands out each index exactly once, so these
            // slots are exclusively ours. A segment's share is
            // *announced* before its pointers are published so "popped
            // ≤ published" holds per segment at every instant (the
            // invariant auditor checks it mid-run); a popper that sees
            // the occupancy or the announcement before a pointer merely
            // treats the slot as mid-publish, which the PopAny contract
            // already allows.
            seg->published.fetch_add(take, std::memory_order_release);
            for (std::size_t i = 0; i < take; ++i)
                Publish(seg->slots[offset + i], items[done + i]);
            done += take;
            index += take;
        }
    }

    /**
     * Removes some element, if any. Returns nullptr when the set is
     * empty or every remaining element is mid-publish.
     */
    T *
    PopAny()
    {
        for (;;) {
            if (occupied_.load(std::memory_order_acquire) == 0)
                return nullptr;
            AdvanceScanHead();
            bool saw_race = false;
            const std::size_t limit =
                cursor_.load(std::memory_order_acquire);
            for (Segment *seg = scan_head_.load(std::memory_order_acquire);
                 seg != nullptr && seg->base_index < limit;
                 seg = seg->next.load(std::memory_order_acquire)) {
                const std::size_t published =
                    seg->published.load(std::memory_order_acquire);
                if (seg->popped.load(std::memory_order_acquire) >=
                    published) {
                    continue;  // drained (or everything is mid-publish)
                }
                const std::size_t upto =
                    std::min(segment_slots_, limit - seg->base_index);
                for (std::size_t i = 0; i < upto; ++i) {
                    T *item =
                        seg->slots[i].ptr.load(std::memory_order_acquire);
                    if (item == nullptr)
                        continue;
                    // relaxed: on CAS failure we only learn "someone
                    // else claimed it"; no data is read through the
                    // observed value.
                    if (seg->slots[i].ptr.compare_exchange_strong(
                            item, nullptr, std::memory_order_acq_rel,
                            std::memory_order_relaxed)) {
                        // Matching edge of the Insert-side annotation:
                        // the claim is ordered after the publish.
                        FRUGAL_ANNOTATE_HAPPENS_AFTER(&seg->slots[i]);
                        seg->popped.fetch_add(1, std::memory_order_release);
                        occupied_.fetch_sub(1, std::memory_order_release);
                        return item;
                    }
                    saw_race = true;  // another popper took it; rescan
                }
            }
            if (!saw_race)
                return nullptr;
        }
    }

    /** Number of elements currently stored (racy snapshot). */
    std::size_t
    size() const
    {
        return occupied_.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

    /** Accounting snapshot taken by AuditAccounting(). */
    struct AccountingSnapshot
    {
        std::size_t announced = 0;  ///< Σ per-segment published counters
        std::size_t popped = 0;     ///< Σ per-segment popped counters
        std::size_t segments = 0;   ///< chain length
        /** Every segment satisfied popped ≤ published ≤ capacity. */
        bool per_segment_consistent = true;
    };

    /**
     * Walks the whole segment chain checking the slot-accounting
     * invariant: per segment, popped ≤ published ≤ capacity at every
     * instant (Insert announces its counter *before* publishing the
     * pointer, so this holds even mid-publish). Safe to call
     * concurrently with Insert/PopAny; counters are a racy-but-safe
     * snapshot. At quiescence, announced − popped == size() exactly.
     */
    AccountingSnapshot
    AuditAccounting() const
    {
        AccountingSnapshot snap;
        for (const Segment *seg = head_; seg != nullptr;
             seg = seg->next.load(std::memory_order_acquire)) {
            // Load popped before published: a racing Insert can only
            // raise published, a racing PopAny only raises popped, so
            // this order can under-count popped but never fabricate
            // popped > published.
            const std::size_t popped =
                seg->popped.load(std::memory_order_acquire);
            const std::size_t published =
                seg->published.load(std::memory_order_acquire);
            if (popped > published || published > segment_slots_)
                snap.per_segment_consistent = false;
            snap.announced += published;
            snap.popped += popped;
            ++snap.segments;
        }
        return snap;
    }

  private:
    struct Slot
    {
        model_atomic<T *> ptr{nullptr};
    };

    struct Segment
    {
        Segment(std::size_t n, std::size_t base)
            : slots(new Slot[n]), base_index(base)
        {
        }

        std::unique_ptr<Slot[]> slots;
        const std::size_t base_index;
        /** Completed Insert publishes into this segment (monotone). */
        model_atomic<std::size_t> published{0};
        /** Completed PopAny removals from this segment (monotone). */
        model_atomic<std::size_t> popped{0};
        model_atomic<Segment *> next{nullptr};
    };

    /** Stores `item` into its claimed, announced slot. */
    static void
    Publish(Slot &slot, T *item)
    {
        FRUGAL_CHECK(item != nullptr);
        // Declared protocol edge: everything written before this insert
        // becomes visible to the popper that claims this slot (the
        // release store establishes it; the annotation documents it at
        // the protocol level for TSan).
        FRUGAL_ANNOTATE_HAPPENS_BEFORE(&slot);
        slot.ptr.store(item, std::memory_order_release);
    }

    /** Returns the segment containing `index`, growing as needed. */
    Segment *
    SegmentFor(std::size_t index)
    {
        Segment *seg = tail_hint_.load(std::memory_order_acquire);
        if (index < seg->base_index)
            seg = head_;
        while (index >= seg->base_index + segment_slots_)
            seg = NextSegment(seg);
        return seg;
    }

    /** Returns the segment after `seg`, appending it if it is the tail. */
    Segment *
    NextSegment(Segment *seg)
    {
        Segment *next = seg->next.load(std::memory_order_acquire);
        if (next != nullptr)
            return next;
        // alloc-ok: amortized growth, one segment per segment_slots
        // inserts into this set; segments live until the set dies.
        auto *fresh =
            new Segment(segment_slots_, seg->base_index + segment_slots_);
        if (seg->next.compare_exchange_strong(next, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            tail_hint_.store(fresh, std::memory_order_release);
            return fresh;
        }
        delete fresh;  // somebody else grew it first
        return next;
    }

    /**
     * Permanently skips leading segments whose every slot has been
     * published and popped; the monotone cursor guarantees they can never
     * refill.
     */
    void
    AdvanceScanHead()
    {
        Segment *seg = scan_head_.load(std::memory_order_acquire);
        while (seg->published.load(std::memory_order_acquire) ==
                   segment_slots_ &&
               seg->popped.load(std::memory_order_acquire) ==
                   segment_slots_) {
            Segment *next = seg->next.load(std::memory_order_acquire);
            if (next == nullptr)
                break;
            scan_head_.compare_exchange_strong(seg, next,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire);
            seg = scan_head_.load(std::memory_order_acquire);
        }
    }

    const std::size_t segment_slots_;
    Segment *head_;  // immutable after construction; owns the chain
    model_atomic<Segment *> tail_hint_{nullptr};
    model_atomic<Segment *> scan_head_{nullptr};
    model_atomic<std::size_t> cursor_{0};
    model_atomic<std::size_t> occupied_{0};
};

}  // namespace frugal

#endif  // FRUGAL_PQ_ATOMIC_SLOT_SET_H_
