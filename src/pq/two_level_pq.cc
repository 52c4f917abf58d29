#include "pq/two_level_pq.h"

#include <sstream>

#include "common/rng.h"

namespace frugal {

TwoLevelPQ::TwoLevelPQ(const TwoLevelPQConfig &config)
    : config_(config),
      n_shards_(config.n_shards),
      infinity_index_(static_cast<std::size_t>(config.max_step) + 1),
      buckets_(static_cast<std::size_t>(config.max_step) + 2),
      sets_((static_cast<std::size_t>(config.max_step) + 2) *
            config.n_shards),
      batch_groups_((kBatchWindow + 1) * config.n_shards)
{
    FRUGAL_CHECK_MSG(config.n_shards >= 1, "n_shards must be >= 1");
    // relaxed: single-threaded construction; publication of the whole
    // object happens-before any concurrent use.
    scan_horizon_->store(config.max_step, std::memory_order_relaxed);
}

TwoLevelPQ::~TwoLevelPQ()
{
    for (auto &set : sets_)
        delete set.load(std::memory_order_acquire);
}

std::size_t
TwoLevelPQ::BucketIndex(Priority priority) const
{
    if (priority == kInfiniteStep)
        return infinity_index_;
    FRUGAL_CHECK_MSG(priority <= config_.max_step,
                     "priority " << priority << " exceeds max_step "
                                 << config_.max_step);
    return static_cast<std::size_t>(priority);
}

std::size_t
TwoLevelPQ::ShardOf(const GEntry *entry) const
{
    // A key's shard is a pure function of the key, so every copy of
    // an entry (live or stale) lives in the same sub-set of whichever
    // bucket holds it.
    return n_shards_ == 1 ? 0 : MixHash64(entry->key()) % n_shards_;
}

AtomicSlotSet<GEntry> &
TwoLevelPQ::EnsureSet(std::size_t bucket_index, std::size_t shard)
{
    model_atomic<AtomicSlotSet<GEntry> *> &slot =
        sets_[bucket_index * n_shards_ + shard];
    AtomicSlotSet<GEntry> *set = slot.load(std::memory_order_acquire);
    if (set == nullptr) {
        // alloc-ok: once per (bucket, shard) per run; the set then
        // serves every copy that bucket ever holds.
        auto *fresh = new AtomicSlotSet<GEntry>(config_.segment_slots);
        if (slot.compare_exchange_strong(set, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            set = fresh;
        } else {
            delete fresh;  // lost the allocation race
        }
    }
    return *set;
}

void
TwoLevelPQ::Enqueue(GEntry *entry, Priority priority)
{
    const std::size_t bucket_index = BucketIndex(priority);
    // Logical count first: the gate must never observe "no pending entry"
    // while one is being published.
    buckets_[bucket_index].logical.fetch_add(1, std::memory_order_release);
    // relaxed: approximate global size (SizeApprox contract).
    size_->fetch_add(1, std::memory_order_relaxed);
    EnsureSet(bucket_index, ShardOf(entry)).Insert(entry);
}

void
TwoLevelPQ::OnPriorityChange(GEntry *entry, Priority old_priority,
                             Priority new_priority)
{
    FRUGAL_CHECK(old_priority != new_priority);
    // Paper ordering: first insert into the new bucket, then delete from
    // the old one, so a dequeuer can never observe the entry in neither.
    const std::size_t fresh_index = BucketIndex(new_priority);
    buckets_[fresh_index].logical.fetch_add(1, std::memory_order_release);
    EnsureSet(fresh_index, ShardOf(entry)).Insert(entry);
    // Logical deletion only; the stale physical copy is discarded by the
    // dequeuer whose priority validation fails.
    buckets_[BucketIndex(old_priority)].logical.fetch_sub(
        1, std::memory_order_release);
}

void
TwoLevelPQ::BeginBatch(std::size_t max_enqueues)
{
    FRUGAL_DCHECK_MSG(batch_reserved_ == 0, "batches do not nest");
    // relaxed: approximate global size (SizeApprox contract). Reserving
    // before any staged entry is visible keeps the size an over-count: a
    // dequeuer that claims a staged entry early decrements it before
    // PublishBatch returns the unused part.
    size_->fetch_add(max_enqueues, std::memory_order_relaxed);
    batch_reserved_ = max_enqueues;
}

void
TwoLevelPQ::EnqueueBatched(GEntry *entry, Priority priority)
{
    FRUGAL_DCHECK_MSG(batch_used_ < batch_reserved_,
                      "batched enqueue beyond the reservation");
    ++batch_used_;
    const std::size_t bucket_index = BucketIndex(priority);
    // Logical count first, under the entry lock: a dequeuer that pops an
    // older stale copy of this entry from this bucket may claim it before
    // PublishBatch, and so may the prefetcher re-prioritise it; either
    // decrement must follow this increment.
    buckets_[bucket_index].logical.fetch_add(1, std::memory_order_release);
    const bool infinite = bucket_index == infinity_index_;
    const std::size_t slot =
        infinite ? kBatchWindow : bucket_index % kBatchWindow;
    const std::size_t shard = ShardOf(entry);
    BatchGroup &group = batch_groups_[slot * n_shards_ + shard];
    if (group.bucket != bucket_index) {
        PublishGroup(group, shard);
        group.bucket = bucket_index;
    }
    // alloc-ok: each group keeps its capacity across batches; it grows
    // only past its largest (bucket, shard) population so far.
    group.entries.push_back(entry);
    if (!infinite)
        batch_low_ = std::min(batch_low_, bucket_index);
    if (bucket_index == batch_low_ && group.entries.size() == kUrgentGroup)
        PublishGroup(group, shard);
}

void
TwoLevelPQ::PublishBatch()
{
    // Lowest priority first: the next step's blockers are what the gate
    // waits on.
    if (batch_low_ != SIZE_MAX) {
        for (std::size_t k = 0; k < kBatchWindow; ++k) {
            const std::size_t slot = (batch_low_ + k) % kBatchWindow;
            for (std::size_t shard = 0; shard < n_shards_; ++shard)
                PublishGroup(batch_groups_[slot * n_shards_ + shard], shard);
        }
    }
    for (std::size_t shard = 0; shard < n_shards_; ++shard)
        PublishGroup(batch_groups_[kBatchWindow * n_shards_ + shard], shard);
    // relaxed: approximate global size (SizeApprox contract).
    size_->fetch_sub(batch_reserved_ - batch_used_,
                     std::memory_order_relaxed);
    batch_reserved_ = 0;
    batch_used_ = 0;
    batch_low_ = SIZE_MAX;
}

void
TwoLevelPQ::PublishGroup(BatchGroup &group, std::size_t shard)
{
    if (group.entries.empty())
        return;
    EnsureSet(group.bucket, shard)
        .InsertBatch(group.entries.data(), group.entries.size());
    group.entries.clear();
}

std::size_t
TwoLevelPQ::DrainBucket(std::size_t bucket_index, Priority priority,
                        std::vector<ClaimTicket> &out,
                        std::size_t max_entries, std::size_t shard_hint,
                        std::uint64_t *stale_out)
{
    Bucket &bucket = buckets_[bucket_index];
    std::size_t claimed = 0;
    for (std::size_t rotation = 0;
         rotation < n_shards_ && out.size() < max_entries; ++rotation) {
        // Own shard first; peers' shards only as fallback (stealing).
        const std::size_t shard = (shard_hint + rotation) % n_shards_;
        AtomicSlotSet<GEntry> *set =
            sets_[bucket_index * n_shards_ + shard].load(
                std::memory_order_acquire);
        if (set == nullptr)
            continue;
        while (out.size() < max_entries) {
            GEntry *entry = set->PopAny();
            if (entry == nullptr)
                break;
            SpinGuard guard(entry->lock());
            if (entry->enqueuedLocked() &&
                entry->priorityLocked() == priority) {
                // Valid: claim it. From here until OnFlushed, this flush
                // thread exclusively owns the entry's pending writes, and
                // the bucket's in-flight count keeps the gate closed.
                entry->setEnqueuedLocked(false);
                bucket.in_flight.fetch_add(1, std::memory_order_release);
                bucket.logical.fetch_sub(1, std::memory_order_release);
                // relaxed: approximate global size (SizeApprox contract).
                size_->fetch_sub(1, std::memory_order_relaxed);
                // alloc-ok: bounded by max_entries (<= flush_batch) and
                // each flush thread reuses one claim vector across
                // dequeues, so capacity growth is one-time per thread.
                out.push_back(ClaimTicket{entry, priority});
                ++claimed;
            } else {
                // A lazily deleted copy left behind by AdjustPriority (or
                // a duplicate from a former ∞ residence). Drop it; the
                // live copy, if any, sits in the bucket of its current
                // priority.
                ++*stale_out;
            }
        }
    }
    return claimed;
}

std::size_t
TwoLevelPQ::DequeueClaim(std::vector<ClaimTicket> &out,
                         std::size_t max_entries, std::size_t shard_hint)
{
    return DequeueClaimBounded(out, max_entries, shard_hint,
                               config_.max_step,
                               /*include_infinity=*/true);
}

std::size_t
TwoLevelPQ::DequeueClaimBelow(std::vector<ClaimTicket> &out,
                              std::size_t max_entries,
                              std::size_t shard_hint, Step ceiling)
{
    return DequeueClaimBounded(out, max_entries, shard_hint, ceiling,
                               /*include_infinity=*/false);
}

std::size_t
TwoLevelPQ::DequeueClaimBounded(std::vector<ClaimTicket> &out,
                                std::size_t max_entries,
                                std::size_t shard_hint, Step ceiling,
                                bool include_infinity)
{
    const std::size_t initial = out.size();
    max_entries += initial;  // budget is "append up to max_entries"
    shard_hint %= n_shards_;
    const Step floor = scan_compression_
                           ? scan_floor_->load(std::memory_order_acquire)
                           : 0;
    const Step horizon = std::min(
        ceiling,
        scan_compression_ ? scan_horizon_->load(std::memory_order_acquire)
                          : config_.max_step);
    const std::size_t low = BucketIndex(std::min(floor, config_.max_step));
    const std::size_t high =
        BucketIndex(std::min(horizon, config_.max_step));
    // Scan and stale counts accumulate locally and fold into the shared
    // (padded) counters once per pass, not once per bucket.
    std::uint64_t scanned = 0;
    std::uint64_t stale = 0;
    for (std::size_t i = low; i <= high && out.size() < max_entries; ++i) {
        ++scanned;
        if (buckets_[i].logical.load(std::memory_order_acquire) <= 0)
            continue;
        DrainBucket(i, static_cast<Priority>(i), out, max_entries,
                    shard_hint, &stale);
    }
    // The ∞ bucket last: deferred updates flush only when nothing urgent
    // remains in the window (and never under a bounded claim — the
    // cooperative flush path leaves deferred entries accumulating).
    if (include_infinity && out.size() < max_entries &&
        buckets_[infinity_index_].logical.load(std::memory_order_acquire) >
            0) {
        ++scanned;
        DrainBucket(infinity_index_, kInfiniteStep, out, max_entries,
                    shard_hint, &stale);
    }
    // relaxed: monotonic stat counter (ablation instrumentation).
    buckets_scanned_->fetch_add(scanned, std::memory_order_relaxed);
    if (stale > 0) {
        // relaxed: monotonic stat counter.
        stale_discards_->fetch_add(stale, std::memory_order_relaxed);
    }
    return out.size() - initial;
}

void
TwoLevelPQ::OnFlushed(const ClaimTicket &ticket)
{
    const std::int64_t prev =
        buckets_[BucketIndex(ticket.priority)].in_flight.fetch_sub(
            1, std::memory_order_release);
    FRUGAL_DCHECK_MSG(prev >= 1, "OnFlushed with no matching claim at "
                                 "priority " << ticket.priority);
    (void)prev;
}

void
TwoLevelPQ::Unenqueue(GEntry *entry, Priority priority)
{
    (void)entry;  // the physical copy is discarded lazily by a dequeuer
    const std::int64_t prev =
        buckets_[BucketIndex(priority)].logical.fetch_sub(
            1, std::memory_order_release);
    FRUGAL_DCHECK_MSG(prev >= 1, "Unenqueue with no standing enqueue at "
                                 "priority " << priority);
    (void)prev;
    // relaxed: approximate global size; exactness is audited at
    // quiescence, not per-operation.
    size_->fetch_sub(1, std::memory_order_relaxed);
}

bool
TwoLevelPQ::HasPendingAtOrBelow(Step step) const
{
    const Step floor = scan_compression_
                           ? scan_floor_->load(std::memory_order_acquire)
                           : 0;
    if (step > config_.max_step)
        step = config_.max_step;
    for (Step p = std::min(floor, step); p <= step; ++p) {
        const Bucket &bucket = buckets_[static_cast<std::size_t>(p)];
        if (bucket.logical.load(std::memory_order_acquire) > 0 ||
            bucket.in_flight.load(std::memory_order_acquire) > 0) {
            return true;
        }
    }
    return false;
}

std::size_t
TwoLevelPQ::SizeApprox() const
{
    return size_->load(std::memory_order_acquire);
}

void
TwoLevelPQ::SetScanBounds(Step floor, Step horizon)
{
    // Monotone advance; concurrent publishers only ever move forward.
    // relaxed: the CAS loop only needs an atomic max — the bound is a
    // scan *hint*; correctness of skipped buckets comes from the gate
    // invariant, not from ordering on this variable.
    Step current = scan_floor_->load(std::memory_order_relaxed);
    while (floor > current &&
           !scan_floor_->compare_exchange_weak(
               current, floor, std::memory_order_release,
               std::memory_order_relaxed /* relaxed: retry reload */)) {
    }
    scan_horizon_->store(horizon, std::memory_order_release);
}

std::size_t
TwoLevelPQ::AuditInvariants(bool quiescent) const
{
    std::size_t violations = 0;
    auto fail = [&violations](const log_internal::MessageBuilder &mb) {
        ++violations;
        FRUGAL_ERROR("two-level-pq audit: " << mb.str());
    };
    std::size_t stale_resident = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const Bucket &bucket = buckets_[i];
        const std::int64_t logical =
            bucket.logical.load(std::memory_order_acquire);
        const std::int64_t in_flight =
            bucket.in_flight.load(std::memory_order_acquire);
        // Never negative at any instant: every decrement follows its
        // paired increment in real time (OnPriorityChange raises the
        // new bucket before dropping the old; claims/Unenqueues retire
        // enqueues that happened-before them).
        if (logical < 0) {
            fail(log_internal::MessageBuilder()
                 << "bucket " << i << " logical count " << logical
                 << " < 0");
        }
        if (in_flight < 0) {
            fail(log_internal::MessageBuilder()
                 << "bucket " << i << " in-flight count " << in_flight
                 << " < 0");
        }
        if (quiescent && logical != 0) {
            fail(log_internal::MessageBuilder()
                 << "bucket " << i << " logical count " << logical
                 << " != 0 at quiescence");
        }
        if (quiescent && in_flight != 0) {
            fail(log_internal::MessageBuilder()
                 << "bucket " << i << " in-flight count " << in_flight
                 << " != 0 at quiescence");
        }
        // Slot-set accounting per shard; residency is summed across the
        // bucket's shards (the logical/in-flight counts are bucket-wide).
        std::size_t bucket_resident = 0;
        for (std::size_t shard = 0; shard < n_shards_; ++shard) {
            const AtomicSlotSet<GEntry> *set =
                sets_[i * n_shards_ + shard].load(
                    std::memory_order_acquire);
            if (set == nullptr)
                continue;
            const auto snap = set->AuditAccounting();
            if (!snap.per_segment_consistent) {
                fail(log_internal::MessageBuilder()
                     << "bucket " << i << " shard " << shard
                     << " slot-set accounting broken: announced "
                     << snap.announced << ", popped " << snap.popped
                     << " across " << snap.segments << " segment(s)");
            }
            if (quiescent) {
                // Exact at quiescence: residents are
                // announced-not-popped.
                const std::size_t resident = snap.announced - snap.popped;
                if (resident != set->size()) {
                    fail(log_internal::MessageBuilder()
                         << "bucket " << i << " shard " << shard
                         << " slot-set size " << set->size()
                         << " != announced-popped residue " << resident);
                }
                bucket_resident += resident;
            }
        }
        if (quiescent) {
            // Residents at quiescence can only be lazily deleted
            // (stale) copies — the live count is zero (checked above).
            stale_resident += bucket_resident;
        }
    }
    if (quiescent) {
        const std::size_t size = SizeApprox();
        if (size != 0) {
            fail(log_internal::MessageBuilder()
                 << "global size " << size << " != 0 at quiescence");
        }
        FRUGAL_DEBUG("two-level-pq audit: quiescent with "
                     << stale_resident
                     << " stale resident copies awaiting lazy discard");
    }
    return violations;
}

std::string
TwoLevelPQ::DebugDump() const
{
    // Lock-free by construction: only atomics are read, so a wedged
    // flush thread holding entry locks cannot block this dump.
    std::ostringstream out;
    // relaxed: diagnostic snapshot; values may be mutually inconsistent
    // under concurrency, which the dump's caption acknowledges.
    const Step floor = scan_floor_->load(std::memory_order_relaxed);
    const Step horizon = scan_horizon_->load(std::memory_order_relaxed);
    out << "two-level-pq: size≈" << size_->load(std::memory_order_relaxed)
        << " shards=" << n_shards_ << " scan=[" << floor << ", " << horizon
        << "] ∪ {∞}\n";
    std::size_t listed = 0;
    constexpr std::size_t kMaxListed = 16;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        // relaxed: diagnostic snapshot (see above).
        const auto logical =
            buckets_[i].logical.load(std::memory_order_relaxed);
        const auto in_flight =
            buckets_[i].in_flight.load(std::memory_order_relaxed);
        if (logical == 0 && in_flight == 0)
            continue;
        if (++listed > kMaxListed) {
            out << "  ... more non-empty buckets elided\n";
            break;
        }
        out << "  bucket ";
        if (i == infinity_index_)
            out << "∞";
        else
            out << i;
        out << ": logical=" << logical << " in-flight=" << in_flight
            << "\n";
    }
    if (listed == 0)
        out << "  (all buckets empty)\n";
    // Per-shard backlog: resident slot-set entries summed across
    // buckets. Skewed shards point at a flush thread that stopped
    // draining its own shard (each dequeue scans its shard first).
    out << "  per-shard backlog:";
    for (std::size_t shard = 0; shard < n_shards_; ++shard) {
        std::size_t resident = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            const AtomicSlotSet<GEntry> *set =
                sets_[i * n_shards_ + shard].load(
                    std::memory_order_acquire);
            if (set != nullptr)
                resident += set->size();
        }
        out << " s" << shard << "=" << resident;
    }
    out << "\n";
    return out.str();
}

}  // namespace frugal
