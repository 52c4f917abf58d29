#include "cache/gpu_cache.h"


#include "table/row_kernels.h"

namespace frugal {

GpuCache::GpuCache(std::size_t capacity_rows, std::size_t dim,
                   const GpuCacheOptions &options)
    : capacity_(capacity_rows),
      dim_(dim),
      options_(options),
      storage_(capacity_rows * dim),
      map_(capacity_rows),
      slot_key_(capacity_rows, kInvalidKey),
      lru_prev_(capacity_rows, kNilSlot),
      lru_next_(capacity_rows, kNilSlot),
      next_use_(capacity_rows, kNoFutureUse),
      flags_(capacity_rows, 0),
      fill_stamp_(capacity_rows, 0),
      sketch_(capacity_rows, kSketchSeed),
      seg_head_{kNilSlot, kNilSlot},
      seg_tail_{kNilSlot, kNilSlot},
      seg_size_{0, 0}
{
    FRUGAL_CHECK_MSG(capacity_rows > 0, "cache capacity must be positive");
    FRUGAL_CHECK_MSG(capacity_rows < kNilSlot,
                     "cache capacity exceeds the u32 slot index space");
    FRUGAL_CHECK_MSG(dim > 0, "embedding dimension must be positive");
    hot_capacity_ = HotCapacityFor(capacity_rows);
    // Thread all slots onto the free list, lowest index first.
    for (std::size_t i = capacity_rows; i-- > 0;) {
        lru_next_[i] = free_head_;
        free_head_ = static_cast<std::uint32_t>(i);
    }
}

std::size_t
GpuCache::HotCapacityFor(std::size_t capacity) const
{
    if (!options_.segmented)
        return 0;
    auto cap = static_cast<std::size_t>(
        static_cast<double>(capacity) * kHotFraction);
    return cap == 0 ? 1 : cap;
}

void
GpuCache::DetachLocked(std::uint32_t slot)
{
    const Segment seg = SegmentOf(slot);
    const std::uint32_t prev = lru_prev_[slot];
    const std::uint32_t next = lru_next_[slot];
    if (prev == kNilSlot)
        seg_head_[seg] = next;
    else
        lru_next_[prev] = next;
    if (next == kNilSlot)
        seg_tail_[seg] = prev;
    else
        lru_prev_[next] = prev;
    --seg_size_[seg];
}

void
GpuCache::PushFrontLocked(Segment seg, std::uint32_t slot)
{
    lru_prev_[slot] = kNilSlot;
    lru_next_[slot] = seg_head_[seg];
    if (seg_head_[seg] != kNilSlot)
        lru_prev_[seg_head_[seg]] = slot;
    seg_head_[seg] = slot;
    if (seg_tail_[seg] == kNilSlot)
        seg_tail_[seg] = slot;
    ++seg_size_[seg];
    if (seg == kHot)
        flags_[slot] |= kHotFlag;
    else
        flags_[slot] &= static_cast<std::uint8_t>(~kHotFlag);
}

void
GpuCache::PushBackLocked(Segment seg, std::uint32_t slot)
{
    lru_next_[slot] = kNilSlot;
    lru_prev_[slot] = seg_tail_[seg];
    if (seg_tail_[seg] != kNilSlot)
        lru_next_[seg_tail_[seg]] = slot;
    seg_tail_[seg] = slot;
    if (seg_head_[seg] == kNilSlot)
        seg_head_[seg] = slot;
    ++seg_size_[seg];
    if (seg == kHot)
        flags_[slot] |= kHotFlag;
    else
        flags_[slot] &= static_cast<std::uint8_t>(~kHotFlag);
}

void
GpuCache::EnforceHotCapLocked()
{
    while (seg_size_[kHot] > hot_capacity_) {
        const std::uint32_t demoted = seg_tail_[kHot];
        FRUGAL_CHECK(demoted != kNilSlot);
        DetachLocked(demoted);
        // Demoted rows re-enter probation at the cold MRU: they were
        // the least-recent of the proven set, which still outranks
        // every unproven probationary resident.
        PushFrontLocked(kCold, demoted);
        ++stats_.demotions;
    }
}

void
GpuCache::PromoteOnHitLocked(std::uint32_t slot)
{
    if (!options_.segmented) {
        MoveToFrontLocked(kCold, slot);
        ++stats_.cold_hits;
        return;
    }
    if (SegmentOf(slot) == kHot) {
        MoveToFrontLocked(kHot, slot);
        ++stats_.hot_hits;
        return;
    }
    // Re-reference in probation: the row proved itself — promote.
    ++stats_.cold_hits;
    DetachLocked(slot);
    PushFrontLocked(kHot, slot);
    ++stats_.promotions;
    EnforceHotCapLocked();
}

bool
GpuCache::TryGetLocked(Key key, float *out, const Step *next_use)
{
    // Every lookup — hit or miss — is one access-stream sample for the
    // admission sketch.
    if (options_.freq_admission)
        sketch_.Add(key);
    const std::uint32_t *slot = map_.Find(key);
    if (slot == nullptr || (flags_[*slot] & kFillingFlag) != 0) {
        // A filling slot's row is not valid yet — the warm gather is
        // still in flight. Reading it would surface garbage, so it
        // counts as a miss; the demand Put that follows completes the
        // slot (and invalidates the pending fill via the stamp).
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    if (next_use != nullptr)
        next_use_[*slot] = *next_use;
    RowCopy(out, storage_.data() + *slot * dim_, dim_);
    if ((flags_[*slot] & kWarmFlag) != 0) {
        // First hit on a warmed row stands in for the demand insert
        // the warm replaced: surface at the cold MRU (warm rows always
        // sit in probation), promotion waits for a real re-reference.
        ++stats_.warm_hits;
        ++stats_.cold_hits;
        flags_[*slot] &= static_cast<std::uint8_t>(~kWarmFlag);
        MoveToFrontLocked(kCold, *slot);
        return true;
    }
    PromoteOnHitLocked(*slot);
    return true;
}

bool
GpuCache::TryGet(Key key, float *out)
{
    SpinGuard guard(lock_);
    return TryGetLocked(key, out, nullptr);
}

bool
GpuCache::TryGet(Key key, float *out, Step next_use)
{
    SpinGuard guard(lock_);
    return TryGetLocked(key, out, &next_use);
}

std::uint32_t
GpuCache::TailVictimLocked() const
{
    return seg_tail_[kCold] != kNilSlot ? seg_tail_[kCold]
                                        : seg_tail_[kHot];
}

std::uint32_t
GpuCache::PickVictimLocked(Key key, Step incoming_next_use)
{
    // Candidate order: probationary (cold) tail first, then the
    // protected (hot) tail — same bounded zero-allocation scan as
    // before, spliced across the two segment lists.
    std::uint32_t best_within = kNilSlot;
    Step best_within_use = 0;
    std::uint32_t best_beyond = kNilSlot;
    Step best_beyond_use = 0;
    std::uint32_t best_beyond_freq = 0;

    Segment seg = kCold;
    std::uint32_t slot = seg_tail_[kCold];
    for (std::size_t scanned = 0; scanned < kVictimScanDepth;
         ++scanned) {
        if (slot == kNilSlot) {
            if (seg == kHot)
                break;
            seg = kHot;
            slot = seg_tail_[kHot];
            if (slot == kNilSlot)
                break;
        }
        const Step use = next_use_[slot];
        if (use > horizon_) {
            // Beyond the Belady window (or no known future use):
            // Belady has nothing to say, so decayed frequency ranks
            // the candidates — the coldest one wins. With the sketch
            // off, the first (tail-most) such slot wins in recency
            // order, exactly the legacy LRU fallback.
            const std::uint32_t freq =
                options_.freq_admission
                    ? sketch_.Estimate(slot_key_[slot])
                    : 0;
            if (best_beyond == kNilSlot || freq < best_beyond_freq) {
                best_beyond = slot;
                best_beyond_use = use;
                best_beyond_freq = freq;
            }
            if (!options_.freq_admission)
                break;
        } else if (best_within == kNilSlot || use > best_within_use) {
            best_within = slot;
            best_within_use = use;
        }
        slot = lru_prev_[slot];
    }

    if (best_beyond != kNilSlot) {
        // A row needed inside the window always beats a beyond-horizon
        // victim; when both lie beyond, the sooner next use wins and
        // decayed frequency breaks the remaining ties.
        if (incoming_next_use <= horizon_ ||
            incoming_next_use < best_beyond_use)
            return best_beyond;
        if (options_.freq_admission &&
            sketch_.Estimate(key) > best_beyond_freq)
            return best_beyond;
        return kNilSlot;  // incoming row is the better victim: decline
    }
    if (best_within == kNilSlot || incoming_next_use >= best_within_use)
        return kNilSlot;  // every candidate is needed sooner: decline
    return best_within;
}

std::uint32_t
GpuCache::AcquireSlotLocked(Key key, Step incoming_next_use, bool hinted,
                            Key *evicted)
{
    *evicted = kInvalidKey;
    if (free_head_ != kNilSlot) {
        const std::uint32_t slot = free_head_;
        free_head_ = lru_next_[slot];
        return slot;
    }
    std::uint32_t victim;
    if (hinted) {
        victim = PickVictimLocked(key, incoming_next_use);
        if (victim == kNilSlot) {
            ++stats_.admission_declines;
            return kNilSlot;
        }
    } else {
        victim = TailVictimLocked();
        FRUGAL_CHECK(victim != kNilSlot);
        if (options_.freq_admission &&
            sketch_.Estimate(key) <=
                sketch_.Estimate(slot_key_[victim])) {
            // TinyLFU admission: the newcomer has not been seen more
            // often than the victim, so it does not get to displace it.
            // Write-through makes the decline correctness-free.
            ++stats_.admission_declines;
            return kNilSlot;
        }
    }
    *evicted = slot_key_[victim];
    DetachLocked(victim);
    map_.Erase(*evicted);
    ++stats_.evictions;
    return victim;
}

Key
GpuCache::PutLocked(Key key, const float *row, Step next_use, bool hinted)
{
    if (const std::uint32_t *existing = map_.Find(key)) {
        RowCopy(storage_.data() + *existing * dim_, row, dim_);
        ++fill_stamp_[*existing];  // a fresher value landed
        // Demand write: readable, not warm; segment membership sticks.
        flags_[*existing] &=
            static_cast<std::uint8_t>(~(kWarmFlag | kFillingFlag));
        if (hinted)
            next_use_[*existing] = next_use;
        MoveToFrontLocked(SegmentOf(*existing), *existing);
        return kInvalidKey;
    }

    Key evicted = kInvalidKey;
    const std::uint32_t slot =
        AcquireSlotLocked(key, next_use, hinted, &evicted);
    if (slot == kNilSlot)
        return kInvalidKey;  // admission declined

    slot_key_[slot] = key;
    map_.TryEmplace(key, slot);
    flags_[slot] = 0;
    PushFrontLocked(kCold, slot);  // inserts start on probation
    RowCopy(storage_.data() + slot * dim_, row, dim_);
    ++fill_stamp_[slot];
    next_use_[slot] = hinted ? next_use : kNoFutureUse;
    ++stats_.insertions;
    return evicted;
}

Key
GpuCache::Put(Key key, const float *row)
{
    SpinGuard guard(lock_);
    return PutLocked(key, row, kNoFutureUse, /*hinted=*/false);
}

Key
GpuCache::Put(Key key, const float *row, Step next_use)
{
    SpinGuard guard(lock_);
    return PutLocked(key, row, next_use, /*hinted=*/true);
}

bool
GpuCache::UpdateIfPresent(Key key, const float *row)
{
    SpinGuard guard(lock_);
    const std::uint32_t *slot = map_.Find(key);
    if (slot == nullptr)
        return false;
    RowCopy(storage_.data() + *slot * dim_, row, dim_);
    // The flushed value is the committed host row: it completes any
    // in-flight warm for this slot (the row is now readable) and bumps
    // the fill stamp so the late WarmCommit yields to it.
    ++fill_stamp_[*slot];
    flags_[*slot] &= static_cast<std::uint8_t>(~kFillingFlag);
    ++stats_.flush_writes;
    return true;
}

std::size_t
GpuCache::WarmBegin(const Key *keys, const Step *next_use, std::size_t n,
                    WarmPending *pending)
{
    SpinGuard guard(lock_);
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (const std::uint32_t *existing = map_.Find(keys[i])) {
            next_use_[*existing] = next_use[i];  // refresh hint only
            continue;
        }
        if (next_use[i] == kNoFutureUse)
            continue;  // dead on arrival: never worth a slot
        Key evicted = kInvalidKey;
        const std::uint32_t slot = AcquireSlotLocked(
            keys[i], next_use[i], /*hinted=*/true, &evicted);
        if (slot == kNilSlot)
            continue;  // every victim candidate is needed sooner
        slot_key_[slot] = keys[i];
        map_.TryEmplace(keys[i], slot);
        flags_[slot] = 0;
        PushBackLocked(kCold, slot);  // cold end: never promotes past
                                      // residents
        next_use_[slot] = next_use[i];
        flags_[slot] |= kWarmFlag | kFillingFlag;
        ++fill_stamp_[slot];
        ++stats_.warm_inserts;
        pending[m].batch_index = static_cast<std::uint32_t>(i);
        pending[m].stamp = fill_stamp_[slot];
        ++m;
    }
    return m;
}

void
GpuCache::WarmCommit(const Key *keys, const WarmPending *pending,
                     std::size_t m, const float *rows)
{
    SpinGuard guard(lock_);
    for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t *slot = map_.Find(keys[pending[j].batch_index]);
        if (slot == nullptr)
            continue;  // evicted (or resized away) while gathering
        if ((flags_[*slot] & kFillingFlag) == 0)
            continue;  // a flush or demand write already completed it
        if (fill_stamp_[*slot] != pending[j].stamp) {
            // Not our reservation any more; leave it to its owner.
            continue;
        }
        RowCopy(storage_.data() + *slot * dim_,
                rows + j * dim_, dim_);
        flags_[*slot] &= static_cast<std::uint8_t>(~kFillingFlag);
    }
}

bool
GpuCache::EvictIfDead(Key key)
{
    SpinGuard guard(lock_);
    const std::uint32_t *found = map_.Find(key);
    if (found == nullptr)
        return false;
    const std::uint32_t slot = *found;
    DetachLocked(slot);
    map_.Erase(key);
    slot_key_[slot] = kInvalidKey;
    flags_[slot] = 0;
    next_use_[slot] = kNoFutureUse;
    lru_next_[slot] = free_head_;
    free_head_ = slot;
    ++stats_.dead_evictions;
    return true;
}

void
GpuCache::SetEvictionHorizon(Step horizon)
{
    SpinGuard guard(lock_);
    horizon_ = horizon;
}

bool
GpuCache::Contains(Key key) const
{
    SpinGuard guard(lock_);
    return map_.Contains(key);
}

std::size_t
GpuCache::Resize(std::size_t new_capacity_rows)
{
    FRUGAL_CHECK_MSG(new_capacity_rows > 0,
                     "cache capacity must stay positive");
    FRUGAL_CHECK_MSG(new_capacity_rows < kNilSlot,
                     "cache capacity exceeds the u32 slot index space");
    // The rebuilt arrays (step 2) are allocated before the lock is
    // taken: trainers keep probing the cache while the pressure monitor
    // resizes it, and would spin through every allocation made under it.
    std::vector<float> new_storage(new_capacity_rows * dim_);
    std::vector<Key> new_slot_key(new_capacity_rows, kInvalidKey);
    std::vector<std::uint32_t> new_prev(new_capacity_rows, kNilSlot);
    std::vector<std::uint32_t> new_next(new_capacity_rows, kNilSlot);
    std::vector<Step> new_use(new_capacity_rows, kNoFutureUse);
    std::vector<std::uint8_t> new_flags(new_capacity_rows, 0);
    std::vector<std::uint32_t> new_stamp(new_capacity_rows, 0);
    FlatMap<Key, std::uint32_t> new_map(new_capacity_rows);
    SpinGuard guard(lock_);
    if (new_capacity_rows == capacity_)
        return 0;

    // 1. Emergency-evict until the survivors fit — cold (probationary)
    //    tail first, hot tail only once probation is empty, so proven
    //    residents are retained preferentially. Detached slots are not
    //    recycled — every array is rebuilt below.
    std::size_t evicted = 0;
    while (map_.size() > new_capacity_rows) {
        const std::uint32_t victim = TailVictimLocked();
        FRUGAL_CHECK(victim != kNilSlot);
        map_.Erase(slot_key_[victim]);
        DetachLocked(victim);
        ++stats_.evictions;
        ++evicted;
    }

    // 2. Rebuild at the new size: walk each segment list from its MRU
    //    head — hot first, then cold — packing survivors into slots
    //    0..live-1, so segment membership and within-segment recency
    //    are preserved exactly. Next-use hints, warm/hot flags and
    //    fill stamps travel with their rows, so in-flight warm commits
    //    stay well-defined (they re-find the slot through the map).
    std::uint32_t new_head[2] = {kNilSlot, kNilSlot};
    std::uint32_t new_tail[2] = {kNilSlot, kNilSlot};
    std::size_t new_size[2] = {0, 0};
    std::uint32_t live = 0;
    for (const Segment seg : {kHot, kCold}) {
        std::uint32_t packed_prev = kNilSlot;
        for (std::uint32_t slot = seg_head_[seg]; slot != kNilSlot;
             slot = lru_next_[slot], ++live) {
            RowCopy(new_storage.data() + live * dim_,
                    storage_.data() + slot * dim_, dim_);
            new_slot_key[live] = slot_key_[slot];
            new_use[live] = next_use_[slot];
            new_flags[live] = flags_[slot];
            new_stamp[live] = fill_stamp_[slot];
            new_map.TryEmplace(slot_key_[slot], live);
            if (packed_prev == kNilSlot)
                new_head[seg] = live;
            else {
                new_prev[live] = packed_prev;
                new_next[packed_prev] = live;
            }
            new_tail[seg] = live;
            packed_prev = live;
            ++new_size[seg];
        }
    }
    free_head_ = kNilSlot;
    for (std::size_t i = new_capacity_rows; i-- > live;) {
        new_next[i] = free_head_;
        free_head_ = static_cast<std::uint32_t>(i);
    }

    storage_ = std::move(new_storage);
    slot_key_ = std::move(new_slot_key);
    lru_prev_ = std::move(new_prev);
    lru_next_ = std::move(new_next);
    next_use_ = std::move(new_use);
    flags_ = std::move(new_flags);
    fill_stamp_ = std::move(new_stamp);
    map_ = std::move(new_map);
    for (const Segment seg : {kCold, kHot}) {
        seg_head_[seg] = new_head[seg];
        seg_tail_[seg] = new_tail[seg];
        seg_size_[seg] = new_size[seg];
    }
    capacity_ = new_capacity_rows;
    // The protected budget scales with the new capacity; a shrink may
    // leave the hot segment over budget — demote its tail back to
    // probation until it fits. The sketch keeps its counts: hotness is
    // a property of the access stream, not of the residency.
    hot_capacity_ = HotCapacityFor(new_capacity_rows);
    EnforceHotCapLocked();
    return evicted;
}

std::size_t
GpuCache::MemoryBytes() const
{
    SpinGuard guard(lock_);
    return storage_.size() * sizeof(float) + map_.MemoryBytes() +
           slot_key_.size() * sizeof(Key) +
           (lru_prev_.size() + lru_next_.size()) * sizeof(std::uint32_t) +
           next_use_.size() * sizeof(Step) +
           flags_.size() * sizeof(std::uint8_t) +
           fill_stamp_.size() * sizeof(std::uint32_t) +
           sketch_.MemoryBytes();
}

void
GpuCache::Clear()
{
    SpinGuard guard(lock_);
    map_.Clear();
    for (const Segment seg : {kCold, kHot}) {
        seg_head_[seg] = kNilSlot;
        seg_tail_[seg] = kNilSlot;
        seg_size_[seg] = 0;
    }
    free_head_ = kNilSlot;
    for (std::size_t i = capacity_; i-- > 0;) {
        slot_key_[i] = kInvalidKey;
        lru_prev_[i] = kNilSlot;
        lru_next_[i] = free_head_;
        next_use_[i] = kNoFutureUse;
        flags_[i] = 0;
        free_head_ = static_cast<std::uint32_t>(i);
    }
    // The sketch is deliberately not reset: residency is gone but the
    // observed hotness distribution is still the best admission prior.
}

}  // namespace frugal
