/** Tests for the per-GPU embedding cache (tiered frequency-aware
 *  replacement + legacy LRU mode) and key ownership. */
#include "cache/gpu_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <thread>
#include <vector>

namespace frugal {
namespace {

std::vector<float>
RowOf(float v, std::size_t dim = 4)
{
    return std::vector<float>(dim, v);
}

/** The pre-§14 single-list LRU: segments and admission off. The tests
 *  below that assert classic LRU victim order request this explicitly;
 *  everything else runs the (default) tiered policy. */
GpuCacheOptions
LegacyLruOptions()
{
    GpuCacheOptions options;
    options.segmented = false;
    options.freq_admission = false;
    return options;
}

TEST(GpuCacheTest, MissThenHit)
{
    GpuCache cache(4, 4);
    std::vector<float> out(4);
    EXPECT_FALSE(cache.TryGet(1, out.data()));
    cache.Put(1, RowOf(1.5f).data());
    ASSERT_TRUE(cache.TryGet(1, out.data()));
    EXPECT_EQ(out[0], 1.5f);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(GpuCacheTest, EvictsLruWhenFull)
{
    GpuCache cache(2, 4, LegacyLruOptions());
    std::vector<float> out(4);
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());
    ASSERT_TRUE(cache.TryGet(1, out.data()));  // 1 becomes MRU
    const Key evicted = cache.Put(3, RowOf(3).data());
    EXPECT_EQ(evicted, 2u);  // 2 was LRU
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_FALSE(cache.Contains(2));
    EXPECT_TRUE(cache.Contains(3));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(GpuCacheTest, PutExistingOverwritesWithoutEviction)
{
    GpuCache cache(2, 4);
    cache.Put(1, RowOf(1).data());
    const Key evicted = cache.Put(1, RowOf(9).data());
    EXPECT_EQ(evicted, kInvalidKey);
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(1, out.data()));
    EXPECT_EQ(out[0], 9.0f);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(GpuCacheTest, UpdateIfPresent)
{
    GpuCache cache(2, 4);
    EXPECT_FALSE(cache.UpdateIfPresent(5, RowOf(5).data()));
    cache.Put(5, RowOf(1).data());
    EXPECT_TRUE(cache.UpdateIfPresent(5, RowOf(7).data()));
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(5, out.data()));
    EXPECT_EQ(out[0], 7.0f);
    EXPECT_EQ(cache.stats().flush_writes, 1u);
}

TEST(GpuCacheTest, UpdateIfPresentDoesNotTouchLru)
{
    GpuCache cache(2, 4, LegacyLruOptions());
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());
    // 1 is LRU; a flush write to 1 must NOT promote it.
    cache.UpdateIfPresent(1, RowOf(9).data());
    const Key evicted = cache.Put(3, RowOf(3).data());
    EXPECT_EQ(evicted, 1u);
}

TEST(GpuCacheTest, ModelEquivalenceAgainstReferenceLru)
{
    // Randomised trace checked against a simple map+list reference model.
    constexpr std::size_t kCapacity = 16;
    GpuCache cache(kCapacity, 2, LegacyLruOptions());
    std::list<Key> ref_lru;  // front = MRU
    std::map<Key, float> ref;

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Key k = rng.NextBounded(64);
        std::vector<float> out(2);
        const bool hit = cache.TryGet(k, out.data());
        const bool ref_hit = ref.count(k) > 0;
        ASSERT_EQ(hit, ref_hit) << "op " << i << " key " << k;
        if (hit) {
            ASSERT_EQ(out[0], ref[k]);
            ref_lru.remove(k);
            ref_lru.push_front(k);
        } else {
            const float v = static_cast<float>(i);
            cache.Put(k, RowOf(v, 2).data());
            if (ref.size() == kCapacity) {
                const Key victim = ref_lru.back();
                ref_lru.pop_back();
                ref.erase(victim);
            }
            ref.emplace(k, v);
            ref_lru.push_front(k);
        }
    }
}

TEST(GpuCacheTest, ConcurrentReaderAndFlushWriter)
{
    GpuCache cache(64, 4);
    for (Key k = 0; k < 64; ++k)
        cache.Put(k, RowOf(static_cast<float>(k)).data());

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        int round = 0;
        while (!stop) {
            for (Key k = 0; k < 64; ++k)
                cache.UpdateIfPresent(k, RowOf(static_cast<float>(round))
                                             .data());
            ++round;
        }
    });
    std::vector<float> out(4);
    for (int i = 0; i < 100000; ++i) {
        const Key k = static_cast<Key>(i % 64);
        ASSERT_TRUE(cache.TryGet(k, out.data()));
        // Row must be internally consistent (all lanes equal).
        ASSERT_EQ(out[0], out[3]);
    }
    stop = true;
    writer.join();
}

TEST(GpuCacheWarmTest, WarmBatchInsertsColdWithoutPromotingHotRows)
{
    // Legacy mode: the unhinted Put below must evict in plain LRU
    // order (the admission gate would decline the never-seen key 7).
    GpuCache cache(4, 4, LegacyLruOptions());
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());  // MRU: 2, LRU: 1

    const Key keys[] = {5, 6};
    const Step hints[] = {10, 11};
    std::size_t gathered = 0;
    const std::size_t warmed = cache.WarmBatch(
        keys, hints, 2, [&](const Key *fill, std::size_t m, float *rows) {
            gathered = m;
            for (std::size_t j = 0; j < m; ++j)
                for (std::size_t d = 0; d < 4; ++d)
                    rows[j * 4 + d] = static_cast<float>(fill[j]);
        });
    EXPECT_EQ(warmed, 2u);
    EXPECT_EQ(gathered, 2u);
    EXPECT_TRUE(cache.Contains(5));
    EXPECT_TRUE(cache.Contains(6));
    EXPECT_EQ(cache.stats().warm_inserts, 2u);

    // Warmed rows entered at the cold end: an unhinted insert into the
    // now-full cache evicts a warmed row, not the hot residents.
    const Key evicted = cache.Put(7, RowOf(7).data());
    EXPECT_TRUE(evicted == 5u || evicted == 6u);
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(2));

    // First trainer hit on a warmed row counts once as a warm hit.
    std::vector<float> out(4);
    const Key survivor = evicted == 5u ? 6u : 5u;
    ASSERT_TRUE(cache.TryGet(survivor, out.data()));
    EXPECT_EQ(out[0], static_cast<float>(survivor));
    ASSERT_TRUE(cache.TryGet(survivor, out.data()));
    EXPECT_EQ(cache.stats().warm_hits, 1u);
}

TEST(GpuCacheWarmTest, WarmSkipsDeadOnArrivalAndResidents)
{
    GpuCache cache(4, 4);
    cache.Put(1, RowOf(1).data());
    const Key keys[] = {1, 2};
    const Step hints[] = {5, GpuCache::kNoFutureUse};
    bool gather_ran = false;
    const std::size_t warmed = cache.WarmBatch(
        keys, hints, 2,
        [&](const Key *, std::size_t, float *) { gather_ran = true; });
    // Key 1 is resident (hint refresh only); key 2 has no future
    // reader — warming it would be a wasted gather and a wasted slot.
    EXPECT_EQ(warmed, 0u);
    EXPECT_FALSE(gather_ran);
    EXPECT_FALSE(cache.Contains(2));
    EXPECT_EQ(cache.stats().warm_inserts, 0u);
}

TEST(GpuCacheWarmTest, StaleWarmCommitYieldsToFresherFlushWrite)
{
    GpuCache cache(4, 4);
    const Key keys[] = {9};
    const Step hints[] = {3};
    GpuCache::WarmPending pending[1];
    ASSERT_EQ(cache.WarmBegin(keys, hints, 1, pending), 1u);

    // Mid-warm slots are invisible to readers.
    std::vector<float> out(4);
    EXPECT_FALSE(cache.TryGet(9, out.data()));

    // A flush lands the committed value between the phases: it both
    // completes the slot and bumps the fill stamp.
    EXPECT_TRUE(cache.UpdateIfPresent(9, RowOf(42).data()));

    // The gather's (now stale) host row must lose to the flush value.
    cache.WarmCommit(keys, pending, 1, RowOf(-1).data());
    ASSERT_TRUE(cache.TryGet(9, out.data()));
    EXPECT_EQ(out[0], 42.0f);
}

TEST(GpuCacheWarmTest, EvictIfDeadReclaimsWithoutWriteback)
{
    GpuCache cache(2, 4);
    cache.Put(1, RowOf(1).data());
    EXPECT_TRUE(cache.EvictIfDead(1));
    EXPECT_FALSE(cache.Contains(1));
    EXPECT_FALSE(cache.EvictIfDead(1));  // already gone
    EXPECT_EQ(cache.stats().dead_evictions, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);  // not a capacity eviction
    // The freed slot is immediately reusable.
    cache.Put(2, RowOf(2).data());
    cache.Put(3, RowOf(3).data());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(GpuCacheBeladyTest, EvictsFarthestNextUseNotLru)
{
    GpuCache cache(2, 4);
    cache.SetEvictionHorizon(50);
    cache.Put(1, RowOf(1).data(), /*next_use=*/10);
    cache.Put(2, RowOf(2).data(), /*next_use=*/100);
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(2, out.data(), 100));  // LRU tail is now 1

    // Plain LRU would evict key 1 — but key 1 is needed at step 10 and
    // key 2 not until step 100, beyond the horizon: Belady evicts 2.
    const Key evicted = cache.Put(3, RowOf(3).data(), /*next_use=*/20);
    EXPECT_EQ(evicted, 2u);
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(3));
}

TEST(GpuCacheBeladyTest, AdmissionDeclinedWhenIncomingIsBestVictim)
{
    GpuCache cache(1, 4);
    cache.Put(1, RowOf(1).data(), /*next_use=*/5);
    // Key 2 is needed later than every resident: inserting it would
    // evict a sooner-needed row only for key 2 to be the next victim.
    const Key evicted = cache.Put(2, RowOf(2).data(), /*next_use=*/100);
    EXPECT_EQ(evicted, kInvalidKey);
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_FALSE(cache.Contains(2));
    // The reverse direction admits: sooner-needed keys displace later.
    const Key evicted2 = cache.Put(3, RowOf(3).data(), /*next_use=*/2);
    EXPECT_EQ(evicted2, 1u);
    EXPECT_TRUE(cache.Contains(3));
}

TEST(GpuCacheBeladyTest, HintedTryGetRefreshesEvictionOrder)
{
    GpuCache cache(2, 4);
    cache.Put(1, RowOf(1).data(), /*next_use=*/100);
    cache.Put(2, RowOf(2).data(), /*next_use=*/4);
    // Key 1's next use arrives: the trainer's hinted lookup rewrites it
    // to the post-read next use (soon), flipping the victim choice.
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(1, out.data(), /*next_use=*/3));
    ASSERT_TRUE(cache.TryGet(2, out.data(), /*next_use=*/4));
    const Key evicted = cache.Put(5, RowOf(5).data(), /*next_use=*/2);
    // Both residents are needed at 3 and 4; farthest next use is 4.
    EXPECT_EQ(evicted, 2u);
}

TEST(GpuCacheTieredTest, PromotionOnRereferenceAndSegmentCounters)
{
    // Capacity 4 → hot budget 3 (0.8 × 4 floored, min 1).
    GpuCache cache(4, 4);
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());
    EXPECT_EQ(cache.hot_size(), 0u);  // inserts start on probation

    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(1, out.data()));  // re-reference: promote
    EXPECT_EQ(cache.hot_size(), 1u);
    ASSERT_TRUE(cache.TryGet(1, out.data()));  // hot hit: stays hot
    EXPECT_EQ(cache.hot_size(), 1u);

    const GpuCacheStats stats = cache.stats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.cold_hits, 1u);
    EXPECT_EQ(stats.hot_hits, 1u);
    EXPECT_EQ(stats.hits, stats.hot_hits + stats.cold_hits);
}

TEST(GpuCacheTieredTest, HotOverflowDemotesLeastRecentHotRow)
{
    // Capacity 2 → hot budget 1: promoting a second row must demote
    // the first back to probation.
    GpuCache cache(2, 4);
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(1, out.data()));
    ASSERT_TRUE(cache.TryGet(2, out.data()));
    EXPECT_EQ(cache.hot_size(), 1u);
    EXPECT_EQ(cache.stats().promotions, 2u);
    EXPECT_EQ(cache.stats().demotions, 1u);
}

TEST(GpuCacheTieredTest, AdmissionGateBlocksOneHitWonders)
{
    GpuCache cache(2, 4);
    cache.Put(1, RowOf(1).data());
    cache.Put(2, RowOf(2).data());

    // Key 5 has never been looked up: at full capacity its estimated
    // frequency (0) does not beat the cold-tail victim's, so the
    // insert bounces — and loses nothing, the cache is write-through.
    EXPECT_EQ(cache.Put(5, RowOf(5).data()), kInvalidKey);
    EXPECT_FALSE(cache.Contains(5));
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(2));
    EXPECT_EQ(cache.stats().admission_declines, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // After the access stream proves key 5 (two recorded misses), it
    // out-ranks the never-referenced victim and is admitted.
    std::vector<float> out(4);
    EXPECT_FALSE(cache.TryGet(5, out.data()));
    EXPECT_FALSE(cache.TryGet(5, out.data()));
    EXPECT_NE(cache.Put(5, RowOf(5).data()), kInvalidKey);
    EXPECT_TRUE(cache.Contains(5));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(GpuCacheTieredTest, EvictionTakesProbationBeforeProtected)
{
    // Capacity 4: keys 1 and 2 are promoted (proven), 3 and 4 sit in
    // probation. A hotter newcomer must displace probation, not the
    // protected set.
    GpuCache cache(4, 4);
    std::vector<float> out(4);
    for (Key k = 1; k <= 4; ++k)
        cache.Put(k, RowOf(static_cast<float>(k)).data());
    ASSERT_TRUE(cache.TryGet(1, out.data()));
    ASSERT_TRUE(cache.TryGet(2, out.data()));

    EXPECT_FALSE(cache.TryGet(9, out.data()));  // record 9 twice
    EXPECT_FALSE(cache.TryGet(9, out.data()));
    const Key evicted = cache.Put(9, RowOf(9).data());
    EXPECT_TRUE(evicted == 3u || evicted == 4u) << "evicted " << evicted;
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(2));
    EXPECT_TRUE(cache.Contains(9));
}

TEST(GpuCacheTieredTest, CapacityOneFrequencyDuel)
{
    // Degenerate capacity: the sole resident is the victim candidate;
    // only a strictly hotter key may displace it.
    GpuCache cache(1, 4);
    cache.Put(1, RowOf(1).data());
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(1, out.data()));  // est(1) = 1, now hot

    EXPECT_EQ(cache.Put(2, RowOf(2).data()), kInvalidKey);  // 0 ≤ 1
    EXPECT_FALSE(cache.TryGet(2, out.data()));
    EXPECT_EQ(cache.Put(2, RowOf(2).data()), kInvalidKey);  // 1 ≤ 1
    EXPECT_FALSE(cache.TryGet(2, out.data()));
    EXPECT_EQ(cache.Put(2, RowOf(2).data()), 1u);  // 2 > 1: displaced
    EXPECT_TRUE(cache.Contains(2));
}

TEST(GpuCacheTieredTest, WarmRowsStayProbationaryUntilRereferenced)
{
    GpuCache cache(4, 4);
    const Key keys[] = {7};
    const Step hints[] = {5};
    ASSERT_EQ(cache.WarmBatch(keys, hints, 1,
                              [](const Key *, std::size_t, float *rows) {
                                  const auto row = RowOf(7);
                                  std::copy(row.begin(), row.end(), rows);
                              }),
              1u);
    EXPECT_EQ(cache.hot_size(), 0u);

    // First hit stands in for the demand insert the warm replaced:
    // cold MRU, no promotion. The second hit is the re-reference.
    std::vector<float> out(4);
    ASSERT_TRUE(cache.TryGet(7, out.data()));
    EXPECT_EQ(cache.hot_size(), 0u);
    EXPECT_EQ(cache.stats().warm_hits, 1u);
    ASSERT_TRUE(cache.TryGet(7, out.data()));
    EXPECT_EQ(cache.hot_size(), 1u);
    EXPECT_EQ(cache.stats().promotions, 1u);
}

TEST(GpuCacheTieredTest, ResizePreservesSegmentsAndRetainsHotRows)
{
    // The kCritical memory-pressure path: squeeze the cache hard, then
    // grow it back. Proven (hot) residents must be retained
    // preferentially, keep their segment membership, and survive with
    // their row data and next-use hints intact.
    GpuCache cache(8, 4);
    std::vector<float> out(4);
    for (Key k = 1; k <= 8; ++k)
        cache.Put(k, RowOf(static_cast<float>(k)).data());
    for (Key k = 1; k <= 4; ++k)
        ASSERT_TRUE(cache.TryGet(k, out.data()));  // promote 1..4
    EXPECT_EQ(cache.hot_size(), 4u);

    // Squeeze to half (what the monitor does at kCritical): the four
    // probationary rows are the emergency victims; the hot budget at
    // capacity 4 is 3, so one hot row demotes back to probation.
    EXPECT_EQ(cache.Resize(4), 4u);
    EXPECT_EQ(cache.size(), 4u);
    for (Key k = 1; k <= 4; ++k)
        EXPECT_TRUE(cache.Contains(k)) << "hot key " << k << " lost";
    for (Key k = 5; k <= 8; ++k)
        EXPECT_FALSE(cache.Contains(k));
    EXPECT_EQ(cache.hot_size(), 3u);
    EXPECT_EQ(cache.stats().demotions, 1u);

    // Rows survived the rebuild bit-for-bit.
    for (Key k = 1; k <= 4; ++k) {
        ASSERT_TRUE(cache.TryGet(k, out.data()));
        EXPECT_EQ(out[0], static_cast<float>(k));
    }

    // Grow back (pressure cleared): nothing is lost, segment state
    // still consistent, and the cache is immediately usable at the
    // restored capacity.
    EXPECT_EQ(cache.Resize(8), 0u);
    EXPECT_EQ(cache.size(), 4u);
    for (Key k = 1; k <= 4; ++k)
        EXPECT_TRUE(cache.Contains(k));
    cache.Put(9, RowOf(9).data());  // free slots exist again
    EXPECT_TRUE(cache.Contains(9));
    EXPECT_EQ(cache.size(), 5u);
}

TEST(GpuCacheTieredTest, ResizePreservesRecencyOrderWithinSegments)
{
    // Legacy mode resize keeps exact LRU order (the original resize
    // contract): shrink, then verify the next victim is the true LRU.
    GpuCache cache(4, 4, LegacyLruOptions());
    std::vector<float> out(4);
    for (Key k = 1; k <= 4; ++k)
        cache.Put(k, RowOf(static_cast<float>(k)).data());
    ASSERT_TRUE(cache.TryGet(1, out.data()));  // order (MRU→LRU): 1,4,3,2
    EXPECT_EQ(cache.Resize(3), 1u);            // evicts 2
    EXPECT_FALSE(cache.Contains(2));
    const Key evicted = cache.Put(9, RowOf(9).data());
    EXPECT_EQ(evicted, 3u);  // 3 is now the LRU tail
}

TEST(KeyOwnershipTest, PartitionIsCompleteAndStable)
{
    KeyOwnership owners(4);
    std::vector<int> counts(4, 0);
    for (Key k = 0; k < 100000; ++k) {
        const GpuId owner = owners.OwnerOf(k);
        ASSERT_LT(owner, 4u);
        counts[owner]++;
        ASSERT_EQ(owner, owners.OwnerOf(k));  // stable
    }
    for (int c : counts)  // roughly balanced
        EXPECT_NEAR(c, 25000, 1000);
}

TEST(KeyOwnershipTest, SingleGpuOwnsEverything)
{
    KeyOwnership owners(1);
    for (Key k = 0; k < 1000; ++k)
        ASSERT_EQ(owners.OwnerOf(k), 0u);
}

}  // namespace
}  // namespace frugal
