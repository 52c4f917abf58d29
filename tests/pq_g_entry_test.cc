/** Tests for the g-entry metadata record and the Equation (1) priority. */
#include "pq/g_entry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "pq/g_entry_registry.h"

// Counting global allocator: every test file is its own executable, so
// replacing operator new here lets a test assert that a code path makes
// no heap allocation at all.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void *
operator new(std::size_t size)
{
    // relaxed: a plain event counter; the tests read it on the same
    // thread that allocates.
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// GCC cannot see that the replaced operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace frugal {
namespace {

/** Convenience: run `fn` with the entry lock held. */
template <typename Fn>
auto
WithLock(GEntry &e, Fn &&fn)
{
    SpinGuard guard(e.lock());
    return fn();
}

TEST(GEntryTest, FreshEntryIsIdle)
{
    GEntry e(7);
    EXPECT_EQ(e.key(), 7u);
    WithLock(e, [&] {
        EXPECT_EQ(e.priorityLocked(), kInfiniteStep);
        EXPECT_FALSE(e.hasWritesLocked());
        EXPECT_FALSE(e.hasReadsLocked());
        EXPECT_FALSE(e.enqueuedLocked());
        return 0;
    });
}

TEST(GEntryTest, ReadAloneKeepsInfinitePriority)
{
    // Equation (1): priority is ∞ while the W set is empty.
    GEntry e(1);
    WithLock(e, [&] {
        auto [old_p, new_p] = e.AddReadLocked(5);
        EXPECT_EQ(old_p, kInfiniteStep);
        EXPECT_EQ(new_p, kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, WriteWithPendingReadSetsPriorityToMinRead)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(8);
        auto [old_p, new_p] = e.AddWriteLocked({2, 0, {}});
        EXPECT_EQ(old_p, kInfiniteStep);
        EXPECT_EQ(new_p, 3u);
        return 0;
    });
}

TEST(GEntryTest, WriteWithoutReadsIsInfinite)
{
    GEntry e(1);
    WithLock(e, [&] {
        auto [old_p, new_p] = e.AddWriteLocked({2, 0, {}});
        EXPECT_EQ(new_p, kInfiniteStep);
        (void)old_p;
        return 0;
    });
}

TEST(GEntryTest, RemoveReadAdvancesPriority)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(8);
        e.AddWriteLocked({2, 0, {}});
        auto [old_p, new_p] = e.RemoveReadLocked(3);
        EXPECT_EQ(old_p, 3u);
        EXPECT_EQ(new_p, 8u);
        return 0;
    });
}

TEST(GEntryTest, RemoveLastReadGoesInfinite)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddWriteLocked({2, 0, {}});
        auto [old_p, new_p] = e.RemoveReadLocked(3);
        EXPECT_EQ(old_p, 3u);
        EXPECT_EQ(new_p, kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, RemoveMiddleRead)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(5);
        e.AddReadLocked(9);
        e.AddWriteLocked({1, 0, {}});
        e.RemoveReadLocked(5);  // not the front
        EXPECT_EQ(e.priorityLocked(), 3u);
        EXPECT_EQ(e.readCountLocked(), 2u);
        e.RemoveReadLocked(3);
        EXPECT_EQ(e.priorityLocked(), 9u);
        return 0;
    });
}

TEST(GEntryTest, RemoveAbsentReadIsNoOp)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(4);
        e.AddWriteLocked({1, 0, {}});
        e.RemoveReadLocked(99);
        EXPECT_EQ(e.priorityLocked(), 4u);
        EXPECT_EQ(e.readCountLocked(), 1u);
        return 0;
    });
}

TEST(GEntryTest, DuplicateReadInSameStepDeduped)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(4);
        e.AddReadLocked(4);
        EXPECT_EQ(e.readCountLocked(), 1u);
        return 0;
    });
}

TEST(GEntryTest, TakeWritesEmptiesAndRecomputes)
{
    GEntry e(1);
    const std::array<float, 2> row_a = {1.0f, 2.0f};
    const std::array<float, 2> row_b = {3.0f, 4.0f};
    WithLock(e, [&] {
        e.AddReadLocked(6);
        e.AddWriteLocked({2, 0}, row_a);
        e.AddWriteLocked({4, 1}, row_b);
        auto writes = e.TakeWritesLocked();
        EXPECT_EQ(writes.size(), 2u);
        EXPECT_EQ(writes[0].step, 2u);
        EXPECT_EQ(writes[1].src, 1u);
        // Rows sit back to back in the entry's buffer.
        EXPECT_EQ(writes[0].grad_offset, 0u);
        EXPECT_EQ(writes[1].grad_offset, 2u);
        EXPECT_FALSE(e.hasWritesLocked());
        // W empty ⇒ priority back to ∞ even with reads pending.
        EXPECT_EQ(e.priorityLocked(), kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, OutOfOrderWritesApplyInCanonicalOrderWithOwnRows)
{
    // Records registered out of (step, src) order must come back sorted,
    // each still paired with the exact bytes of its own gradient row.
    constexpr std::size_t kDim = 3;
    struct Arrival
    {
        Step step;
        GpuId src;
        std::array<float, kDim> row;
    };
    const std::vector<Arrival> arrivals = {
        {5, 1, {0.51f, -0.0f, 1e-30f}},
        {3, 0, {0.30f, 0.31f, -7.25f}},
        {5, 0, {0.50f, 0.52f, 3.4e38f}},
        {3, 2, {0.32f, 0.33f, 0.34f}},
        {4, 1, {0.41f, 0.42f, 0.43f}},
    };
    const std::vector<std::size_t> canonical = {1, 3, 4, 2, 0};

    GEntry e(9);
    WithLock(e, [&] {
        e.AddReadLocked(8);
        for (const Arrival &a : arrivals)
            e.AddWriteLocked({a.step, a.src}, a.row);
        const std::span<const WriteRecord> sorted = e.SortWritesLocked();
        EXPECT_EQ(sorted.size(), arrivals.size());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            const Arrival &want = arrivals[canonical[i]];
            EXPECT_EQ(sorted[i].step, want.step) << i;
            EXPECT_EQ(sorted[i].src, want.src) << i;
            EXPECT_EQ(std::memcmp(e.gradLocked(sorted[i]), want.row.data(),
                                  sizeof(want.row)),
                      0)
                << i;
        }
        EXPECT_EQ(e.priorityLocked(), 8u);
        e.ClearWritesLocked();
        EXPECT_FALSE(e.hasWritesLocked());
        EXPECT_EQ(e.priorityLocked(), kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, SteadyStateAddFlushCyclesDoNotAllocate)
{
    // The engine's per-update path: the prefetcher registers a read,
    // registration removes it and adds one row per GPU, a flusher applies
    // the sorted W set and clears it. After one warm-up cycle has sized
    // the buffers, that cycle must never touch the heap.
    constexpr std::size_t kDim = 16;
    constexpr GpuId kGpus = 4;
    std::vector<float> rows(kGpus * kDim);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = 0.25f * static_cast<float>(i);
    std::vector<float> applied(kDim, 0.0f);

    GEntry e(3);
    auto cycle = [&](Step s) {
        SpinGuard guard(e.lock());
        e.AddReadLocked(s + 1);
        e.RemoveReadLocked(s);
        for (GpuId src = kGpus; src-- > 0;) {
            e.AddWriteLocked({s, src},
                             std::span<const float>(rows).subspan(
                                 src * kDim, kDim));
        }
        for (const WriteRecord &record : e.SortWritesLocked()) {
            const float *grad = e.gradLocked(record);
            for (std::size_t j = 0; j < kDim; ++j)
                applied[j] += grad[j];
        }
        e.ClearWritesLocked();
    };
    {
        SpinGuard guard(e.lock());
        e.AddReadLocked(0);
    }
    cycle(0);  // warm-up: sizes the R set, W set and row buffer

    // relaxed: single-threaded test; the counter is only read here.
    const std::size_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (Step s = 1; s <= 100; ++s)
        cycle(s);
    // relaxed: as above.
    const std::size_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);

    // Every cycle applied each GPU's row once.
    for (std::size_t j = 0; j < kDim; ++j) {
        float want = 0.0f;
        for (Step s = 0; s <= 100; ++s) {
            for (GpuId src = 0; src < kGpus; ++src)
                want += rows[src * kDim + j];
        }
        EXPECT_EQ(applied[j], want) << j;
    }
}

TEST(GEntryTest, NextReadReported)
{
    GEntry e(1);
    WithLock(e, [&] {
        EXPECT_EQ(e.nextReadLocked(), kInfiniteStep);
        e.AddReadLocked(11);
        EXPECT_EQ(e.nextReadLocked(), 11u);
        return 0;
    });
}

static_assert(alignof(GEntry) == 64,
              "g-entries must not share a cache line");

TEST(GEntryRegistryTest, GetOrCreateIsStable)
{
    GEntryRegistry registry(64);
    GEntry &a = registry.GetOrCreate(42);
    GEntry &b = registry.GetOrCreate(42);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.key(), 42u);
    EXPECT_EQ(registry.size(), 1u);
    GEntry &c = registry.GetOrCreate(43);
    EXPECT_NE(&c, &a);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&c) % 64, 0u);
}

TEST(GEntryRegistryTest, ForEachVisitsAll)
{
    GEntryRegistry registry(100);
    for (Key k = 0; k < 100; ++k)
        registry.GetOrCreate(k);
    int visited = 0;
    registry.ForEach([&](GEntry &) { ++visited; });
    EXPECT_EQ(visited, 100);
    EXPECT_EQ(registry.size(), 100u);
}

TEST(GEntryRegistryTest, GetOrCreateBatchMatchesSingles)
{
    GEntryRegistry batched(1001), singles(1001);
    // Unsorted keys with duplicates and a key that already exists.
    batched.GetOrCreate(17);
    singles.GetOrCreate(17);
    const std::vector<Key> keys = {42, 7, 17, 42, 1000, 7, 3};
    std::vector<GEntry *> out(keys.size(), nullptr);
    batched.GetOrCreateBatch(keys, out.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(out[i], nullptr) << i;
        EXPECT_EQ(out[i]->key(), keys[i]) << i;
        // Duplicates resolve to the same entry, and a later single-call
        // lookup agrees with the batch result.
        EXPECT_EQ(out[i], &batched.GetOrCreate(keys[i])) << i;
        singles.GetOrCreate(keys[i]);
    }
    EXPECT_EQ(out[0], out[3]);
    EXPECT_EQ(out[1], out[5]);
    EXPECT_EQ(batched.size(), singles.size());
}

TEST(GEntryRegistryTest, GetOrCreateBatchEmptyAndLarge)
{
    GEntryRegistry registry(600 * 31);
    registry.GetOrCreateBatch(std::span<const Key>{}, nullptr);
    EXPECT_EQ(registry.size(), 0u);

    // Enough keys to force arena chunk growth.
    std::vector<Key> keys;
    for (Key k = 0; k < 600; ++k)
        keys.push_back(k * 31 + 5);
    std::vector<GEntry *> out(keys.size(), nullptr);
    registry.GetOrCreateBatch(keys, out.data());
    EXPECT_EQ(registry.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(out[i], &registry.GetOrCreate(keys[i])) << i;
    EXPECT_EQ(registry.size(), keys.size());
}

TEST(GEntryRegistryTest, ConcurrentFirstTouchCreatesOneEntryPerKey)
{
    // Four threads resolve overlapping key sets, each in its own
    // shuffled order, alternating single and batched calls, all released
    // at once: most keys' first touches race. Thread t skips the keys
    // k with k % 5 == t, so every key below kTouched is resolved by
    // three or four threads, and the keys above it by none.
    constexpr int kThreads = 4;
    constexpr std::size_t kKeySpace = 4096;
    constexpr std::size_t kTouched = 3000;
    constexpr std::size_t kChunk = 64;
    GEntryRegistry registry(kKeySpace);
    std::vector<std::vector<Key>> keys(kThreads);
    std::vector<std::vector<GEntry *>> got(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        for (Key k = 0; k < kTouched; ++k) {
            if (k % 5 != static_cast<Key>(t))
                keys[t].push_back(k);
        }
        Rng rng(100 + t);
        std::shuffle(keys[t].begin(), keys[t].end(), rng);
        got[t].assign(keys[t].size(), nullptr);
    }
    std::vector<int> wrong_keys(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::vector<Key> &mine = keys[t];
            std::vector<GEntry *> &out = got[t];
            start.arrive_and_wait();
            for (std::size_t i = 0; i < mine.size(); i += kChunk) {
                const std::size_t n = std::min(kChunk, mine.size() - i);
                if ((i / kChunk) % 2 == 0) {
                    for (std::size_t j = i; j < i + n; ++j)
                        out[j] = &registry.GetOrCreate(mine[j]);
                } else {
                    registry.GetOrCreateBatch(
                        std::span<const Key>(mine).subspan(i, n),
                        out.data() + i);
                }
                // Read each entry on this thread, most of them built by
                // another: TSan reports an entry published without
                // release/acquire ordering.
                for (std::size_t j = i; j < i + n; ++j)
                    wrong_keys[t] += out[j]->key() != mine[j] ? 1 : 0;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(wrong_keys[t], 0) << "thread " << t;

    std::vector<GEntry *> entry_of(kKeySpace, nullptr);
    for (int t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < keys[t].size(); ++i) {
            const Key key = keys[t][i];
            GEntry *entry = got[t][i];
            ASSERT_NE(entry, nullptr) << "thread " << t << " key " << key;
            EXPECT_EQ(entry->key(), key);
            if (entry_of[key] == nullptr)
                entry_of[key] = entry;
            EXPECT_EQ(entry, entry_of[key]) << "key " << key;
        }
    }
    EXPECT_EQ(registry.size(), kTouched);
    std::size_t visited = 0;
    registry.ForEach([&](GEntry &entry) {
        ++visited;
        ASSERT_LT(entry.key(), kTouched);
        EXPECT_EQ(&entry, entry_of[entry.key()]);
    });
    EXPECT_EQ(visited, kTouched);
}

TEST(GEntryRegistryDeathTest, KeyOutsideKeySpaceDies)
{
    GEntryRegistry registry(16);
    EXPECT_EQ(registry.GetOrCreate(15).key(), 15u);
    EXPECT_DEATH((void)registry.GetOrCreate(16),
                 "outside the registry's key space");
    const std::vector<Key> keys = {3, 1000};
    std::vector<GEntry *> out(keys.size(), nullptr);
    EXPECT_DEATH(registry.GetOrCreateBatch(keys, out.data()),
                 "outside the registry's key space");
}

}  // namespace
}  // namespace frugal
