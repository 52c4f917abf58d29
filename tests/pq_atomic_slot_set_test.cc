/** Tests for the lock-free slot multiset behind the two-level PQ. */
#include "pq/atomic_slot_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <vector>

namespace frugal {
namespace {

TEST(AtomicSlotSetTest, InsertThenPop)
{
    AtomicSlotSet<int> set;
    int a = 1, b = 2;
    set.Insert(&a);
    set.Insert(&b);
    EXPECT_EQ(set.size(), 2u);
    std::set<int *> popped;
    popped.insert(set.PopAny());
    popped.insert(set.PopAny());
    EXPECT_TRUE(popped.count(&a));
    EXPECT_TRUE(popped.count(&b));
    EXPECT_EQ(set.PopAny(), nullptr);
    EXPECT_TRUE(set.empty());
}

TEST(AtomicSlotSetTest, GrowsPastOneSegment)
{
    AtomicSlotSet<int> set(/*segment_slots=*/4);
    std::vector<int> values(100);
    for (int &v : values)
        set.Insert(&v);
    EXPECT_EQ(set.size(), 100u);
    int popped = 0;
    while (set.PopAny() != nullptr)
        ++popped;
    EXPECT_EQ(popped, 100);
}

TEST(AtomicSlotSetTest, DuplicateInsertionAllowed)
{
    AtomicSlotSet<int> set;
    int a = 1;
    set.Insert(&a);
    set.Insert(&a);
    EXPECT_EQ(set.PopAny(), &a);
    EXPECT_EQ(set.PopAny(), &a);
    EXPECT_EQ(set.PopAny(), nullptr);
}

TEST(AtomicSlotSetTest, InterleavedInsertPopReusesNothingButStaysCorrect)
{
    AtomicSlotSet<int> set(/*segment_slots=*/8);
    std::vector<int> values(1000);
    // Insert/pop churn with the set held near-empty; exercises the scan
    // head advancement over exhausted segments.
    for (int round = 0; round < 1000; ++round) {
        set.Insert(&values[round]);
        ASSERT_EQ(set.PopAny(), &values[round]);
        ASSERT_EQ(set.PopAny(), nullptr);
    }
}

TEST(AtomicSlotSetTest, ConcurrentInsertPopConservesElements)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    AtomicSlotSet<std::atomic<int>> set(/*segment_slots=*/64);
    std::vector<std::atomic<int>> tokens(kThreads * kPerThread);
    for (auto &t : tokens)
        t.store(0);

    std::atomic<int> produced{0};
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                set.Insert(&tokens[t * kPerThread + i]);
                produced++;
                // Pop opportunistically to create churn.
                if (auto *p = set.PopAny()) {
                    p->fetch_add(1);
                    consumed++;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Drain the rest.
    while (auto *p = set.PopAny()) {
        p->fetch_add(1);
        consumed++;
    }
    EXPECT_EQ(produced.load(), kThreads * kPerThread);
    EXPECT_EQ(consumed.load(), produced.load());
    // Every token popped exactly once.
    for (auto &t : tokens)
        ASSERT_EQ(t.load(), 1);
    EXPECT_TRUE(set.empty());
}

/** Asserts the quiescent slot accounting is exact. */
template <typename T>
void
ExpectExactAccounting(const AtomicSlotSet<T> &set)
{
    const auto snap = set.AuditAccounting();
    EXPECT_TRUE(snap.per_segment_consistent);
    EXPECT_EQ(snap.announced - snap.popped, set.size());
}

TEST(AtomicSlotSetTest, InsertBatchKeepsFifoOrderAcrossSegments)
{
    // Four-slot segments, so the batches start at every offset within a
    // segment and the larger ones span two or three segments.
    AtomicSlotSet<int> set(/*segment_slots=*/4);
    std::vector<int> values(200);
    std::size_t next = 0;
    // Single-threaded, PopAny takes the lowest occupied index, so the
    // set behaves as a FIFO of what Insert and InsertBatch added.
    std::deque<int *> expected;
    const auto insert_one = [&] {
        set.Insert(&values[next]);
        expected.push_back(&values[next++]);
    };
    const auto insert_batch = [&](std::size_t n) {
        std::vector<int *> batch;
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(&values[next + i]);
        set.InsertBatch(batch.data(), n);
        expected.insert(expected.end(), batch.begin(), batch.end());
        next += n;
    };
    const auto pop_one = [&] {
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(set.PopAny(), expected.front());
        expected.pop_front();
    };
    for (int round = 0; round < 3; ++round) {
        for (const std::size_t n : {0, 1, 3, 4, 5, 11}) {
            insert_one();
            insert_batch(n);
            pop_one();
            EXPECT_EQ(set.size(), expected.size());
            ExpectExactAccounting(set);
        }
    }
    while (!expected.empty())
        pop_one();
    EXPECT_EQ(set.PopAny(), nullptr);
    EXPECT_TRUE(set.empty());
    ExpectExactAccounting(set);
}

TEST(AtomicSlotSetTest, ConcurrentBatchInserterRacesTwoPoppers)
{
    constexpr int kTokens = 30000;
    AtomicSlotSet<std::atomic<int>> set(/*segment_slots=*/4);
    std::vector<std::atomic<int>> tokens(kTokens);
    for (auto &t : tokens)
        t.store(0);

    std::atomic<int> consumed{0};
    std::atomic<bool> inserted{false};
    std::thread inserter([&] {
        std::vector<std::atomic<int> *> batch;
        int next = 0;
        for (std::size_t n = 0; next < kTokens; n = (n + 1) % 12) {
            batch.clear();
            for (std::size_t i = 0; i < n && next < kTokens; ++i)
                batch.push_back(&tokens[next++]);
            set.InsertBatch(batch.data(), batch.size());
        }
        inserted.store(true);
    });
    const auto popper = [&] {
        while (!inserted.load() || !set.empty()) {
            if (auto *p = set.PopAny()) {
                p->fetch_add(1);
                consumed++;
            }
        }
    };
    std::thread first(popper);
    std::thread second(popper);
    inserter.join();
    first.join();
    second.join();
    EXPECT_EQ(consumed.load(), kTokens);
    for (auto &t : tokens)
        ASSERT_EQ(t.load(), 1);
    EXPECT_TRUE(set.empty());
    const auto snap = set.AuditAccounting();
    EXPECT_TRUE(snap.per_segment_consistent);
    EXPECT_EQ(snap.announced, static_cast<std::size_t>(kTokens));
    EXPECT_EQ(snap.popped, static_cast<std::size_t>(kTokens));
}

TEST(AtomicSlotSetTest, SizeTracksOccupancy)
{
    AtomicSlotSet<int> set;
    std::vector<int> values(10);
    for (std::size_t i = 0; i < values.size(); ++i) {
        set.Insert(&values[i]);
        EXPECT_EQ(set.size(), i + 1);
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_NE(set.PopAny(), nullptr);
        EXPECT_EQ(set.size(), values.size() - i - 1);
    }
}

}  // namespace
}  // namespace frugal
