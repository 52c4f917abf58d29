/** Tests for the two-level priority queue (§3.4). */
#include "pq/two_level_pq.h"

#include <gtest/gtest.h>

#include <vector>

#include "pq/pq_ops.h"

namespace frugal {
namespace {

TwoLevelPQConfig
Config(Step max_step)
{
    TwoLevelPQConfig config;
    config.max_step = max_step;
    config.segment_slots = 4;  // exercise segment growth
    return config;
}

/** Enqueue an entry with one pending write whose next read is `read`. */
void
MakePending(FlushQueue &q, GEntry &e, Step read, Step wrote)
{
    RegisterRead(q, e, read);
    RegisterUpdate(q, e, {wrote, 0, {}});
}

TEST(TwoLevelPQTest, EmptyQueue)
{
    TwoLevelPQ q(Config(100));
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_FALSE(q.HasPendingAtOrBelow(100));
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 10), 0u);
}

TEST(TwoLevelPQTest, DequeueInPriorityOrder)
{
    TwoLevelPQ q(Config(100));
    GEntry e1(1), e2(2), e3(3);
    MakePending(q, e2, 20, 0);
    MakePending(q, e1, 5, 0);
    MakePending(q, e3, 50, 0);
    EXPECT_EQ(q.SizeApprox(), 3u);

    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 1), 1u);
    EXPECT_EQ(out[0].entry, &e1);
    EXPECT_EQ(q.DequeueClaim(out, 1), 1u);
    EXPECT_EQ(out[1].entry, &e2);
    EXPECT_EQ(q.DequeueClaim(out, 1), 1u);
    EXPECT_EQ(out[2].entry, &e3);
    EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(TwoLevelPQTest, InfinityDequeuedLast)
{
    TwoLevelPQ q(Config(100));
    GEntry no_reader(1), urgent(2);
    RegisterUpdate(q, no_reader, {0, 0, {}});  // R empty ⇒ priority ∞
    MakePending(q, urgent, 9, 0);

    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 2), 2u);
    EXPECT_EQ(out[0].entry, &urgent);
    EXPECT_EQ(out[1].entry, &no_reader);
}

TEST(TwoLevelPQTest, GatePredicateMatchesPaperCondition)
{
    // Fig. 6 ❺: priority at the front is 1 and step 1 may not start
    // because 1 > 1 is false.
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    MakePending(q, e, 1, 0);
    EXPECT_TRUE(q.HasPendingAtOrBelow(1));   // blocked
    EXPECT_FALSE(q.HasPendingAtOrBelow(0));  // step 0 may proceed

    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);
    // Claimed but not yet applied: the gate must stay closed (the claim
    // is in flight).
    EXPECT_TRUE(q.HasPendingAtOrBelow(1));
    FlushClaimed(q, out[0], [](Key, const WriteRecord &) {});
    EXPECT_FALSE(q.HasPendingAtOrBelow(1));  // flushed ⇒ unblocked
}

TEST(TwoLevelPQTest, AdjustPriorityLeavesLazyStaleCopy)
{
    TwoLevelPQ q(Config(100));
    GEntry e(1), f(2);
    RegisterRead(q, e, 4);
    RegisterRead(q, e, 30);
    RegisterUpdate(q, e, {0, 0, {}});  // e: priority 4
    MakePending(q, f, 4, 0);           // f: priority 4 (same bucket)
    EXPECT_TRUE(q.HasPendingAtOrBelow(4));

    // Training reaches step 4; e's update advances its priority to 30 and
    // leaves a stale physical copy in bucket 4 (paper's lazy deletion).
    RegisterUpdate(q, e, {4, 0, {}});
    EXPECT_TRUE(q.HasPendingAtOrBelow(4));  // f still there
    EXPECT_EQ(q.SizeApprox(), 2u);

    // Draining bucket 4 must claim f, discard e's stale copy, and find e
    // again at its new priority 30.
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 10), 2u);
    EXPECT_EQ(out[0].entry, &f);
    EXPECT_EQ(out[1].entry, &e);
    EXPECT_EQ(q.staleDiscards(), 1u);  // the bucket-4 leftover of e
    for (const ClaimTicket &ticket : out)
        FlushClaimed(q, ticket, [](Key, const WriteRecord &) {});
    EXPECT_FALSE(q.HasPendingAtOrBelow(100));
}

TEST(TwoLevelPQTest, ScanRangeCompressionReducesScans)
{
    // Same workload with and without compression; compressed scans must
    // touch far fewer priority-index slots.
    auto run = [](bool compressed) {
        TwoLevelPQ q(Config(10000));
        q.setScanCompression(compressed);
        std::vector<std::unique_ptr<GEntry>> entries;
        for (int i = 0; i < 50; ++i) {
            entries.push_back(std::make_unique<GEntry>(i));
            const Step read = 9000 + i;
            RegisterRead(q, *entries.back(), read);
            RegisterUpdate(q, *entries.back(), {8999, 0, {}});
        }
        q.SetScanBounds(/*floor=*/9000, /*horizon=*/9100);
        std::vector<ClaimTicket> out;
        while (q.DequeueClaim(out, 8) > 0) {
        }
        EXPECT_EQ(out.size(), 50u);
        return q.bucketsScanned();
    };
    const auto with = run(true);
    const auto without = run(false);
    EXPECT_LT(with * 10, without);
}

TEST(TwoLevelPQTest, ReEnqueueAfterFlush)
{
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    MakePending(q, e, 3, 0);
    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);
    EXPECT_EQ(FlushClaimed(q, out[0], [](Key, const WriteRecord &) {}),
              1u);

    // New update ⇒ entry re-enqueued (a second physical copy may exist in
    // the ∞ bucket; validation discards it).
    RegisterRead(q, e, 7);
    RegisterUpdate(q, e, {3, 0, {}});
    EXPECT_EQ(q.SizeApprox(), 1u);
    out.clear();
    EXPECT_EQ(q.DequeueClaim(out, 4), 1u);
    EXPECT_EQ(out[0].entry, &e);
}

TEST(TwoLevelPQTest, TakeClaimedWritesSortsByStepThenSrc)
{
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    RegisterRead(q, e, 50);
    RegisterUpdate(q, e, {7, 1, {}});
    RegisterUpdate(q, e, {7, 0, {}});
    RegisterUpdate(q, e, {2, 3, {}});
    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);
    auto writes = TakeClaimedWrites(*out[0].entry);
    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[0].step, 2u);
    EXPECT_EQ(writes[1].step, 7u);
    EXPECT_EQ(writes[1].src, 0u);
    EXPECT_EQ(writes[2].src, 1u);
}

TEST(TwoLevelPQTest, BatchedDequeueAmortisesScan)
{
    TwoLevelPQ q(Config(1000));
    std::vector<std::unique_ptr<GEntry>> entries;
    for (int i = 0; i < 64; ++i) {
        entries.push_back(std::make_unique<GEntry>(i));
        RegisterRead(q, *entries.back(), 500);
        RegisterUpdate(q, *entries.back(), {499, 0, {}});
    }
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 64), 64u);
    EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(TwoLevelPQTest, ReEnqueueDuringClaimLeavesNoZombie)
{
    // Regression: a registration re-enqueues an entry between a flush
    // thread's claim and its take; the flush consumes the new writes too
    // and must retire the standing enqueue, or the queue never looks
    // empty again (a live-lock observed in the async ablation).
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    RegisterRead(q, e, 5);
    RegisterRead(q, e, 9);
    RegisterUpdate(q, e, {2, 0, {}});  // enqueued at priority 5

    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);  // claimed (enqueued=false)

    // A registration interleaves: step 5's update arrives, re-enqueuing
    // the claimed entry at priority 9.
    RegisterUpdate(q, e, {5, 0, {}});
    EXPECT_EQ(q.SizeApprox(), 1u);

    // The flush takes both records and retires the standing enqueue.
    EXPECT_EQ(FlushClaimed(q, out[0], [](Key, const WriteRecord &) {}),
              2u);
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_FALSE(q.HasPendingAtOrBelow(100));
    // The stale physical copy left in bucket 9 is discardable garbage.
    out.clear();
    EXPECT_EQ(q.DequeueClaim(out, 4), 0u);
}

TEST(TwoLevelPQTest, StandingEnqueueKeepsGateShutUntilApplied)
{
    // A flush thread claims a deferred (∞-priority) entry. Before it
    // applies, the prefetch thread registers a read at step 4, which
    // re-enqueues the claimed entry at priority 4. The flush applies that
    // write and retires the standing enqueue, but step 4's gate must stay
    // shut until the write is in host memory: the claim's in-flight count
    // sits in the ∞ bucket, so only the standing enqueue covers step 4.
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    RegisterUpdate(q, e, {2, 0, {}});  // no reads yet: priority ∞
    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);
    ASSERT_EQ(out[0].priority, kInfiniteStep);
    RegisterRead(q, e, 4);
    EXPECT_TRUE(q.HasPendingAtOrBelow(4));

    bool gate_shut_while_applying = false;
    EXPECT_EQ(FlushClaimed(q, out[0],
                           [&](Key, const WriteRecord &) {
                               gate_shut_while_applying =
                                   q.HasPendingAtOrBelow(4);
                           }),
              1u);
    EXPECT_TRUE(gate_shut_while_applying);
    EXPECT_FALSE(q.HasPendingAtOrBelow(100));
    EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(TwoLevelPQTest, PriorityAtMaxStepIsRepresentable)
{
    TwoLevelPQ q(Config(10));
    GEntry e(1);
    RegisterRead(q, e, 10);
    RegisterUpdate(q, e, {9, 0, {}});
    EXPECT_TRUE(q.HasPendingAtOrBelow(10));
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, 1), 1u);
}

}  // namespace
}  // namespace frugal
