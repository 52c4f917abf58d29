/** Tests for the two-level priority queue (§3.4). */
#include "pq/two_level_pq.h"

#include <gtest/gtest.h>

#include <memory>
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

TEST(TwoLevelPQTest, FlushClaimedAppliesByStepThenSrc)
{
    TwoLevelPQ q(Config(100));
    GEntry e(1);
    RegisterRead(q, e, 50);
    RegisterUpdate(q, e, {7, 1, {}});
    RegisterUpdate(q, e, {7, 0, {}});
    RegisterUpdate(q, e, {2, 3, {}});
    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaim(out, 1), 1u);
    std::vector<WriteRecord> writes;
    EXPECT_EQ(FlushClaimed(q, out[0],
                           [&](Key, const WriteRecord &record) {
                               writes.push_back(record);
                           }),
              3u);
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

/** Gives `e` one pending write and, for a finite `read`, one read at
 *  that step, marks it enqueued and returns its priority. */
Priority
MarkPendingLocked(GEntry &e, Step read) FRUGAL_REQUIRES(e.lock())
{
    if (read != kInfiniteStep)
        e.AddReadLocked(read);
    e.AddWriteLocked({0, 0, {}});
    e.setEnqueuedLocked(true);
    return e.priorityLocked();
}

TEST(TwoLevelPQTest, BatchedEnqueueMatchesPerEntryEnqueue)
{
    // Finite priorities inside the scan window, ∞, and priorities past
    // the scan horizon that share a batch-window slot with earlier
    // buckets (5, 69 and 133 all map to slot 5), so the batch publishes
    // groups early as well as after the pass. The 40 entries at 3, the
    // lowest bucket, also publish during the pass in urgent groups.
    std::vector<Step> reads = {7,   kInfiniteStep, 5,  69, 5, 133,
                               6,   kInfiniteStep, 69, 7,  5, 190,
                               131, 6,             67, 3};
    reads.insert(reads.end(), 39, 3);
    TwoLevelPQConfig config = Config(200);
    config.n_shards = 2;
    TwoLevelPQ single(config), batched(config);
    single.SetScanBounds(0, 10);
    batched.SetScanBounds(0, 10);
    std::vector<std::unique_ptr<GEntry>> a, b;
    batched.BeginBatch(reads.size() + 3);  // the surplus is returned
    for (std::size_t i = 0; i < reads.size(); ++i) {
        a.push_back(std::make_unique<GEntry>(static_cast<Key>(i)));
        b.push_back(std::make_unique<GEntry>(static_cast<Key>(i)));
        {
            SpinGuard guard(a[i]->lock());
            single.Enqueue(a[i].get(), MarkPendingLocked(*a[i], reads[i]));
        }
        SpinGuard guard(b[i]->lock());
        batched.EnqueueBatched(b[i].get(), MarkPendingLocked(*b[i], reads[i]));
    }
    // The logical counts rose under the entry locks: the gate already
    // agrees before the copies publish.
    for (Step s = 0; s <= 200; ++s)
        ASSERT_EQ(batched.HasPendingAtOrBelow(s), single.HasPendingAtOrBelow(s))
            << "step " << s;
    EXPECT_EQ(batched.SizeApprox(), reads.size() + 3);
    batched.PublishBatch();
    EXPECT_EQ(batched.SizeApprox(), single.SizeApprox());
    // Per-bucket logical/in-flight counts, size and per-shard residency.
    EXPECT_EQ(batched.DebugDump(), single.DebugDump());

    // Same dequeue order: first within the scan horizon, then after it
    // moves past every finite priority.
    const auto drain_one = [&](std::size_t shard_hint) {
        std::vector<ClaimTicket> x, y;
        const std::size_t nx = single.DequeueClaim(x, 1, shard_hint);
        const std::size_t ny = batched.DequeueClaim(y, 1, shard_hint);
        EXPECT_EQ(nx, ny);
        if (nx != 1 || ny != 1)
            return false;
        EXPECT_EQ(x[0].entry->key(), y[0].entry->key());
        EXPECT_EQ(x[0].priority, y[0].priority);
        FlushClaimed(single, x[0], [](Key, const WriteRecord &) {});
        FlushClaimed(batched, y[0], [](Key, const WriteRecord &) {});
        EXPECT_EQ(batched.DebugDump(), single.DebugDump());
        return true;
    };
    std::size_t claimed = 0;
    for (std::size_t hint = 0; claimed < 48 && drain_one(hint % 2); ++hint)
        ++claimed;
    single.SetScanBounds(0, 200);
    batched.SetScanBounds(0, 200);
    for (std::size_t hint = 0; drain_one(hint % 2); ++hint)
        ++claimed;
    EXPECT_EQ(claimed, reads.size());
    EXPECT_EQ(batched.SizeApprox(), 0u);
    EXPECT_EQ(single.AuditInvariants(/*quiescent=*/true), 0u);
    EXPECT_EQ(batched.AuditInvariants(/*quiescent=*/true), 0u);
}

TEST(TwoLevelPQTest, StaleCopyClaimedBeforeBatchPublishes)
{
    // The entry's earlier ∞ residence left a stale copy in the ∞ bucket.
    // A batch then enqueues it at ∞ again; a dequeuer pops the stale copy
    // and claims the entry before the batch publishes its own copy, which
    // the publish then leaves stale. The accounting must still balance.
    TwoLevelPQ q(Config(10));
    GEntry e(1);
    RegisterUpdate(q, e, {0, 0, {}});  // priority ∞: copy in ∞
    RegisterRead(q, e, 3);             // moves to 3; the ∞ copy is stale
    std::vector<ClaimTicket> out;
    ASSERT_EQ(q.DequeueClaimBelow(out, 1, 0, 3), 1u);
    FlushClaimed(q, out[0], [](Key, const WriteRecord &) {});
    ASSERT_EQ(q.SizeApprox(), 0u);

    q.BeginBatch(1);
    {
        SpinGuard guard(e.lock());
        const Priority before = e.priorityLocked();
        e.RemoveReadLocked(3);
        e.AddWriteLocked({3, 0, {}});
        ASSERT_EQ(e.priorityLocked(), kInfiniteStep);
        PropagatePriorityBatchedLocked(q, e, before, kInfiniteStep);
        ASSERT_TRUE(e.enqueuedLocked());
    }
    out.clear();
    ASSERT_EQ(q.DequeueClaim(out, 4), 1u);  // through the stale copy
    EXPECT_EQ(out[0].entry, &e);
    EXPECT_EQ(out[0].priority, kInfiniteStep);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/false), 0u);
    EXPECT_EQ(FlushClaimed(q, out[0], [](Key, const WriteRecord &) {}), 1u);
    q.PublishBatch();
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_FALSE(q.HasPendingAtOrBelow(10));
    // The published copy is stale: never claimed.
    out.clear();
    EXPECT_EQ(q.DequeueClaim(out, 4), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/true), 0u);
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
