/**
 * @file
 * Systematic-interleaving scenarios for the flush path, run under the
 * deterministic explorer (src/check/scheduler.h). Each scenario is a
 * small fixed cast of threads driving the REAL production types
 * (AtomicSlotSet, TwoLevelPQ, GEntry, the pq_ops transitions); the
 * explorer enumerates a bounded-preemption DFS of their interleavings
 * and then diversifies with seeded PCT until ≥ 10k distinct schedules
 * were covered, asserting on every one:
 *
 *  - the P²F invariant: when the gate for step s reports clear, every
 *    update produced for a step < s (and registered before gating
 *    began) is already in host memory;
 *  - exactly-once claims: no g-entry is claimed by two flush threads
 *    for the same enqueue;
 *  - monotone priorities: a DequeueClaim batch is priority-sorted and
 *    DequeueClaimBelow never exceeds its ceiling;
 *  - slot-set accounting: per segment, popped ≤ published at every
 *    instant (the announce-before-publish protocol).
 *
 * The *_ReorderBugCaught test is the negative control: it runs the
 * exact announce/publish protocol of AtomicSlotSet::Insert with the
 * PR 1 bug shape deliberately re-introduced (pointer published before
 * the counter announcement) and requires the explorer to find the
 * violating schedule. If the explorer ever loses the power to catch
 * that bug class, this test fails. BatchedCountAfterPublishBugCaught is
 * the batched registration's counterpart: its registrar raises the
 * logical counts after the pass instead of under each entry lock, and
 * the mid-run audits must see a count go negative.
 *
 * These tests are meaningful only when the model_atomic shims are live
 * (FRUGAL_MODELCHECK builds — the `modelcheck` preset); elsewhere they
 * skip, so the tier-1 suite carries them at zero cost.
 */
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "check/model_sync.h"
#include "check/scheduler.h"
#include "common/types.h"
#include "pq/atomic_slot_set.h"
#include "pq/g_entry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

#if FRUGAL_MODELCHECK
#define FRUGAL_REQUIRE_MODELCHECK() (void)0
#else
#define FRUGAL_REQUIRE_MODELCHECK()                                       \
    GTEST_SKIP() << "built without FRUGAL_MODELCHECK shims; run via the " \
                    "'modelcheck' preset"
#endif

/** Every scenario must clear this many distinct schedules (acceptance
 *  bar; the explorer reports the exact count in the test output). */
constexpr std::uint64_t kDistinctTarget = 10000;

/** Prints and records the exploration outcome for one scenario. */
void
ReportExploration(const char *scenario, const check::Result &result)
{
    std::printf("[ modelcheck ] %s: %s\n", scenario,
                result.Summary().c_str());
    ::testing::Test::RecordProperty(
        std::string(scenario) + "_distinct_schedules",
        static_cast<int>(result.distinct_schedules));
}

check::Options
DefaultOptions()
{
    check::Options options;
    options.target_distinct = kDistinctTarget;
    options.max_dfs_schedules = 4000;
    options.max_schedules = 60000;
    return options;
}

// --------------------------------------------------------------------
// Scenario: AtomicSlotSet announce/claim with a concurrent auditor.
// --------------------------------------------------------------------

TEST(ModelCheckSlotSet, AnnounceClaimAudit)
{
    FRUGAL_REQUIRE_MODELCHECK();
    static int items[3];

    // Full bounded-DFS coverage: the announce/publish reorder needs an
    // early divergence (preempting the inserter mid-insert), which DFS
    // reaches last — so this scenario gets a budget that exhausts the
    // whole ≤2-preemption space, making detection deterministic rather
    // than probabilistic.
    check::Options options = DefaultOptions();
    options.max_dfs_schedules = 120000;
    options.max_schedules = 150000;

    const check::Result result = check::Explore(
        options, [](check::Explorer &ex) {
            // Two-slot segments: the two-item batch after the single
            // insert fills the first segment's second slot, where an
            // unannounced pointer is observable (a popper passes the
            // segment's check on the first item's announcement), and
            // spans into a second segment, so the explorer also runs
            // the per-segment announce loop and the growth within it.
            auto set = std::make_shared<AtomicSlotSet<int>>(2);
            auto tally =
                std::make_shared<std::array<model_atomic<int>, 3>>();

            // Two competing poppers matter: the announce-before-publish
            // reorder only becomes observable when one popper drains the
            // announced population while another — already past the
            // occupancy gate — claims a slot whose counters were not yet
            // announced (popped overtakes published). A lone popper
            // re-checks the gate per attempt and never reaches that
            // window, and the schedule needs just two preemptions, so
            // the bounded DFS finds it deterministically.
            auto pop_once = [set, tally] {
                int *item = set->PopAny();
                if (item != nullptr)
                    (*tally)[item - items].fetch_add(1);
            };
            ex.Thread([set] {
                set->Insert(&items[0]);
                int *const batch[] = {&items[1], &items[2]};
                set->InsertBatch(batch, 2);
            });
            ex.Thread(pop_once);
            ex.Thread(pop_once);
            ex.Thread([set] {
                for (int i = 0; i < 2; ++i) {
                    const auto snap = set->AuditAccounting();
                    check::ModelAssert(
                        snap.per_segment_consistent,
                        "slot-set audit: popped > published mid-run");
                    check::ModelAssert(snap.popped <= snap.announced,
                                       "slot-set audit: total popped > "
                                       "total announced");
                }
            });
            ex.Go();

            // Quiescence: whatever the popper missed is still present;
            // drain it and require each item claimed exactly once.
            for (int *item = set->PopAny(); item != nullptr;
                 item = set->PopAny()) {
                (*tally)[item - items].fetch_add(1);
            }
            ex.Check((*tally)[0].load() == 1, "item 0 claimed once");
            ex.Check((*tally)[1].load() == 1, "item 1 claimed once");
            ex.Check((*tally)[2].load() == 1, "item 2 claimed once");
            const auto snap = set->AuditAccounting();
            ex.Check(snap.per_segment_consistent,
                     "quiescent slot-set accounting consistent");
            ex.Check(snap.announced == snap.popped,
                     "quiescent: announced == popped");
            ex.Check(set->empty(), "quiescent: set drained");
        });

    ReportExploration("SlotSetAnnounceClaimAudit", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// --------------------------------------------------------------------
// Negative control: the PR 1 announce-before-publish reorder bug.
//
// MiniInsert replicates the exact protocol of AtomicSlotSet::Insert
// (announce the published counter, then store the pointer); the buggy
// variant restores the pre-PR 1 ordering (store the pointer first).
// Under that ordering a popper can claim the pointer and bump `popped`
// before `published` was announced, so a concurrent audit observes
// popped > published — the explorer must find such a schedule.
// --------------------------------------------------------------------

struct MiniSlotSet
{
    std::array<model_atomic<int *>, 2> slots{};
    model_atomic<std::size_t> published{0};
    model_atomic<std::size_t> popped{0};
};

void
MiniInsert(MiniSlotSet &set, std::size_t slot, int *item,
           bool announce_first)
{
    if (announce_first) {
        set.published.fetch_add(1);
        set.slots[slot].store(item);
    } else {
        // The bug shape: pointer visible before its announcement.
        set.slots[slot].store(item);
        set.published.fetch_add(1);
    }
}

void
MiniPop(MiniSlotSet &set, std::size_t slot)
{
    int *item = set.slots[slot].load();
    if (item != nullptr &&
        set.slots[slot].compare_exchange_strong(item, nullptr)) {
        set.popped.fetch_add(1);
    }
}

void
MiniAudit(MiniSlotSet &set)
{
    // Same load order as AtomicSlotSet::AuditAccounting: popped first,
    // so a racing insert can only make the check conservative.
    const std::size_t popped = set.popped.load();
    const std::size_t published = set.published.load();
    check::ModelAssert(popped <= published,
                       "audit observed popped > published");
}

check::Result
ExploreMiniProtocol(bool announce_first, const check::Options &options)
{
    static int items[2];
    return check::Explore(options, [announce_first](check::Explorer &ex) {
        auto set = std::make_shared<MiniSlotSet>();
        ex.Thread([set, announce_first] {
            MiniInsert(*set, 0, &items[0], announce_first);
            MiniInsert(*set, 1, &items[1], announce_first);
        });
        ex.Thread([set] {
            MiniPop(*set, 0);
            MiniPop(*set, 1);
            MiniPop(*set, 0);
        });
        ex.Thread([set] {
            MiniAudit(*set);
            MiniAudit(*set);
            MiniAudit(*set);
        });
        ex.Go();
        // Quiescent audit only for the expected-clean variant: a run
        // aborted by an in-run violation (the buggy variant's whole
        // point) unwinds the inserter mid-protocol, legitimately
        // leaving popped > published at rest.
        if (announce_first)
            MiniAudit(*set);
    });
}

TEST(ModelCheckSlotSet, AnnounceFirstOrderingHolds)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result =
        ExploreMiniProtocol(/*announce_first=*/true, DefaultOptions());
    ReportExploration("AnnounceFirstOrderingHolds", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

TEST(ModelCheckSlotSet, ReorderBugCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result =
        ExploreMiniProtocol(/*announce_first=*/false, options);
    ReportExploration("ReorderBugCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch the announce-before-publish "
           "reorder bug: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("popped > published"),
              std::string::npos)
        << result.first_violation;
}

// --------------------------------------------------------------------
// TwoLevelPQ scenarios.
// --------------------------------------------------------------------

/** Per-run PQ fixture: a small sharded queue plus per-entry claim
 *  counters; built fresh by every schedule (off-model, on the driving
 *  thread, so construction adds no schedule points). */
struct PQState
{
    static constexpr std::size_t kEntries = 4;

    TwoLevelPQ queue;
    std::vector<std::unique_ptr<GEntry>> entries;
    std::array<model_atomic<int>, kEntries> claims{};

    explicit PQState(std::size_t n_shards)
        : queue(TwoLevelPQConfig{/*max_step=*/3, /*segment_slots=*/4,
                                 n_shards})
    {
        for (std::size_t i = 0; i < kEntries; ++i)
            entries.push_back(std::make_unique<GEntry>(static_cast<Key>(i)));
        queue.SetScanBounds(0, 3);
    }

    GEntry &entry(std::size_t i) { return *entries[i]; }

    /** Seeds entry `i` with R = {read_step} and one pending write, so
     *  its priority is `read_step` (Equation (1)). */
    void
    SeedPending(std::size_t i, Step read_step)
    {
        RegisterRead(queue, entry(i), read_step);
        RegisterUpdate(queue, entry(i), WriteRecord{/*step=*/0, 0, {}, {}});
    }

    /** Seeds entry `i` with a write but no reads: priority ∞. */
    void
    SeedDeferred(std::size_t i)
    {
        RegisterUpdate(queue, entry(i), WriteRecord{/*step=*/0, 0, {}, {}});
    }

    /** Records a claim, requiring it to be the first for its entry
     *  (exactly-once: nothing in these scenarios re-enqueues after a
     *  claim, so a second claim is always a duplicate). */
    void
    RecordClaim(const ClaimTicket &ticket)
    {
        const auto index = static_cast<std::size_t>(ticket.entry->key());
        const int prior = claims[index].fetch_add(1);
        check::ModelAssert(prior == 0, "entry claimed twice");
    }

    /** Claim + flush body of one model flush thread. */
    void
    FlushBatch(const std::vector<ClaimTicket> &batch)
    {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (i + 1 < batch.size()) {
                check::ModelAssert(
                    batch[i].priority <= batch[i + 1].priority,
                    "claim batch priorities not monotone");
            }
            RecordClaim(batch[i]);
            FlushClaimed(queue, batch[i], [](Key, const WriteRecord &) {});
        }
    }

    /** Drains everything left at quiescence and asserts the terminal
     *  invariants. Called on the driving thread after Go(). */
    void
    CheckDrainedExactlyOnce(check::Explorer &ex, std::size_t expect_claims)
    {
        std::vector<ClaimTicket> rest;
        queue.DequeueClaim(rest, kEntries * 2, 0);
        for (const ClaimTicket &ticket : rest) {
            RecordClaim(ticket);
            FlushClaimed(queue, ticket, [](Key, const WriteRecord &) {});
        }
        std::size_t total = 0;
        for (const auto &count : claims)
            total += static_cast<std::size_t>(count.load());
        ex.Check(total == expect_claims,
                 "every pending entry claimed exactly once");
        ex.Check(queue.AuditInvariants(/*quiescent=*/true) == 0,
                 "quiescent queue audit clean");
        ex.Check(!queue.HasPendingAtOrBelow(3), "gate clear at quiescence");
        ex.Check(queue.SizeApprox() == 0, "queue drained");
    }
};

// Two dequeuers with distinct shard hints race an updater that enqueues
// a fresh entry mid-run; sharded fast paths and the work-stealing
// fallback interleave freely. Checks: exactly-once claims, monotone
// batches, exact quiescent accounting.
TEST(ModelCheckTwoLevelPQ, ShardedDequeueExactlyOnce)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            st->SeedPending(0, /*read_step=*/1);
            st->SeedPending(1, /*read_step=*/2);
            st->SeedDeferred(2);

            ex.Thread([st] {
                // A registration adds a new update concurrently.
                RegisterRead(st->queue, st->entry(3), /*step=*/1);
                RegisterUpdate(st->queue, st->entry(3),
                               WriteRecord{/*step=*/0, 0, {}, {}});
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 2, /*shard_hint=*/0);
                st->FlushBatch(batch);
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 2, /*shard_hint=*/1);
                st->FlushBatch(batch);
            });
            ex.Go();
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/4);
        });

    ReportExploration("ShardedDequeueExactlyOnce", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// A cooperative (gate-blocked trainer) DequeueClaimBelow with the
// ceiling equal to the minimum live priority races a general flusher
// drain with a different shard hint (so the flusher reaches the
// cooperative claimer's shard only by stealing). Checks: the ceiling is
// honoured (the ∞ entry is never claimed by the cooperative path),
// batches stay monotone, claims stay exactly-once.
TEST(ModelCheckTwoLevelPQ, DequeueClaimBelowRacesFlusher)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            st->SeedPending(0, /*read_step=*/1);
            st->SeedPending(1, /*read_step=*/2);
            st->SeedDeferred(2);

            ex.Thread([st] {
                // Cooperative path: claim exactly the gate-blocking
                // entries (priority ≤ 1), leave the rest batching.
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaimBelow(batch, 4, /*shard_hint=*/0,
                                            /*ceiling=*/1);
                for (const ClaimTicket &ticket : batch) {
                    check::ModelAssert(
                        ticket.priority <= 1,
                        "cooperative claim exceeded its ceiling");
                }
                st->FlushBatch(batch);
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 4, /*shard_hint=*/1);
                st->FlushBatch(batch);
            });
            ex.Go();
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/3);
        });

    ReportExploration("DequeueClaimBelowRacesFlusher", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// The P²F gate races the flusher and a concurrent enqueue. Entry 0 has
// a pending write read by step 1, seeded before the run, so whenever
// the gate for step 1 reports clear the write MUST already be in host
// memory — in particular during the claimed-but-not-yet-applied window,
// which only the in-flight accounting covers. A third thread enqueues
// an unrelated priority-2 entry mid-run to exercise the gate's bucket
// scan against concurrent logical-count updates.
TEST(ModelCheckTwoLevelPQ, GateVsEnqueueAndFlush)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            auto host = std::make_shared<model_atomic<int>>(0);
            st->SeedPending(0, /*read_step=*/1);

            ex.Thread([st, host] {
                // Flush thread: claim the gate-blocking entry and apply
                // its write to "host memory".
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaimBelow(batch, 2, /*shard_hint=*/0,
                                            /*ceiling=*/1);
                for (const ClaimTicket &ticket : batch) {
                    st->RecordClaim(ticket);
                    FlushClaimed(st->queue, ticket,
                                 [host](Key, const WriteRecord &) {
                                     host->store(1);
                                 });
                }
            });
            ex.Thread([st, host] {
                // Trainer at step 1: polls the gate a bounded number of
                // times; every "clear" observation asserts the P²F
                // invariant (never claimed-but-unapplied).
                for (int attempt = 0; attempt < 3; ++attempt) {
                    if (!st->queue.HasPendingAtOrBelow(1)) {
                        check::ModelAssert(
                            host->load() == 1,
                            "gate opened before the pending write "
                            "reached host memory");
                    }
                }
            });
            ex.Thread([st] {
                // A registration enqueues an unrelated later-step entry
                // while the gate scans the bucket counters.
                RegisterRead(st->queue, st->entry(1), /*step=*/2);
                RegisterUpdate(st->queue, st->entry(1),
                               WriteRecord{/*step=*/0, 0, {}, {}});
            });
            ex.Go();
            ex.Check(host->load() == 1 || st->claims[0].load() == 0,
                     "claimed write applied by run end");
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/2);
            ex.Check(host->load() == 1, "host memory holds the update");
        });

    ReportExploration("GateVsEnqueueAndFlush", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// --------------------------------------------------------------------
// Batched step registration (Pipeline::RegisterStep's path): a
// registrar batches step 1's key runs while a flusher claims and a
// prefetcher registers a step-2 read.
// --------------------------------------------------------------------

/**
 * Registers one key run of `step` into the queue's open batch as
 * Pipeline::RegisterStep does: one entry-lock hold removes the read,
 * appends the write and hands the priority transition to
 * PropagatePriorityBatchedLocked, which sets `enqueued` and raises the
 * bucket's logical count. With `count_under_lock` false the run only
 * sets `enqueued` and returns the entry for a late count, the negative
 * control's bug (no entry of the scenario is still enqueued here).
 */
GEntry *
RegisterRunBatched(TwoLevelPQ &queue, GEntry &entry, Step step,
                   bool count_under_lock)
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.RemoveReadLocked(step);
    entry.AddWriteLocked(WriteRecord{step, 0, {}, {}});
    if (count_under_lock) {
        PropagatePriorityBatchedLocked(queue, entry, before,
                                       entry.priorityLocked());
        return nullptr;
    }
    entry.setEnqueuedLocked(true);
    return &entry;
}

/**
 * Entry 0's earlier ∞ residence left a stale copy in the ∞ bucket, and
 * step 1 is its last read, so the batch enqueues it at ∞ again: a
 * flusher can claim it through the stale copy before the batch
 * publishes. Entry 1's only read is step 1, so it too lands at ∞, and
 * the prefetcher's step-2 read moves it to bucket 2, possibly before
 * the batch publishes. Entry 2 reads steps 1 and 2, so the batch
 * enqueues it at 2. Every thread audits the counts mid-run.
 *
 * `count_under_lock` false raises the logical counts only when the
 * batch publishes, after the pass made the entries claimable (their
 * `enqueued` flags, which a stale copy or a re-prioritising read acts
 * on), as a batch that grouped the counts with the slot copies would.
 */
check::Result
ExploreBatchedRegistration(bool count_under_lock,
                           const check::Options &options)
{
    return check::Explore(options, [count_under_lock](check::Explorer &ex) {
        auto st = std::make_shared<PQState>(/*n_shards=*/2);
        TwoLevelPQ &queue = st->queue;
        RegisterUpdate(queue, st->entry(0), WriteRecord{0, 0, {}, {}});
        RegisterRead(queue, st->entry(0), /*step=*/1);  // ∞ copy stale
        std::vector<ClaimTicket> setup;
        queue.DequeueClaimBelow(setup, 1, /*shard_hint=*/0, /*ceiling=*/1);
        ex.Check(setup.size() == 1, "setup claims entry 0 at step 1");
        for (const ClaimTicket &ticket : setup)
            FlushClaimed(queue, ticket, [](Key, const WriteRecord &) {});
        RegisterRead(queue, st->entry(1), /*step=*/1);
        RegisterRead(queue, st->entry(2), /*step=*/1);
        RegisterRead(queue, st->entry(2), /*step=*/2);

        const auto audit = [st](const char *who) {
            check::ModelAssert(
                st->queue.AuditInvariants(/*quiescent=*/false) == 0, who);
        };
        ex.Thread([st, count_under_lock] {
            std::array<GEntry *, 3> late{};
            st->queue.BeginBatch(3);
            for (std::size_t i = 0; i < 3; ++i)
                late[i] = RegisterRunBatched(st->queue, st->entry(i),
                                             /*step=*/1, count_under_lock);
            for (GEntry *entry : late) {
                if (entry == nullptr)
                    continue;
                SpinGuard guard(entry->lock());
                st->queue.EnqueueBatched(entry, entry->priorityLocked());
            }
            st->queue.PublishBatch();
        });
        ex.Thread([st, audit] {
            std::vector<ClaimTicket> batch;
            st->queue.DequeueClaim(batch, 4, /*shard_hint=*/0);
            audit("flusher's mid-run audit found a negative count");
            for (const ClaimTicket &ticket : batch) {
                st->RecordClaim(ticket);
                FlushClaimed(st->queue, ticket,
                             [](Key, const WriteRecord &) {});
            }
            audit("flusher's mid-run audit found a negative count");
        });
        ex.Thread([st, audit] {
            RegisterRead(st->queue, st->entry(1), /*step=*/2);
            audit("prefetcher's mid-run audit found a negative count");
        });
        ex.Go();
        // A violating run unwinds mid-protocol; only a clean variant's
        // run must drain exactly.
        if (count_under_lock)
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/3);
    });
}

TEST(ModelCheckTwoLevelPQ, BatchedRegistrationVsFlushAndRead)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = ExploreBatchedRegistration(
        /*count_under_lock=*/true, DefaultOptions());
    ReportExploration("BatchedRegistrationVsFlushAndRead", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

TEST(ModelCheckTwoLevelPQ, BatchedCountAfterPublishBugCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result = ExploreBatchedRegistration(
        /*count_under_lock=*/false, options);
    ReportExploration("BatchedCountAfterPublishBugCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch a batch that raises its logical "
           "counts after the pass: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("negative count"),
              std::string::npos)
        << result.first_violation;
}

}  // namespace
}  // namespace frugal
