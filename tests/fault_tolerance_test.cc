/**
 * Fault-tolerance tests: scripted fault plans kill flush threads
 * mid-claim, fail host writes transiently, and kill trainers at step
 * boundaries — the watchdog must detect and recover, and the final
 * table must stay bit-equal to the fault-free oracle.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <algorithm>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"
#include "runtime/watchdog.h"

namespace frugal {
namespace {

EngineConfig
BaseConfig()
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 256;
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    config.audit_consistency = true;
    config.watchdog_poll_ms = 1;  // recover fast at test scale
    return config;
}

void
ExpectOracleEqual(Engine &engine, const Trace &trace, const GradFn &task)
{
    EmbeddingTableConfig tc;
    tc.key_space = engine.config().key_space;
    tc.dim = engine.config().dim;
    tc.init_seed = engine.config().init_seed;
    tc.init_scale = engine.config().init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto opt = MakeOptimizer(engine.config().optimizer,
                             engine.config().learning_rate,
                             engine.config().key_space,
                             engine.config().dim);
    RunOracle(oracle_table, *opt, trace, task);
    EXPECT_TRUE(TablesBitEqual(engine.table(), oracle_table))
        << "max diff " << MaxAbsTableDiff(engine.table(), oracle_table);
}

// --- fault injector determinism -------------------------------------

TEST(FaultInjectorTest, SameSeedSameFiresAcrossInterleavings)
{
    // The Bernoulli draw hashes (seed, site, hit index), so the set of
    // firing hit indices — and hence the fire count — must not depend on
    // which thread happens to dispense which index.
    FaultPlan plan;
    plan.seed = 77;
    FaultRule rule;
    rule.site = FaultSite::kHostWriteTransient;
    rule.probability = 0.3;
    plan.rules.push_back(rule);

    auto run_once = [&plan] {
        FaultInjector injector(plan);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&injector] {
                for (int i = 0; i < 500; ++i)
                    (void)injector.Fire(FaultSite::kHostWriteTransient);
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(injector.hits(FaultSite::kHostWriteTransient), 2000u);
        return injector.fires(FaultSite::kHostWriteTransient);
    };
    const std::uint64_t first = run_once();
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, 2000u);
    EXPECT_EQ(run_once(), first);
    EXPECT_EQ(run_once(), first);
}

TEST(FaultInjectorTest, WindowAndContextGateRules)
{
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kTrainerDeath;
    rule.from_hit = 2;
    rule.until_hit = 4;
    rule.context = 9;
    rule.payload = 5;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 0
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 1
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 8));  // hit 2, ctx
    const auto fired = injector.Fire(FaultSite::kTrainerDeath, 9);  // hit 3
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired, 5u);
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 4
}

// --- watchdog unit tests (scripted snapshots) -----------------------

TEST(WatchdogTest, ClassifyTaxonomy)
{
    ProgressSnapshot snap;
    snap.run_complete = true;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kNone);

    snap = {};
    snap.dead_flushers = 1;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kDeadFlusher);

    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 90;
    snap.pq_size = 0;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kClaimLeak);

    // Pending entries make it something other than a leak.
    snap.pq_size = 10;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kUnknown);

    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 100;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kEmptyQueueIdle);

    // Counters sampled without mutual ordering may read applied ahead
    // of emitted; that must classify as idle, not wrap around.
    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 101;
    EXPECT_EQ(Watchdog::Classify(snap), StallKind::kEmptyQueueIdle);
}

TEST(WatchdogTest, DeadFlusherRecoveredBeforeDeadline)
{
    // A dead flusher is definitive: recovery must run on the next poll,
    // long before the (here: enormous) stall deadline.
    std::atomic<bool> dead{true};
    std::atomic<int> recover_calls{0};
    Watchdog::Config config;
    config.poll = std::chrono::milliseconds(1);
    config.stall_deadline = std::chrono::milliseconds(60000);
    Watchdog watchdog(
        config,
        [&] {
            ProgressSnapshot snap;
            snap.dead_flushers = dead.load() ? 1 : 0;
            return snap;
        },
        [&](StallKind kind) {
            EXPECT_EQ(kind, StallKind::kDeadFlusher);
            recover_calls.fetch_add(1);
            dead.store(false);
            return true;
        },
        {});
    watchdog.Start();
    for (int i = 0; i < 500 && recover_calls.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    watchdog.Stop();
    EXPECT_EQ(recover_calls.load(), 1);
    EXPECT_GE(watchdog.recoveries(), 1u);
    EXPECT_GE(watchdog.stalls_detected(), 1u);
}

TEST(WatchdogTest, TimedStallReportedButNotAutoRecovered)
{
    // No dead flag, just a frozen pipeline: the watchdog must classify
    // and diagnose, and count a stall — but a recover callback that
    // declines (returns false) means no recovery is recorded.
    std::atomic<int> diagnose_calls{0};
    Watchdog::Config config;
    config.poll = std::chrono::milliseconds(2);
    config.stall_deadline = std::chrono::milliseconds(10);
    Watchdog watchdog(
        config,
        [] {
            ProgressSnapshot snap;  // frozen forever: a claim leak
            snap.current_step = 7;
            snap.updates_emitted = 10;
            snap.updates_applied = 4;
            return snap;
        },
        [](StallKind kind) {
            EXPECT_EQ(kind, StallKind::kClaimLeak);
            return false;
        },
        [&] {
            diagnose_calls.fetch_add(1);
            return std::string("scripted diagnosis");
        });
    watchdog.Start();
    for (int i = 0; i < 500 && watchdog.stalls_detected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    watchdog.Stop();
    EXPECT_EQ(watchdog.stalls_detected(), 1u);  // reported once, not spammed
    EXPECT_EQ(watchdog.recoveries(), 0u);
    EXPECT_EQ(diagnose_calls.load(), 1);
    EXPECT_GT(watchdog.polls(), 0u);
}

TEST(WatchdogTest, ProgressSuppressesStallReports)
{
    std::atomic<std::uint64_t> counter{0};
    Watchdog::Config config;
    config.poll = std::chrono::milliseconds(1);
    config.stall_deadline = std::chrono::milliseconds(5);
    Watchdog watchdog(
        config,
        [&] {
            ProgressSnapshot snap;
            snap.updates_applied = counter.fetch_add(1);  // always advancing
            snap.updates_emitted = snap.updates_applied + 1;
            snap.pq_size = 1;
            return snap;
        },
        [](StallKind) {
            ADD_FAILURE() << "recover must not run while progressing";
            return false;
        },
        {});
    watchdog.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    watchdog.Stop();
    EXPECT_EQ(watchdog.stalls_detected(), 0u);
}

// --- engine-level fault drills --------------------------------------

TEST(FaultToleranceTest, TransientWriteFailuresRetriedExactly)
{
    // The first three host-write attempts fail; each costs one retry and
    // the result must be unaffected.
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kHostWriteTransient;
    rule.until_hit = 3;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(21);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.write_retries, 3u);
    EXPECT_EQ(report.recovery.faults_injected, 3u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, FlushThreadDeathRecoveredBitEqual)
{
    // The acceptance drill: a seeded plan kills a flush thread mid-claim
    // (twice) while host writes also fail transiently. The watchdog must
    // reclaim the abandoned claims and respawn the thread, and the final
    // table must be bit-equal to the fault-free oracle.
    FaultPlan plan;
    plan.seed = 3;
    FaultRule death;
    death.site = FaultSite::kFlushThreadDeath;
    death.until_hit = 2;
    plan.rules.push_back(death);
    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.05;
    flaky_writes.until_hit = 2000;
    plan.rules.push_back(flaky_writes);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(22);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 60, 2, 24);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.flusher_deaths, 2u);
    EXPECT_EQ(report.recovery.flusher_respawns, 2u);
    EXPECT_GE(report.recovery.watchdog_recoveries, 1u);
    EXPECT_GT(report.recovery.claims_reclaimed, 0u);
    EXPECT_EQ(report.updates_applied, report.updates_emitted);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, FlushThreadDeathWithSingleFlusher)
{
    // Worst case: the *only* flush thread dies. Nothing can make
    // progress until the watchdog revives it.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kFlushThreadDeath;
    death.from_hit = 10;
    death.until_hit = 11;
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.flush_threads = 1;
    config.fault_injector = &injector;
    Rng rng(23);
    UniformDistribution dist(config.key_space);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.flusher_deaths, 1u);
    EXPECT_EQ(report.recovery.flusher_respawns, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, TrainerDeathDegradedModeBitEqual)
{
    // GPU 1 dies at the boundary of step 10; the survivor takes over its
    // trace share and ownership shards. Degraded mode must still be
    // bit-equal: the update stream (key, step, src) is unchanged, only
    // who produces it.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kTrainerDeath;
    death.context = 10;  // fires in the completion of step 10
    death.payload = 1;   // victim GPU id
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(24);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    EXPECT_GT(report.recovery.ownership_remaps, 0u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, TrainerDeathWithAdagradStateStaysExact)
{
    // Stateful optimizer + degraded mode: accumulator updates follow the
    // canonical (step, src) order, so the remap must not perturb them.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kTrainerDeath;
    death.context = 5;
    death.payload = 0;  // kill GPU 0 for variety
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.optimizer = "adagrad";
    config.fault_injector = &injector;
    Rng rng(25);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 30, 2, 12);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, HealthyRunNoFalseRecoveries)
{
    // A fault-free run under an armed watchdog must never trigger
    // recovery actions or reclaim anything.
    EngineConfig config = BaseConfig();
    Rng rng(27);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 50, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    // The whole run can finish inside one poll period; one pause at a
    // step boundary (20 poll periods, far below the stall deadline) lets
    // the watchdog sample a healthy pipeline mid-run.
    const RunReport report = engine.Run(trace, task, [](Step s) {
        if (s == 25)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });

    EXPECT_EQ(report.recovery.faults_injected, 0u);
    EXPECT_EQ(report.recovery.write_retries, 0u);
    EXPECT_EQ(report.recovery.flusher_deaths, 0u);
    EXPECT_EQ(report.recovery.flusher_respawns, 0u);
    EXPECT_EQ(report.recovery.claims_reclaimed, 0u);
    EXPECT_EQ(report.recovery.watchdog_recoveries, 0u);
    EXPECT_GT(report.recovery.watchdog_polls, 0u);  // it really sampled
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, SparseShardsNoFalseStall)
{
    // Regression for the sharded dequeue path: with eight PQ shards (one
    // per flush thread) and a tiny key set, most sub-buckets are empty or
    // hold a single entry, so an individual DequeueClaim often comes
    // back empty (the work lives in a shard another rotation reaches).
    // The watchdog must not read that sparseness as a flush stall — the
    // in-bucket rotation guarantees any one dequeuer still sees every
    // shard, so flush progress continues and no stall is diagnosed.
    EngineConfig config = BaseConfig();
    config.flush_threads = 8;
    config.key_space = 16;  // sparse: ~2 live keys per shard
    config.watchdog_stall_ms = 200;  // tight stall deadline
    Rng rng(31);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 120, 2, 8);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    // As in HealthyRunNoFalseRecoveries: the run alone can end before
    // the watchdog thread is first scheduled, so one pause at a step
    // boundary (20 poll periods, a tenth of the stall deadline) lets it
    // sample the sparse pipeline mid-run.
    const RunReport report = engine.Run(trace, task, [](Step s) {
        if (s == 60)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });

    EXPECT_EQ(report.steps, 120u);
    EXPECT_EQ(report.recovery.stalls_detected, 0u);
    EXPECT_EQ(report.recovery.watchdog_recoveries, 0u);
    EXPECT_EQ(report.recovery.claims_reclaimed, 0u);
    EXPECT_GT(report.recovery.watchdog_polls, 0u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, KeyOwnershipRemapMovesEveryShard)
{
    KeyOwnership ownership(4);
    std::size_t owned_by_3 = 0;
    for (Key k = 0; k < 1000; ++k)
        owned_by_3 += ownership.OwnerOf(k) == 3 ? 1 : 0;
    EXPECT_GT(owned_by_3, 0u);
    const std::size_t moved = ownership.Remap(3, 1);
    EXPECT_GT(moved, 0u);
    for (Key k = 0; k < 1000; ++k)
        EXPECT_NE(ownership.OwnerOf(k), 3u);
    EXPECT_EQ(ownership.Remap(3, 1), 0u);  // idempotent: nothing left
}

}  // namespace
}  // namespace frugal
