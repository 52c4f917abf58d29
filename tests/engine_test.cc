/**
 * End-to-end engine tests: every engine must train to exactly the same
 * parameters as the single-threaded oracle, under a sweep of GPU counts,
 * distributions, cache sizes, and flush-thread counts — the strongest
 * form of the paper's synchronous-consistency claim (§3.3).
 */
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/distribution.h"
#include "runtime/baseline_engines.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

namespace frugal {
namespace {

struct EngineCase
{
    std::string engine;
    std::uint32_t n_gpus;
    std::size_t flush_threads;
    double cache_ratio;
    double zipf_theta;  // 0 = uniform
    std::size_t lookahead;
    std::string optimizer;
    bool oracular = true;  // false names the case with a `_plain` suffix
};

class EngineOracleTest : public ::testing::TestWithParam<EngineCase>
{
};

EngineConfig
ConfigFor(const EngineCase &c)
{
    EngineConfig config;
    config.n_gpus = c.n_gpus;
    config.dim = 8;
    config.key_space = 512;
    config.cache_ratio = c.cache_ratio;
    config.lookahead = c.lookahead;
    config.flush_threads = c.flush_threads;
    config.optimizer = c.optimizer;
    config.oracular_prefetch = c.oracular;
    config.learning_rate = 0.05f;
    config.audit_consistency = true;
    return config;
}

Trace
TraceFor(const EngineCase &c, std::uint64_t key_space, std::size_t steps,
         std::size_t keys_per_gpu)
{
    Rng rng(777);
    auto dist = c.zipf_theta > 0
                    ? MakeDistribution(DistributionKind::kZipf, key_space,
                                       c.zipf_theta)
                    : MakeDistribution(DistributionKind::kUniform,
                                       key_space);
    return Trace::Synthetic(*dist, rng, steps, c.n_gpus, keys_per_gpu);
}

TEST_P(EngineOracleTest, FinalTableMatchesOracleBitForBit)
{
    const EngineCase c = GetParam();
    const EngineConfig config = ConfigFor(c);
    const Trace trace = TraceFor(c, config.key_space, /*steps=*/60,
                                 /*keys_per_gpu=*/24);
    const GradFn task = MakeLinearGradTask(0.2f, 0.01f);

    auto engine = MakeEngine(c.engine, config);
    const RunReport report = engine->Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);
    EXPECT_EQ(report.steps, 60u);
    EXPECT_GT(report.updates_applied, 0u);
    // Report identities: every gathered row is a cache hit or a host
    // read and yields one emitted update, every emitted update is
    // applied, and a trainer blocks at most once per step.
    EXPECT_EQ(report.host_reads + report.cache.hits, report.updates_emitted);
    EXPECT_EQ(report.updates_emitted, report.updates_applied);
    EXPECT_LE(report.gate_waits, report.steps * report.n_gpus);
    // Only FrugalEngine registers steps into a flush queue.
    if (c.engine == "frugal")
        EXPECT_GT(report.registration_seconds, 0.0);
    else
        EXPECT_EQ(report.registration_seconds, 0.0);

    // Oracle replay on a fresh table.
    EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    HostEmbeddingTable oracle_table(table_config);
    auto oracle_opt =
        MakeOptimizer(config.optimizer, config.learning_rate,
                      config.key_space, config.dim);
    const std::uint64_t oracle_applied =
        RunOracle(oracle_table, *oracle_opt, trace, task);

    EXPECT_EQ(report.updates_applied, oracle_applied);
    EXPECT_TRUE(TablesBitEqual(engine->table(), oracle_table))
        << "max diff = "
        << MaxAbsTableDiff(engine->table(), oracle_table);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineOracleTest,
    ::testing::Values(
        // Frugal across GPU counts, skews, cache sizes, flush threads.
        EngineCase{"frugal", 1, 1, 0.05, 0.0, 10, "sgd"},
        EngineCase{"frugal", 2, 2, 0.05, 0.0, 10, "sgd"},
        EngineCase{"frugal", 2, 4, 0.01, 0.9, 10, "sgd"},
        EngineCase{"frugal", 4, 2, 0.05, 0.99, 10, "sgd"},
        EngineCase{"frugal", 4, 8, 0.10, 0.9, 10, "sgd"},
        EngineCase{"frugal", 3, 3, 0.05, 0.9, 10, "adagrad"},
        // Stress the gate: lookahead 1 and single flusher.
        EngineCase{"frugal", 2, 1, 0.02, 0.99, 1, "sgd"},
        // Oversized lookahead (beyond trace length).
        EngineCase{"frugal", 2, 2, 0.05, 0.9, 1000, "sgd"},
        // Wider Frugal sweep: many GPUs, extreme skew, stateful
        // optimizer, tiny cache.
        EngineCase{"frugal", 6, 6, 0.02, 0.99, 5, "sgd"},
        EngineCase{"frugal", 8, 4, 0.05, 0.9, 10, "sgd"},
        EngineCase{"frugal", 2, 2, 0.20, 0.0, 10, "adagrad"},
        EngineCase{"frugal", 5, 1, 0.01, 0.9, 3, "adagrad"},
        // Plain mode (oracular prefetch off) over {1, 2, 4} trainers ×
        // {1, 2, 4} flushers: every flush refreshes the owner's cache
        // through UpdateIfPresent, with no warming.
        EngineCase{"frugal", 1, 1, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 1, 2, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 1, 4, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 2, 1, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 2, 2, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 2, 4, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 4, 1, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 4, 2, 0.05, 0.99, 10, "sgd", false},
        EngineCase{"frugal", 4, 4, 0.05, 0.99, 10, "sgd", false},
        // Baselines.
        EngineCase{"frugal-sync", 2, 0, 0.05, 0.9, 10, "sgd"},
        EngineCase{"frugal-sync", 4, 0, 0.05, 0.0, 10, "adagrad"},
        EngineCase{"cached", 2, 0, 0.05, 0.9, 10, "sgd"},
        EngineCase{"cached", 4, 0, 0.01, 0.99, 10, "sgd"},
        EngineCase{"nocache", 2, 0, 0.05, 0.9, 10, "sgd"},
        EngineCase{"nocache", 3, 0, 0.05, 0.0, 10, "adagrad"}),
    [](const ::testing::TestParamInfo<EngineCase> &info) {
        const EngineCase &c = info.param;
        std::string name = c.engine + "_g" + std::to_string(c.n_gpus) +
                           "_f" + std::to_string(c.flush_threads) + "_cr" +
                           std::to_string(static_cast<int>(
                               c.cache_ratio * 100)) +
                           "_z" +
                           std::to_string(static_cast<int>(
                               c.zipf_theta * 100)) +
                           "_L" + std::to_string(c.lookahead) + "_" +
                           c.optimizer + (c.oracular ? "" : "_plain");
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

TEST(EngineTest, AllEnginesAgreeWithEachOther)
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 256;
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    config.audit_consistency = true;

    Rng rng(42);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    const GradFn task = MakeLinearGradTask();

    auto reference = MakeEngine("nocache", config);
    reference->Run(trace, task);
    for (const char *name : {"frugal", "frugal-sync", "cached"}) {
        auto engine = MakeEngine(name, config);
        engine->Run(trace, task);
        EXPECT_TRUE(TablesBitEqual(engine->table(), reference->table()))
            << name << " diverged, max diff = "
            << MaxAbsTableDiff(engine->table(), reference->table());
    }
}

TEST(EngineTest, StepHookRunsOncePerStep)
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 64;
    config.flush_threads = 2;

    Rng rng(1);
    UniformDistribution dist(64);
    const Trace trace = Trace::Synthetic(dist, rng, 25, 2, 8);

    for (const char *name : {"frugal", "frugal-sync", "cached",
                             "nocache"}) {
        std::vector<Step> hooks;
        auto engine = MakeEngine(name, config);
        engine->Run(trace, MakeConstantGradTask(),
                    [&](Step s) { hooks.push_back(s); });
        ASSERT_EQ(hooks.size(), 25u) << name;
        for (Step s = 0; s < 25; ++s)
            ASSERT_EQ(hooks[s], s) << name;
    }
}

TEST(EngineTest, ResetParametersRestoresInit)
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 64;
    config.flush_threads = 2;

    Rng rng(1);
    UniformDistribution dist(64);
    const Trace trace = Trace::Synthetic(dist, rng, 10, 2, 8);

    auto engine = MakeEngine("frugal", config);
    engine->Run(trace, MakeConstantGradTask());
    engine->ResetParameters();

    EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    HostEmbeddingTable fresh(table_config);
    EXPECT_TRUE(TablesBitEqual(engine->table(), fresh));
}

TEST(EngineTest, RerunAfterResetIsReproducible)
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 128;
    config.flush_threads = 3;
    config.optimizer = "adagrad";

    Rng rng(5);
    ZipfDistribution dist(128, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 30, 2, 8);
    const GradFn task = MakeLinearGradTask();

    auto engine = MakeEngine("frugal", config);
    engine->Run(trace, task);
    EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    HostEmbeddingTable snapshot(tc);
    for (Key k = 0; k < 128; ++k) {
        for (std::size_t j = 0; j < 4; ++j)
            snapshot.MutableRow(k)[j] = engine->table().Row(k)[j];
    }

    engine->ResetParameters();
    engine->Run(trace, task);
    EXPECT_TRUE(TablesBitEqual(engine->table(), snapshot));
}

TEST(EngineTest, StallPerStepCoversEveryTrainer)
{
    // One gate-wait sample per (trainer, step), merged across trainers.
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 128;
    config.flush_threads = 2;

    Rng rng(17);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 8);

    auto engine = MakeEngine("frugal", config);
    const RunReport report = engine->Run(trace, MakeLinearGradTask());
    EXPECT_EQ(report.stall_per_step.count(), 40u * 2u);
    EXPECT_NEAR(report.stall_per_step.sum(),
                report.stall_seconds_total * config.n_gpus, 1e-9);
}

TEST(EngineTest, SingleKeyAdversarialBatch)
{
    // Every GPU hammers the same key every step: maximal write conflicts
    // and a W set that is always about to be read again.
    EngineConfig config;
    config.n_gpus = 4;
    config.dim = 4;
    config.key_space = 8;
    config.flush_threads = 2;
    config.lookahead = 3;
    config.audit_consistency = true;

    std::vector<StepKeys> steps(30);
    for (auto &s : steps)
        s.per_gpu.assign(4, std::vector<Key>{5});
    const Trace trace(std::move(steps), 8, 4);
    const GradFn task = MakeLinearGradTask();

    auto engine = MakeEngine("frugal", config);
    const RunReport report = engine->Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);

    EmbeddingTableConfig tc;
    tc.key_space = 8;
    tc.dim = 4;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto opt = MakeOptimizer("sgd", config.learning_rate, 8, 4);
    RunOracle(oracle_table, *opt, trace, task);
    EXPECT_TRUE(TablesBitEqual(engine->table(), oracle_table));
}

TEST(EngineTest, CacheStatsPlausible)
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 1024;
    config.cache_ratio = 0.10;
    config.flush_threads = 2;

    Rng rng(3);
    ZipfDistribution dist(1024, 0.99);
    const Trace trace = Trace::Synthetic(dist, rng, 50, 2, 64);

    auto engine = MakeEngine("frugal", config);
    const RunReport report = engine->Run(trace, MakeConstantGradTask());
    // Skewed access + cache ⇒ hits happen; misses bounded by accesses.
    EXPECT_GT(report.cache.hits, 0u);
    EXPECT_GT(report.host_reads, 0u);
    EXPECT_EQ(report.updates_applied, report.updates_emitted);
}

TEST(EngineTest, OracularAndPlainModesTrainBitIdentically)
{
    // Oracular warming/eviction only *moves* reads; both modes must
    // train to exactly the oracle's parameters, and the prefetch
    // counters must reflect which mode ran.
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 8;
    config.key_space = 512;
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    config.audit_consistency = true;

    Rng rng(55);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 60, 2, 24);
    const GradFn task = MakeLinearGradTask();

    EngineConfig plain = config;
    plain.oracular_prefetch = false;

    auto oracular_engine = MakeEngine("frugal", config);
    auto plain_engine = MakeEngine("frugal", plain);
    const RunReport oracular_report = oracular_engine->Run(trace, task);
    const RunReport plain_report = plain_engine->Run(trace, task);

    EXPECT_EQ(oracular_report.audit_violations, 0u);
    EXPECT_EQ(plain_report.audit_violations, 0u);
    EXPECT_TRUE(TablesBitEqual(oracular_engine->table(),
                               plain_engine->table()));

    EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto opt = MakeOptimizer(config.optimizer, config.learning_rate,
                             config.key_space, config.dim);
    RunOracle(oracle_table, *opt, trace, task);
    EXPECT_TRUE(TablesBitEqual(oracular_engine->table(), oracle_table));

    // The oracle mode actually warmed and reclaimed; plain mode's
    // counters stay zero.
    EXPECT_GT(oracular_report.prefetch.rows_warmed, 0u);
    EXPECT_GT(oracular_report.prefetch.dead_evictions, 0u);
    EXPECT_LE(oracular_report.prefetch.warm_hits,
              oracular_report.cache.hits);
    EXPECT_EQ(plain_report.prefetch.rows_warmed, 0u);
    EXPECT_EQ(plain_report.prefetch.warm_hits, 0u);
    EXPECT_EQ(plain_report.prefetch.dead_evictions, 0u);
    EXPECT_EQ(plain_report.prefetch.late_warms, 0u);
}

TEST(EngineTest, OracularThrashingCacheWithGatherLatencyIsConsistent)
{
    // Adversarial shape for the warm/evict machinery: a cache far
    // smaller than the working set (constant Belady eviction +
    // admission declines) plus the simulated PCIe gather latency
    // (exercises the amortized-sleep path on trainers AND prefetcher).
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 512;
    config.cache_ratio = 0.01;  // ~2 rows per GPU
    config.flush_threads = 2;
    config.lookahead = 6;
    config.host_gather_ns = 500;
    config.audit_consistency = true;

    Rng rng(77);
    ZipfDistribution dist(config.key_space, 0.8);
    const Trace trace = Trace::Synthetic(dist, rng, 50, 2, 32);
    const GradFn task = MakeLinearGradTask();

    auto engine = MakeEngine("frugal", config);
    const RunReport report = engine->Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);

    EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto opt = MakeOptimizer(config.optimizer, config.learning_rate,
                             config.key_space, config.dim);
    RunOracle(oracle_table, *opt, trace, task);
    EXPECT_TRUE(TablesBitEqual(engine->table(), oracle_table));
}

/** Runs FrugalEngine over a short 2-GPU Zipf trace. */
void
RunShortZipf(const EngineConfig &config)
{
    Rng rng(5);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 20, config.n_gpus, 8);
    FrugalEngine engine(config);
    engine.Run(trace, MakeLinearGradTask());
}

// Each of these values would make Run wait forever, so Run rejects it
// before starting any thread.
TEST(EngineConfigDeathTest, ZeroFlushThreadsIsRejected)
{
    EngineConfig config;
    config.flush_threads = 0;
    EXPECT_DEATH(RunShortZipf(config), "flush_threads must be at least 1");
}

TEST(EngineConfigDeathTest, ZeroFlushBatchIsRejected)
{
    EngineConfig config;
    config.flush_batch = 0;
    EXPECT_DEATH(RunShortZipf(config), "flush_batch must be at least 1");
}

TEST(EngineConfigDeathTest, ZeroLookaheadIsRejected)
{
    EngineConfig config;
    config.lookahead = 0;
    EXPECT_DEATH(RunShortZipf(config), "lookahead must be at least 1");
}

// These would run, but not as configured: a cache sized by an undefined
// cast, clamped to one row or larger than the table, or checkpoints that
// are never written. The engine rejects them at construction.
TEST(EngineConfigDeathTest, CacheRatioOutsideUnitIntervalIsRejected)
{
    for (const double ratio :
         {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        EngineConfig config;
        config.cache_ratio = ratio;
        EXPECT_DEATH(RunShortZipf(config), "cache_ratio must lie in")
            << "cache_ratio " << ratio;
    }
}

TEST(EngineConfigDeathTest, CheckpointIntervalWithoutPathIsRejected)
{
    EngineConfig config;
    config.checkpoint_every_steps = 4;
    EXPECT_DEATH(RunShortZipf(config), "checkpoint_path is empty");
}

}  // namespace
}  // namespace frugal
