/**
 * End-to-end FrugalEngine throughput benchmark (DESIGN.md §9).
 *
 * Unlike the microbenchmarks, this drives the *real* engine — trainer
 * threads, prefetcher, staging board, two-level PQ, flush threads and
 * the P²F gate all running for real — across a {1,2,4} trainers ×
 * {1,2,4} flush threads grid on a Zipf-skewed synthetic trace. Each
 * cell reports steps/s and the flush-lag percentiles (staging-to-commit
 * latency), and every trained table is verified bit-equal against the
 * single-threaded oracle before its numbers are emitted: a cell that
 * trains the wrong model does not get to report a throughput.
 *
 * Emits BENCH_e2e.json (one {"metric", "value", "unit"} record per
 * measurement) for the check.sh baseline diff. `--smoke` shrinks the
 * trace for CI; `--out PATH` moves the JSON.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/distribution.h"
#include "common/rng.h"
#include "data/trace.h"
#include "metrics/reporter.h"
#include "runtime/engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"

namespace frugal {
namespace {

/**
 * Grid workload. Deliberately light on per-step arithmetic (32 keys per
 * trainer per step, dim 8): this benchmark measures the flush *control
 * plane* — claim scheduling, gate wakeups, batch application — and a
 * compute-heavy step would bury those costs under row math that
 * bench_hotpath already measures in isolation.
 */
struct Sizes
{
    std::uint64_t key_space = 2048;
    std::size_t dim = 8;
    std::size_t steps = 300;
    std::size_t keys_per_gpu = 32;
    double zipf_theta = 0.99;
    double cache_ratio = 0.05;
    std::size_t lookahead = 10;
};

struct CellResult
{
    double steps_per_s = 0.0;
    double lag_p50 = 0.0;
    double lag_p95 = 0.0;
    double lag_p99 = 0.0;
    std::uint64_t updates_applied = 0;
    GpuCacheStats cache;
    bool bit_equal = false;
};

EngineConfig
BaseConfig(const Sizes &sizes, std::uint32_t gpus, std::size_t flushers)
{
    EngineConfig config;
    config.n_gpus = gpus;
    config.dim = sizes.dim;
    config.key_space = sizes.key_space;
    config.cache_ratio = sizes.cache_ratio;
    config.lookahead = sizes.lookahead;
    config.flush_threads = flushers;
    // This bench isolates flush/gate scaling against its historical
    // baseline; oracular warming (its own ablation, bench_prefetch)
    // would put warm work on the flush threads and shift the lag
    // distribution for reasons unrelated to what is measured here.
    config.oracular_prefetch = false;
    return config;
}

/** Runs one grid cell and verifies it against the precomputed oracle. */
CellResult
RunCell(const EngineConfig &config, const Trace &trace,
        const GradFn &task, const HostEmbeddingTable &oracle_table)
{
    auto engine = MakeEngine("frugal", config);
    const RunReport report = engine->Run(trace, task);

    CellResult result;
    result.steps_per_s =
        report.wall_seconds > 0
            ? static_cast<double>(report.steps) / report.wall_seconds
            : 0.0;
    result.lag_p50 = report.flush_lag.Percentile(50);
    result.lag_p95 = report.flush_lag.Percentile(95);
    result.lag_p99 = report.flush_lag.Percentile(99);
    result.updates_applied = report.updates_applied;
    result.cache = report.cache;
    result.bit_equal = TablesBitEqual(engine->table(), oracle_table);
    return result;
}

}  // namespace
}  // namespace frugal

int
main(int argc, char **argv)
{
    using namespace frugal;

    const std::optional<BenchArgs> args =
        ParseBenchArgs(argc, argv, "BENCH_e2e.json");
    if (!args)
        return 2;

    Sizes sizes;
    if (args->smoke) {
        sizes.key_space = 512;
        sizes.steps = 30;
        sizes.keys_per_gpu = 16;
    }

    PrintBanner("End-to-end engine (DESIGN.md §9)",
                "real FrugalEngine: sharded dequeue, coalesced and "
                "cooperative flushing");

    const GradFn task = MakeLinearGradTask();
    const std::vector<std::uint32_t> trainer_counts = {1, 2, 4};
    const std::vector<std::size_t> flusher_counts = {1, 2, 4};

    std::vector<Metric> metrics;
    TablePrinter grid("FrugalEngine throughput (Zipf 0.99 trace)",
                      {"Trainers", "Flushers", "Steps/s",
                       "Hit rate", "Hot%", "Declines", "Lag p50 (us)",
                       "Lag p99 (us)"});
    bool all_bit_equal = true;

    for (const std::uint32_t gpus : trainer_counts) {
        // One trace + oracle per trainer count (the trace shape depends
        // on the GPU count; flusher sweeps reuse both).
        Rng rng(4242);
        ZipfDistribution dist(sizes.key_space, sizes.zipf_theta);
        const Trace trace = Trace::Synthetic(dist, rng, sizes.steps,
                                             gpus, sizes.keys_per_gpu);

        const EngineConfig base = BaseConfig(sizes, gpus, 1);
        EmbeddingTableConfig tc;
        tc.key_space = base.key_space;
        tc.dim = base.dim;
        tc.init_seed = base.init_seed;
        tc.init_scale = base.init_scale;
        HostEmbeddingTable oracle_table(tc);
        auto oracle_opt =
            MakeOptimizer(base.optimizer, base.learning_rate,
                          base.key_space, base.dim);
        RunOracle(oracle_table, *oracle_opt, trace, task);

        const std::string g = "g" + std::to_string(gpus);
        for (const std::size_t flushers : flusher_counts) {
            const EngineConfig config =
                BaseConfig(sizes, gpus, flushers);
            const CellResult cell =
                RunCell(config, trace, task, oracle_table);
            all_bit_equal = all_bit_equal && cell.bit_equal;

            const std::string f = "_f" + std::to_string(flushers);
            metrics.push_back(Metric{"e2e_steps_per_s_" + g + f,
                                     cell.steps_per_s, "steps/s"});
            metrics.push_back(Metric{"e2e_flush_lag_p50_" + g + f,
                                     cell.lag_p50 * 1e6, "us"});
            metrics.push_back(Metric{"e2e_flush_lag_p95_" + g + f,
                                     cell.lag_p95 * 1e6, "us"});
            metrics.push_back(Metric{"e2e_flush_lag_p99_" + g + f,
                                     cell.lag_p99 * 1e6, "us"});
            metrics.push_back(Metric{"e2e_cache_hit_rate_" + g + f,
                                     cell.cache.HitRatio(), "ratio"});
            // Replacement-policy observability (DESIGN.md §14): hot-
            // segment share of hits and admission-gate declines make a
            // policy regression visible right in the throughput grid.
            const double hot_share =
                cell.cache.hits > 0
                    ? static_cast<double>(cell.cache.hot_hits) /
                          static_cast<double>(cell.cache.hits)
                    : 0.0;
            metrics.push_back(Metric{"e2e_cache_hot_share_" + g + f,
                                     hot_share, "ratio"});
            metrics.push_back(
                Metric{"e2e_admission_declines_" + g + f,
                       static_cast<double>(
                           cell.cache.admission_declines),
                       "inserts"});
            grid.AddRow({std::to_string(gpus), std::to_string(flushers),
                         FormatDouble(cell.steps_per_s, 1),
                         FormatDouble(cell.cache.HitRatio() * 100, 1) +
                             "%",
                         FormatDouble(hot_share * 100, 1) + "%",
                         std::to_string(cell.cache.admission_declines),
                         FormatDouble(cell.lag_p50 * 1e6, 1),
                         FormatDouble(cell.lag_p99 * 1e6, 1)});
            if (!cell.bit_equal) {
                std::fprintf(stderr,
                             "FAIL: %s flushers=%zu trained table "
                             "differs from oracle\n",
                             g.c_str(), flushers);
            }
        }
    }

    grid.Print();

    WriteJson(metrics, args->out_path);
    if (!all_bit_equal) {
        std::fprintf(stderr,
                     "bit-equality verification FAILED; numbers above "
                     "are not trustworthy\n");
        return 1;
    }
    return 0;
}
