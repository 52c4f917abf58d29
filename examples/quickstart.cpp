/**
 * Quickstart — the smallest end-to-end Frugal program.
 *
 * Builds a synthetic multi-GPU embedding workload, trains it through the
 * full Frugal runtime (trainer threads, P²F gate, two-level PQ, flush
 * threads), and verifies the result against a single-threaded oracle —
 * demonstrating the synchronous-consistency guarantee of §3.3.
 *
 *   $ ./quickstart
 */
#include <cstdio>

#include "common/distribution.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

int
main()
{
    using namespace frugal;

    // 1. Configure a 4-"GPU" engine over a 10k-row embedding table.
    //    (GPUs are worker threads here; see DESIGN.md for the hardware
    //    substitution.)
    EngineConfig config;
    config.n_gpus = 4;
    config.dim = 16;
    config.key_space = 10'000;
    config.cache_ratio = 0.05;   // paper default: 5% of all parameters
    config.lookahead = 10;       // paper default: L = 10
    config.flush_threads = 4;
    config.audit_consistency = true;  // check invariant (2) on every read

    // 2. A zipf-skewed key trace: 200 steps, 64 keys per GPU per step.
    Rng rng(2024);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 200, config.n_gpus, 64);

    // 3. Train. The gradient callback stands in for a model: it sees the
    //    gathered rows and produces per-key gradients.
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask(0.1f, 0.01f);
    const RunReport report = engine.Run(trace, task);

    std::printf("Frugal quickstart\n");
    std::printf("  steps            : %zu\n", report.steps);
    std::printf("  updates applied  : %llu\n",
                static_cast<unsigned long long>(report.updates_applied));
    std::printf("  cache hit ratio  : %.1f%%\n",
                100.0 * report.cache.HitRatio());
    std::printf("  host rows read   : %llu\n",
                static_cast<unsigned long long>(report.host_reads));
    std::printf("  gate waits       : %llu\n",
                static_cast<unsigned long long>(report.gate_waits));
    std::printf("  stall total      : %.2f ms\n",
                report.stall_seconds_total * 1e3);
    std::printf("  registration     : %.2f ms (%.0f ns per update)\n",
                report.registration_seconds * 1e3,
                report.updates_emitted == 0
                    ? 0.0
                    : report.registration_seconds * 1e9 /
                          static_cast<double>(report.updates_emitted));
    std::printf("  audit violations : %llu (must be 0)\n",
                static_cast<unsigned long long>(report.audit_violations));

    // 4. Verify against the oracle: identical trained parameters, bit
    //    for bit.
    EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    HostEmbeddingTable oracle_table(table_config);
    auto optimizer = MakeOptimizer(config.optimizer, config.learning_rate,
                                   config.key_space, config.dim);
    RunOracle(oracle_table, *optimizer, trace, task);
    const bool equal = TablesBitEqual(engine.table(), oracle_table);
    std::printf("  oracle equality  : %s\n",
                equal ? "bit-exact" : "MISMATCH");
    return equal && report.audit_violations == 0 ? 0 : 1;
}
