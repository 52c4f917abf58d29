/**
 * Chaos/overload throughput benchmark (DESIGN.md §12.4).
 *
 * Two runs over the same Zipf trace on the real FrugalEngine:
 *
 *  1. healthy  — no faults, unbounded staging, no memory budget: the
 *     throughput baseline;
 *  2. chaos    — a seeded campaign layered on a *4×-over-capacity*
 *     staging bound (the per-step batch fan-in is four batches, the
 *     queue holds one): a mid-run trainer death pushes the survivor's
 *     doubled emissions through the throttle path, flush threads die
 *     and get respawned, host writes fail transiently, the drainer
 *     stalls, and halfway in the memory budget is squeezed to 50% of
 *     live usage (degradation to kCritical) before an operator-relief
 *     restore.
 *
 * The contract this demonstrates: under all of that the engine degrades
 * instead of failing — steps/s drops but stays nonzero, tracked bytes
 * stay bounded by backpressure, the pressure stages transition both
 * ways, and the trained table is still *bit-equal* to the fault-free
 * oracle. A chaos run that diverges from the oracle exits nonzero: this
 * binary is a gate, not just a reporter.
 *
 * Emits BENCH_chaos.json; `--smoke` shrinks the soak for CI, `--out
 * PATH` moves the JSON.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "common/rng.h"
#include "data/trace.h"
#include "metrics/recovery_metrics.h"
#include "metrics/reporter.h"
#include "runtime/engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"

namespace frugal {
namespace {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Sizes
{
    std::uint64_t key_space = 2048;
    std::size_t dim = 8;
    std::size_t steps = 4000;
    std::uint32_t n_gpus = 4;
    std::size_t keys_per_gpu = 16;
    double zipf_theta = 0.99;
};

EngineConfig
BaseConfig(const Sizes &sizes)
{
    EngineConfig config;
    config.n_gpus = sizes.n_gpus;
    config.dim = sizes.dim;
    config.key_space = sizes.key_space;
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    config.watchdog_poll_ms = 1;
    return config;
}

FaultPlan
ChaosPlan(const Sizes &sizes)
{
    FaultPlan plan;
    plan.seed = 20260808;
    Rng chaos_rng(plan.seed);

    FaultRule first_death;
    first_death.site = FaultSite::kFlushThreadDeath;
    first_death.until_hit = 1;
    plan.rules.push_back(first_death);
    FaultRule death_tail;
    death_tail.site = FaultSite::kFlushThreadDeath;
    death_tail.from_hit = 1;
    death_tail.probability = 0.0005;
    plan.rules.push_back(death_tail);

    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.01;
    plan.rules.push_back(flaky_writes);

    // The survivor of this death emits its dead peer's batch
    // back-to-back with its own every remaining step — sustained
    // pressure against the one-batch staging bound.
    FaultRule trainer_death;
    trainer_death.site = FaultSite::kTrainerDeath;
    trainer_death.context = sizes.steps / 8;
    trainer_death.payload = sizes.n_gpus - 1;
    plan.rules.push_back(trainer_death);

    for (int i = 0; i < 4; ++i) {
        FaultRule stall;
        stall.site = FaultSite::kStagingDrainStall;
        stall.context = chaos_rng() % sizes.steps;
        stall.payload = 5;
        plan.rules.push_back(stall);
    }
    return plan;
}

double
StepsPerSecond(const RunReport &report)
{
    return report.wall_seconds > 0
               ? static_cast<double>(report.steps) / report.wall_seconds
               : 0.0;
}

void
WriteJson(const std::vector<Metric> &metrics, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out,
                     "  {\"metric\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str(),
                     i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
}

}  // namespace
}  // namespace frugal

int
main(int argc, char **argv)
{
    using namespace frugal;

    bool smoke = false;
    std::string out_path = "BENCH_chaos.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    Sizes sizes;
    if (smoke) {
        sizes.key_space = 512;
        sizes.steps = 600;
        sizes.keys_per_gpu = 8;
    }

    PrintBanner("Chaos / overload soak (DESIGN.md §12.4)",
                "seeded fault campaign + 4x-over-capacity backpressure "
                "+ mid-run 50% budget squeeze, verified bit-equal");

    const GradFn task = MakeLinearGradTask();
    Rng rng(7331);
    ZipfDistribution dist(sizes.key_space, sizes.zipf_theta);
    const Trace trace = Trace::Synthetic(dist, rng, sizes.steps,
                                         sizes.n_gpus, sizes.keys_per_gpu);

    // Fault-free oracle: the correctness yardstick for both runs.
    const EngineConfig base = BaseConfig(sizes);
    EmbeddingTableConfig tc;
    tc.key_space = base.key_space;
    tc.dim = base.dim;
    tc.init_seed = base.init_seed;
    tc.init_scale = base.init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto oracle_opt = MakeOptimizer(base.optimizer, base.learning_rate,
                                    base.key_space, base.dim);
    RunOracle(oracle_table, *oracle_opt, trace, task);

    // --- run 1: healthy baseline -----------------------------------
    auto healthy_engine = MakeEngine("frugal", BaseConfig(sizes));
    const RunReport healthy = healthy_engine->Run(trace, task);
    const bool healthy_equal =
        TablesBitEqual(healthy_engine->table(), oracle_table);

    // --- run 2: chaos campaign -------------------------------------
    const FaultPlan plan = ChaosPlan(sizes);
    FaultInjector injector(plan);
    MemoryBudget budget(1u << 30);
    EngineConfig chaos_config = BaseConfig(sizes);
    chaos_config.fault_injector = &injector;
    chaos_config.staging_capacity = 1;  // fan-in is n_gpus batches: 4x
    chaos_config.memory_budget = &budget;
    chaos_config.memory_poll_ms = 1;
    const Step squeeze_step = static_cast<Step>(sizes.steps / 3);
    const Step relief_step = static_cast<Step>(2 * sizes.steps / 3);
    const StepHook squeeze = [&budget, squeeze_step,
                              relief_step](Step step) {
        if (step == squeeze_step) {
            const std::size_t used = budget.TotalBytes();
            budget.SetBudget(std::max<std::size_t>(used / 2, 1));
        } else if (step == relief_step) {
            budget.SetBudget(1u << 30);
        }
    };

    auto chaos_engine = MakeEngine("frugal", chaos_config);
    const RunReport chaos = chaos_engine->Run(trace, task, squeeze);
    const bool chaos_equal =
        TablesBitEqual(chaos_engine->table(), oracle_table);

    // --- report ----------------------------------------------------
    const double healthy_sps = StepsPerSecond(healthy);
    const double chaos_sps = StepsPerSecond(chaos);

    TablePrinter summary("Healthy vs chaos campaign",
                         {"Run", "Steps/s", "Bit-equal", "Throttles",
                          "Peak stage", "Peak tracked MiB"});
    summary.AddRow({"healthy", FormatDouble(healthy_sps, 1),
                    healthy_equal ? "yes" : "NO", "0", "normal", "-"});
    summary.AddRow(
        {"chaos", FormatDouble(chaos_sps, 1),
         chaos_equal ? "yes" : "NO",
         std::to_string(chaos.overload.throttle_events),
         PressureStageName(
             static_cast<PressureStage>(chaos.overload.peak_stage)),
         FormatDouble(static_cast<double>(
                          chaos.overload.peak_tracked_bytes) /
                          (1024.0 * 1024.0),
                      2)});
    summary.Print();

    RecoveryTable(chaos.recovery, "Chaos campaign: recovery").Print();
    OverloadTable(chaos.overload, "Chaos campaign: overload/degradation")
        .Print();

    std::vector<Metric> metrics;
    metrics.push_back(
        Metric{"chaos_steps_per_s_healthy", healthy_sps, "steps/s"});
    metrics.push_back(
        Metric{"chaos_steps_per_s_degraded", chaos_sps, "steps/s"});
    metrics.push_back(Metric{
        "chaos_throttle_events",
        static_cast<double>(chaos.overload.throttle_events), "count"});
    metrics.push_back(Metric{
        "chaos_pressure_transitions",
        static_cast<double>(chaos.overload.pressure_transitions),
        "count"});
    metrics.push_back(
        Metric{"chaos_peak_stage",
               static_cast<double>(chaos.overload.peak_stage), "stage"});
    metrics.push_back(
        Metric{"chaos_peak_tracked_bytes",
               static_cast<double>(chaos.overload.peak_tracked_bytes),
               "bytes"});
    metrics.push_back(Metric{
        "chaos_flusher_respawns",
        static_cast<double>(chaos.recovery.flusher_respawns), "count"});
    metrics.push_back(Metric{
        "chaos_write_retries",
        static_cast<double>(chaos.recovery.write_retries), "count"});
    WriteJson(metrics, out_path);

    bool ok = true;
    if (!healthy_equal || !chaos_equal) {
        std::fprintf(stderr,
                     "FAIL: %s run diverged from the fault-free "
                     "oracle\n",
                     !healthy_equal ? "healthy" : "chaos");
        ok = false;
    }
    if (chaos.steps != sizes.steps || chaos_sps <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: chaos run did not sustain progress "
                     "(steps=%zu, steps/s=%.2f)\n",
                     chaos.steps, chaos_sps);
        ok = false;
    }
    if (chaos.overload.pressure_transitions == 0 ||
        chaos.overload.peak_stage < 2) {
        std::fprintf(stderr,
                     "FAIL: budget squeeze never reached kCritical "
                     "(transitions=%llu, peak_stage=%u)\n",
                     static_cast<unsigned long long>(
                         chaos.overload.pressure_transitions),
                     chaos.overload.peak_stage);
        ok = false;
    }
    return ok ? 0 : 1;
}
