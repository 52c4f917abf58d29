/**
 * Figure 11 / Exp #4 — Effect of the two-level priority queue vs the
 * TreeHeap baseline, on the Freebase KG workload (§4.3):
 *  (a) mean time to complete a batch's g-entry updates — measured on the
 *      REAL data structures of src/pq (this machine's numbers);
 *  (b) training-stall time and (c) end-to-end throughput — from the
 *      timing simulation with the corresponding PQ cost models.
 */
#include <chrono>
#include <thread>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_workloads.h"
#include "common/rng.h"
#include "metrics/reporter.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/tree_heap_pq.h"
#include "pq/two_level_pq.h"

namespace {

using namespace frugal;

double
SecondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Measures the mean wall time to register one batch of updates (the
 * Fig. 11a metric: enqueue + adjustPriority work on the critical path)
 * against a queue preloaded with `preload` pending entries whose next
 * reads cluster inside the controller's lookahead window. (The host here
 * has one CPU, so concurrent dequeuers would only measure scheduler
 * interference; the structural O(log N) vs O(1) gap is what this
 * isolates.)
 */
double
MeasureBatchUpdateTime(FlushQueue &queue, GEntryRegistry &registry,
                       std::size_t preload, std::size_t batch,
                       std::size_t batches)
{
    Rng rng(99);
    const Step window = 20'000;
    for (std::size_t i = 0; i < preload; ++i) {
        GEntry &e = registry.GetOrCreate(i);
        RegisterRead(queue, e, 1 + rng.NextBounded(window));
        RegisterUpdate(queue, e, {0, 0, {}});
    }

    const auto start = std::chrono::steady_clock::now();
    Key next_key = preload;
    for (std::size_t b = 0; b < batches; ++b) {
        for (std::size_t i = 0; i < batch; ++i) {
            GEntry &e = registry.GetOrCreate(next_key++);
            RegisterRead(queue, e, 1 + rng.NextBounded(window));
            RegisterUpdate(queue, e, {0, 0, {}});
        }
    }
    return SecondsSince(start) / static_cast<double>(batches);
}

}  // namespace

int
main()
{
    using namespace frugal::bench;

    PrintBanner("Figure 11 (Exp #4)",
                "two-level PQ vs TreeHeap baseline");

    // --- (a) real data structures ---------------------------------------
    TablePrinter real("Fig 11a — g-entry batch update time "
                      "(REAL src/pq structures on this host; "
                      "batch 2000)",
                      {"Preloaded entries", "TreeHeap", "two-level PQ",
                       "speedup"});
    constexpr std::size_t kBatch = 2000;
    constexpr std::size_t kBatches = 20;
    for (std::size_t preload : {100'000u, 400'000u, 1'600'000u}) {
        // MeasureBatchUpdateTime touches keys [0, preload + kBatch *
        // kBatches).
        const std::size_t key_space = preload + kBatch * kBatches;
        double tree_time, two_time;
        {
            GEntryRegistry registry(key_space);
            TreeHeapPQ queue;
            tree_time = MeasureBatchUpdateTime(queue, registry, preload,
                                               kBatch, kBatches);
        }
        {
            GEntryRegistry registry(key_space);
            TwoLevelPQConfig config;
            config.max_step = 20'001;
            TwoLevelPQ queue(config);
            two_time = MeasureBatchUpdateTime(queue, registry, preload,
                                              kBatch, kBatches);
        }
        real.AddRow({FormatCount(static_cast<double>(preload)),
                     FormatSeconds(tree_time), FormatSeconds(two_time),
                     FormatSpeedup(tree_time / two_time)});
    }
    real.Print();
    std::printf("(paper: two-level PQ completes batch updates "
                "1.2-1.4x faster)\n\n");

    // --- (b)+(c) system effect on the Freebase KG workload --------------
    TablePrinter sim("Fig 11b/c — stall time and training throughput "
                     "(Freebase KG, 8 GPUs)",
                     {"Cache ratio", "PQ", "stall / step", "throughput",
                      "g-entry update / step"});
    for (double ratio : {0.05, 0.10}) {
        SimWorkload workload =
            MakeKgWorkload("Freebase", 8, 500, /*steps=*/25);
        double stall[2], thr[2];
        int i = 0;
        for (bool tree : {true, false}) {
            SimSystem system;
            system.gpu = RTX3090();
            system.n_gpus = 8;
            system.cache_ratio = ratio;
            system.tree_heap = tree;
            const SimResult r =
                SimulateEngine(SimEngine::kFrugal, workload, system);
            stall[i] = r.stall_mean;
            thr[i] = r.throughput;
            ++i;
            sim.AddRow({FormatDouble(ratio * 100, 0) + "%",
                        tree ? "TreeHeap" : "two-level",
                        FormatSeconds(r.stall_mean),
                        FormatCount(r.throughput),
                        FormatSeconds(r.g_entry_update_mean)});
        }
        std::printf("cache %.0f%%: stall reduced %.1fx, throughput "
                    "improved %.2fx by the two-level PQ\n",
                    ratio * 100, stall[0] / stall[1], thr[1] / thr[0]);
    }
    std::printf("\n");
    sim.Print();
    std::printf("(paper: stall reduced 74-107x, throughput improved "
                "2.1-3.3x)\n");
    return 0;
}
