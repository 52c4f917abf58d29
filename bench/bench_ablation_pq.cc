/**
 * Ablations beyond the paper's figures, on design choices DESIGN.md
 * calls out:
 *  - scan-range compression on/off (the §3.4 optimisation; the paper
 *    quotes a 28 % dequeue-time reduction at millions of entries) —
 *    measured on the REAL TwoLevelPQ;
 *  - batched dequeue size — REAL TwoLevelPQ;
 *  - lookahead depth L — measured on the functional FrugalEngine
 *    (gate waits vs prefetch window depth).
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_workloads.h"
#include "common/rng.h"
#include "metrics/reporter.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"

namespace {

using namespace frugal;

/** Fills a queue with `entries` pending g-entries whose next reads are
 *  clustered inside [floor, floor+window). */
void
Preload(TwoLevelPQ &queue, GEntryRegistry &registry, std::size_t entries,
        Step floor, Step window, Rng &rng)
{
    for (std::size_t i = 0; i < entries; ++i) {
        GEntry &e = registry.GetOrCreate(i);
        RegisterRead(queue, e, floor + rng.NextBounded(window));
        RegisterUpdate(queue, e, {0, 0, {}});
    }
}

double
DrainAll(TwoLevelPQ &queue, std::size_t batch)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<ClaimTicket> claimed;
    auto noop = [](Key, const WriteRecord &) {};
    for (;;) {
        claimed.clear();
        if (queue.DequeueClaim(claimed, batch) == 0)
            break;
        for (const ClaimTicket &t : claimed)
            FlushClaimed(queue, t, noop);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

int
main()
{
    using namespace frugal::bench;

    PrintBanner("Ablation", "two-level PQ design choices");

    // --- scan range compression -----------------------------------------
    constexpr Step kMaxStep = 200'000;
    constexpr Step kFloor = 150'000;
    constexpr std::size_t kEntries = 300'000;
    TablePrinter scan("Scan-range compression (drain 300k entries whose "
                      "priorities sit late in a 200k-step index)",
                      {"Compression", "drain time", "index slots scanned"});
    double times[2];
    int idx = 0;
    for (bool enabled : {false, true}) {
        GEntryRegistry registry(kEntries);
        TwoLevelPQConfig config;
        config.max_step = kMaxStep;
        TwoLevelPQ queue(config);
        queue.setScanCompression(enabled);
        Rng rng(5);
        Preload(queue, registry, kEntries, kFloor, 10'000, rng);
        queue.SetScanBounds(kFloor, kFloor + 10'000);
        const double t = DrainAll(queue, 64);
        times[idx++] = t;
        scan.AddRow({enabled ? "on" : "off", FormatSeconds(t),
                     FormatCount(static_cast<double>(
                         queue.bucketsScanned()))});
    }
    scan.Print();
    std::printf("Compression reduces drain time by %.0f%% here "
                "(paper: 28%% dequeue-time reduction at millions of "
                "entries).\n\n",
                100.0 * (1.0 - times[1] / times[0]));

    // --- batched dequeue --------------------------------------------------
    constexpr std::size_t kBatchEntries = 200'000;
    TablePrinter batch_table("Batched dequeue (drain 200k entries)",
                             {"Batch size", "drain time"});
    for (std::size_t batch : {1u, 4u, 16u, 64u, 256u}) {
        GEntryRegistry registry(kBatchEntries);
        TwoLevelPQConfig config;
        config.max_step = kMaxStep;
        TwoLevelPQ queue(config);
        Rng rng(6);
        Preload(queue, registry, kBatchEntries, kFloor, 10'000, rng);
        queue.SetScanBounds(kFloor, kFloor + 10'000);
        batch_table.AddRow({std::to_string(batch),
                            FormatSeconds(DrainAll(queue, batch))});
    }
    batch_table.Print();

    // --- lookahead depth L -------------------------------------------------
    // Measured on the FUNCTIONAL runtime: a short window leaves the
    // prefetcher barely ahead of the trainers, so gates block waiting
    // for R sets; a deep window gives flushes room to defer.
    TablePrinter lookahead("Lookahead depth L (functional FrugalEngine, "
                           "zipf-0.9, 2 GPUs)",
                           {"L", "gate waits", "stall total",
                            "wall time"});
    for (std::size_t L : {1u, 2u, 5u, 10u, 50u}) {
        EngineConfig config;
        config.n_gpus = 2;
        config.dim = 16;
        config.key_space = 4096;
        config.cache_ratio = 0.05;
        config.flush_threads = 2;
        config.lookahead = L;
        Rng rng(17);
        ZipfDistribution dist(config.key_space, 0.9);
        const Trace trace = Trace::Synthetic(dist, rng, 120, 2, 64);
        FrugalEngine engine(config);
        const RunReport report =
            engine.Run(trace, MakeConstantGradTask());
        lookahead.AddRow(
            {std::to_string(L),
             FormatCount(static_cast<double>(report.gate_waits)),
             FormatSeconds(report.stall_seconds_total),
             FormatSeconds(report.wall_seconds)});
    }
    lookahead.Print();
    return 0;
}
