/**
 * Concurrent, model-based tests that drive both FlushQueue
 * implementations through a miniature P²F workload: a foreground thread
 * executes gated training steps while background flush threads claim and
 * drain entries. Verifies, under real races:
 *   - the paper's invariant (2): no parameter is read at step s while it
 *     has pending (unflushed) writes;
 *   - conservation: every emitted update is flushed exactly once;
 *   - the gate eventually opens (liveness).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/distribution.h"
#include "common/rng.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/tree_heap_pq.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

struct ParamCase
{
    std::string queue;  // "two-level" or "tree-heap"
    int flushers;
    int keys;
    int steps;
    int batch;
    double zipf_theta;  // 0 = uniform
};

class PqConcurrentTest : public ::testing::TestWithParam<ParamCase>
{
};

std::unique_ptr<FlushQueue>
MakeQueue(const std::string &name, Step max_step)
{
    if (name == "two-level") {
        TwoLevelPQConfig config;
        config.max_step = max_step;
        config.segment_slots = 8;
        return std::make_unique<TwoLevelPQ>(config);
    }
    return std::make_unique<TreeHeapPQ>();
}

TEST_P(PqConcurrentTest, GatedTrainingPreservesInvariantAndConserves)
{
    const ParamCase param = GetParam();
    const Step lookahead = 4;

    auto queue = MakeQueue(param.queue, param.steps);
    GEntryRegistry registry(param.keys);

    // Pre-generate the whole trace (deduped keys per step).
    Rng rng(1234);
    std::unique_ptr<KeyDistribution> dist =
        param.zipf_theta > 0
            ? MakeDistribution(DistributionKind::kZipf, param.keys,
                               param.zipf_theta)
            : MakeDistribution(DistributionKind::kUniform, param.keys);
    std::vector<std::vector<Key>> trace(param.steps);
    for (int s = 0; s < param.steps; ++s) {
        std::vector<bool> seen(param.keys, false);
        for (int i = 0; i < param.batch; ++i) {
            const Key k = dist->Sample(rng);
            if (!seen[k]) {
                seen[k] = true;
                trace[s].push_back(k);
            }
        }
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> flushed_records{0};
    std::atomic<std::uint64_t> gate_violations{0};

    // Background flush threads.
    std::vector<std::thread> flushers;
    for (int f = 0; f < param.flushers; ++f) {
        flushers.emplace_back([&] {
            auto noop_apply = [](Key, const WriteRecord &) {};
            std::vector<ClaimTicket> claimed;
            while (!stop.load(std::memory_order_acquire)) {
                claimed.clear();
                if (queue->DequeueClaim(claimed, 8) == 0) {
                    std::this_thread::yield();
                    continue;
                }
                for (const ClaimTicket &ticket : claimed)
                    flushed_records += FlushClaimed(*queue, ticket,
                                                    noop_apply);
            }
            // Final drain after training stops.
            for (;;) {
                claimed.clear();
                if (queue->DequeueClaim(claimed, 8) == 0)
                    break;
                for (const ClaimTicket &ticket : claimed)
                    flushed_records += FlushClaimed(*queue, ticket,
                                                    noop_apply);
            }
        });
    }

    std::uint64_t emitted_records = 0;
    Step prefetched_through = 0;  // exclusive frontier

    auto prefetch_to = [&](Step horizon) {
        while (prefetched_through < horizon &&
               prefetched_through < static_cast<Step>(param.steps)) {
            for (Key k : trace[prefetched_through])
                RegisterRead(*queue, registry.GetOrCreate(k),
                             prefetched_through);
            ++prefetched_through;
        }
    };

    prefetch_to(lookahead);
    for (Step s = 0; s < static_cast<Step>(param.steps); ++s) {
        queue->SetScanBounds(s, s + lookahead);
        // The P²F gate: spin until PQ.top() > s.
        while (queue->HasPendingAtOrBelow(s))
            std::this_thread::yield();
        // Audit invariant (2) on every key this step reads.
        for (Key k : trace[s]) {
            GEntry &entry = registry.GetOrCreate(k);
            SpinGuard guard(entry.lock());
            if (entry.hasWritesLocked())
                ++gate_violations;
        }
        // "Backward pass": every read key produces one update.
        for (Key k : trace[s]) {
            const float grad = static_cast<float>(s);
            RegisterUpdate(*queue, registry.GetOrCreate(k), {s, 0},
                           std::span<const float>(&grad, 1));
            ++emitted_records;
        }
        prefetch_to(s + 1 + lookahead);
    }

    stop.store(true, std::memory_order_release);
    for (auto &t : flushers)
        t.join();

    EXPECT_EQ(gate_violations.load(), 0u);
    EXPECT_EQ(flushed_records.load(), emitted_records);
    EXPECT_EQ(queue->SizeApprox(), 0u);
    // Every entry fully drained.
    registry.ForEach([&](GEntry &entry) {
        SpinGuard guard(entry.lock());
        EXPECT_FALSE(entry.hasWritesLocked());
        EXPECT_FALSE(entry.enqueuedLocked());
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PqConcurrentTest,
    ::testing::Values(
        ParamCase{"two-level", 1, 64, 200, 16, 0.0},
        ParamCase{"two-level", 2, 64, 200, 16, 0.0},
        ParamCase{"two-level", 4, 256, 300, 32, 0.9},
        ParamCase{"two-level", 4, 64, 300, 32, 0.99},
        ParamCase{"two-level", 8, 512, 200, 64, 0.9},
        ParamCase{"tree-heap", 1, 64, 200, 16, 0.0},
        ParamCase{"tree-heap", 2, 64, 200, 16, 0.0},
        ParamCase{"tree-heap", 4, 256, 300, 32, 0.9},
        ParamCase{"tree-heap", 8, 512, 200, 64, 0.99},
        ParamCase{"two-level", 3, 1024, 400, 48, 0.99},
        ParamCase{"tree-heap", 3, 1024, 400, 48, 0.0}),
    [](const ::testing::TestParamInfo<ParamCase> &info) {
        const ParamCase &p = info.param;
        std::string name = p.queue + "_f" + std::to_string(p.flushers) +
                           "_k" + std::to_string(p.keys) + "_s" +
                           std::to_string(p.steps) + "_b" +
                           std::to_string(p.batch);
        for (char &c : name)
            if (c == '-' || c == '.')
                c = '_';
        return name;
    });

}  // namespace
}  // namespace frugal
