/**
 * Randomized reference-model test of the FlushQueue implementations:
 * a naive, obviously-correct model (per-key state + linear scans) is
 * driven through the same operation sequence as the real queues; after
 * every operation the observable state (gate predicate, claimable set,
 * flush results) must agree. Single-threaded, so failures pinpoint
 * logic bugs rather than races (pq_concurrent_test covers races).
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/tree_heap_pq.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

/** The reference: what each key's g-entry should look like. */
struct ModelEntry
{
    std::multiset<Step> reads;
    std::vector<WriteRecord> writes;

    Priority
    priority() const
    {
        if (writes.empty() || reads.empty())
            return kInfiniteStep;
        return *reads.begin();
    }
};

class PqModelTest : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<FlushQueue>
    MakeQueue(Step max_step)
    {
        if (std::string(GetParam()) == "two-level") {
            TwoLevelPQConfig config;
            config.max_step = max_step;
            config.segment_slots = 4;
            return std::make_unique<TwoLevelPQ>(config);
        }
        return std::make_unique<TreeHeapPQ>();
    }
};

TEST_P(PqModelTest, RandomOpSequencesMatchReference)
{
    constexpr Step kMaxStep = 200;
    constexpr int kKeys = 24;
    constexpr int kOpsPerTrial = 600;

    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        auto queue = MakeQueue(kMaxStep);
        GEntryRegistry registry(kKeys);
        std::map<Key, ModelEntry> model;
        Rng rng(seed);
        // Reads must be registered in non-decreasing step order per key;
        // track a per-key floor.
        std::map<Key, Step> read_floor;
        Step global_clock = 0;

        auto model_min_priority = [&] {
            Priority min = kInfiniteStep;
            for (auto &[k, e] : model)
                min = std::min(min, e.priority());
            return min;
        };

        for (int op = 0; op < kOpsPerTrial; ++op) {
            const Key key = rng.NextBounded(kKeys);
            switch (rng.NextBounded(3)) {
              case 0: {  // RegisterRead
                const Step floor =
                    std::max(read_floor[key], global_clock);
                const Step step = floor + rng.NextBounded(20);
                if (step > kMaxStep)
                    break;
                read_floor[key] = step;
                RegisterRead(*queue, registry.GetOrCreate(key), step);
                if (model[key].reads.empty() ||
                    *model[key].reads.rbegin() != step) {
                    model[key].reads.insert(step);
                }
                break;
              }
              case 1: {  // RegisterUpdate at the earliest pending read
                ModelEntry &entry = model[key];
                const Step step = entry.reads.empty()
                                      ? global_clock
                                      : *entry.reads.begin();
                RegisterUpdate(*queue, registry.GetOrCreate(key),
                               {step, 0, {}});
                auto it = entry.reads.find(step);
                if (it != entry.reads.end())
                    entry.reads.erase(it);
                entry.writes.push_back({step, 0, {}});
                break;
              }
              case 2: {  // Claim + flush a batch
                std::vector<ClaimTicket> claimed;
                const std::size_t want = 1 + rng.NextBounded(4);
                queue->DequeueClaim(claimed, want);
                for (const ClaimTicket &ticket : claimed) {
                    // The claim must be the current global minimum
                    // priority per the reference model.
                    ASSERT_EQ(ticket.priority, model_min_priority());
                    ModelEntry &entry = model[ticket.entry->key()];
                    ASSERT_EQ(ticket.priority, entry.priority());
                    const std::size_t flushed = FlushClaimed(
                        *queue, ticket,
                        [](Key, const WriteRecord &) {});
                    ASSERT_EQ(flushed, entry.writes.size());
                    entry.writes.clear();
                }
                break;
              }
            }
            // Gate predicate must agree at a few probe points.
            for (Step probe : {global_clock, global_clock + 5,
                               kMaxStep}) {
                ASSERT_EQ(queue->HasPendingAtOrBelow(probe),
                          model_min_priority() <= probe)
                    << "probe " << probe << " op " << op << " seed "
                    << seed;
            }
            if (rng.NextBounded(10) == 0 && global_clock < kMaxStep - 25)
                ++global_clock;  // advance training time occasionally
        }

        // Drain everything; total flushed must equal total outstanding.
        std::size_t model_outstanding = 0;
        for (auto &[k, e] : model)
            model_outstanding += e.writes.size();
        std::size_t drained = 0;
        for (;;) {
            std::vector<ClaimTicket> claimed;
            if (queue->DequeueClaim(claimed, 8) == 0)
                break;
            for (const ClaimTicket &ticket : claimed)
                drained += FlushClaimed(*queue, ticket,
                                        [](Key, const WriteRecord &) {});
        }
        EXPECT_EQ(drained, model_outstanding) << "seed " << seed;
        EXPECT_FALSE(queue->HasPendingAtOrBelow(kMaxStep));
        EXPECT_EQ(queue->SizeApprox(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothQueues, PqModelTest,
                         ::testing::Values("two-level", "tree-heap"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

}  // namespace
}  // namespace frugal
