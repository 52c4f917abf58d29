/**
 * NextUseIndex correctness: the oracle is checked against brute-force
 * forward scans of the same trace — every hint and every dead list. The
 * index only ever *moves* cache reads, but a wrong hint silently
 * degrades eviction to worse-than-LRU and a wrong dead list evicts a
 * row that is still needed, so exactness is the contract.
 */
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distribution.h"
#include "common/rng.h"
#include "data/next_use.h"
#include "data/trace.h"

namespace frugal {
namespace {

/** First step > `after` whose key lists (any GPU) contain `key`, by
 *  exhaustive scan. */
Step
BruteNextUse(const Trace &trace, Key key, Step after)
{
    for (std::size_t s = after + 1; s < trace.NumSteps(); ++s) {
        for (std::uint32_t g = 0; g < trace.n_gpus(); ++g) {
            const auto &keys = trace.KeysFor(s, g);
            if (std::find(keys.begin(), keys.end(), key) != keys.end())
                return static_cast<Step>(s);
        }
    }
    return NextUseIndex::kNever;
}

Trace
RandomTrace(std::uint64_t seed, std::size_t steps, std::uint32_t gpus,
            std::size_t keys_per_gpu, std::uint64_t key_space,
            double theta)
{
    Rng rng(seed);
    ZipfDistribution dist(key_space, theta);
    return Trace::Synthetic(dist, rng, steps, gpus, keys_per_gpu);
}

/** Checks every hint row and every dead list of `trace`'s index
 *  against brute-force forward scans, dead-list order included. */
void
ExpectIndexMatchesBruteForce(const Trace &trace)
{
    const NextUseIndex index = trace.BuildNextUseIndex();
    ASSERT_EQ(index.NumSteps(), trace.NumSteps());
    std::set<Key> distinct;
    for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
        const Step step = static_cast<Step>(s);
        std::vector<Key> dead;
        for (std::uint32_t g = 0; g < trace.n_gpus(); ++g) {
            const auto &keys = trace.KeysFor(s, g);
            const auto hints = index.HintRow(s, g);
            ASSERT_EQ(hints.size(), keys.size());
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const Step next = BruteNextUse(trace, keys[i], step);
                EXPECT_EQ(hints[i], next)
                    << "step " << s << " gpu " << g << " key " << keys[i];
                distinct.insert(keys[i]);
                if (next == NextUseIndex::kNever &&
                    std::find(dead.begin(), dead.end(), keys[i]) ==
                        dead.end())
                    dead.push_back(keys[i]);
            }
        }
        const auto got = index.DeadAfter(s);
        EXPECT_EQ(std::vector<Key>(got.begin(), got.end()), dead)
            << "dead list of step " << s;
    }
    EXPECT_EQ(index.distinct_keys(), distinct.size());
}

TEST(NextUseIndexTest, HintRowsMatchBruteForce)
{
    ExpectIndexMatchesBruteForce(RandomTrace(7, 40, 2, 12, 64, 0.9));
}

TEST(NextUseIndexTest, DeadListsExactAtBoundaries)
{
    const Trace trace = RandomTrace(42, 30, 2, 10, 48, 0.9);
    const NextUseIndex index = trace.BuildNextUseIndex();

    // Every traced key appears in exactly one dead list — the one for
    // its final reading step — and no list holds duplicates.
    std::set<Key> seen;
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
        for (const Key key : index.DeadAfter(s)) {
            EXPECT_TRUE(seen.insert(key).second)
                << "key " << key << " dead twice";
            ++total;
            // Dead after s means: read at or before s, never after.
            EXPECT_EQ(BruteNextUse(trace, key, static_cast<Step>(s)),
                      NextUseIndex::kNever)
                << "key " << key << " declared dead after " << s
                << " but is read later";
        }
    }
    EXPECT_EQ(total, index.distinct_keys());
    EXPECT_EQ(seen.size(), index.distinct_keys());

    // Exactness of the boundary itself: a key read at its dead step.
    for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
        for (const Key key : index.DeadAfter(s)) {
            bool read_at_s = false;
            for (std::uint32_t g = 0; g < trace.n_gpus(); ++g) {
                const auto &keys = trace.KeysFor(s, g);
                read_at_s = read_at_s ||
                            std::find(keys.begin(), keys.end(), key) !=
                                keys.end();
            }
            EXPECT_TRUE(read_at_s)
                << "key " << key << " dead after a step that never "
                << "read it";
        }
    }
}

TEST(NextUseIndexTest, SliceRebuildConsistency)
{
    // An index built over Slice(b, e) must agree with brute force over
    // the renumbered sub-trace — resumed runs rebuild their oracle from
    // the suffix and must not inherit full-trace lifetimes.
    const Trace trace = RandomTrace(13, 32, 2, 8, 40, 0.9);
    const Trace suffix = trace.Slice(10, 28);
    ASSERT_EQ(suffix.NumSteps(), 18u);
    ExpectIndexMatchesBruteForce(suffix);
}

TEST(NextUseIndexTest, SameStepCrossGpuReadsAreNotSuccessors)
{
    // Two GPUs reading one key in the same step: the hint for both
    // rows must point strictly past that step (or kNever), never at it.
    StepKeys s0;
    s0.per_gpu = {{1, 2}, {1, 3}};
    StepKeys s1;
    s1.per_gpu = {{2}, {1}};
    const Trace trace({s0, s1}, /*key_space=*/8, /*n_gpus=*/2);
    const NextUseIndex index = trace.BuildNextUseIndex();

    EXPECT_EQ(index.HintRow(0, 0)[0], 1u);  // key 1 -> step 1
    EXPECT_EQ(index.HintRow(0, 1)[0], 1u);  // same key, other GPU
    EXPECT_EQ(index.HintRow(0, 0)[1], 1u);  // key 2 -> step 1
    EXPECT_EQ(index.HintRow(0, 1)[1], NextUseIndex::kNever);  // key 3
    EXPECT_EQ(index.HintRow(1, 0)[0], NextUseIndex::kNever);
    EXPECT_EQ(index.HintRow(1, 1)[0], NextUseIndex::kNever);

    // Dead lists: key 3 dies after step 0; keys 1 and 2 after step 1.
    const auto dead0 = index.DeadAfter(0);
    ASSERT_EQ(dead0.size(), 1u);
    EXPECT_EQ(dead0[0], 3u);
    const auto dead1 = index.DeadAfter(1);
    std::vector<Key> d1(dead1.begin(), dead1.end());
    std::sort(d1.begin(), d1.end());
    EXPECT_EQ(d1, (std::vector<Key>{1, 2}));

    EXPECT_EQ(index.distinct_keys(), 3u);
    EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(NextUseIndexTest, EmptyAndDefaultIndex)
{
    const NextUseIndex empty;
    EXPECT_EQ(empty.NumSteps(), 0u);
    EXPECT_EQ(empty.distinct_keys(), 0u);
}

TEST(NextUseIndexTest, DegenerateTracesMatchBruteForce)
{
    // GPU 1 reads nothing at steps 0 and 2, GPU 2 nothing at all.
    {
        StepKeys s0;
        s0.per_gpu = {{4, 1}, {}, {}};
        StepKeys s1;
        s1.per_gpu = {{1}, {4, 2}, {}};
        StepKeys s2;
        s2.per_gpu = {{2}, {}, {}};
        ExpectIndexMatchesBruteForce(Trace({s0, s1, s2}, 8, 3));
    }
    // One step: every hint is kNever, every key dies after step 0.
    {
        StepKeys only;
        only.per_gpu = {{3, 1, 2}, {2, 5}};
        const Trace trace({only}, 8, 2);
        ExpectIndexMatchesBruteForce(trace);
        EXPECT_EQ(trace.BuildNextUseIndex().DeadAfter(0).size(), 4u);
    }
    // One key read by every GPU at every step: each hint is the next
    // step, and the key dies only after the last one.
    {
        StepKeys every;
        every.per_gpu = {{6}, {6}, {6}};
        const Trace trace(std::vector<StepKeys>(5, every), 8, 3);
        ExpectIndexMatchesBruteForce(trace);
        const NextUseIndex index = trace.BuildNextUseIndex();
        EXPECT_EQ(index.HintRow(2, 1)[0], 3u);
        EXPECT_TRUE(index.DeadAfter(3).empty());
        ASSERT_EQ(index.DeadAfter(4).size(), 1u);
        EXPECT_EQ(index.distinct_keys(), 1u);
    }
}

}  // namespace
}  // namespace frugal
